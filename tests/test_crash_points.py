"""Crash-point sweep: ``coldflow ingest``, then ``coldflow run``, killed
after each fsync in turn, and rerun.

Each state is the store that a writer left when it died right after its
k-th fsync (:mod:`crashpoints`), for every k that a clean run reaches,
with the synced file whole or its last line torn in half. Rerunning the
commands without a crash must exit 0, free the writer lock and leave every
collection byte-identical to a clean run's. This enumerates crash states
at persistence points the way ALICE (Pillai et al., OSDI 2014) and
CrashMonkey (Mohan et al., OSDI 2018) do, for process crashes only: the
page cache survives a process crash, so the writes made before the death
all reach the files, in order. Reordered or lost writes, which only a
kernel crash or a power cut can make, are out of scope.
"""

import json
import shutil
from types import SimpleNamespace

import pytest
from crashpoints import CRASH_EXIT, run_command
from test_docstore import lock_is_free

CONFIG = {
    "seed": 11,
    "pool_width": 2,
    "wrangle": {"window_len": 16, "leads": [0.0], "target_band_s": [300.0, 8100.0]},
    "learn": [{"name": "m", "task": "regression", "cell": "rnn",
               "layers": 1, "hidden": 6, "epochs": 2}],
    "infer": [{"model": "m", "split": "test"}],
    "select": {"model": "m", "target_kw": 0.5, "tag": "t"},
    "report": {"models": ["m"], "tag": "r"},
}


def collections(store) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(store.glob("*.ndjson"))}


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """3 fridges x 4 days as CSVs, the commands that load and run them, and
    a clean run's fsync counts, store after ingest and final collections."""
    root = tmp_path_factory.mktemp("fleet")
    simulate = dict(CONFIG, simulate={"n_fridges": 3, "days": 4,
                                      "faults": {"count": 2, "noise_workorders": 1}})
    (root / "simulate.json").write_text(json.dumps(simulate))
    (root / "run.json").write_text(json.dumps(CONFIG))
    assert run_command(["simulate", "--config", str(root / "simulate.json"),
                        "--out", str(root / "csv")]) == (0, 0)
    commands = {"ingest": ["ingest", "--from", str(root / "csv")], "run": ["run"]}
    tail = ["--config", str(root / "run.json"), "--store", str(root / "clean")]
    fsyncs = {}
    code, fsyncs["ingest"] = run_command(commands["ingest"] + tail)
    assert code == 0
    shutil.copytree(root / "clean", root / "ingested")
    code, fsyncs["run"] = run_command(commands["run"] + tail)
    assert code == 0 and min(fsyncs.values()) > 0
    return SimpleNamespace(config=str(root / "run.json"), commands=commands, fsyncs=fsyncs,
                           ingested=root / "ingested", clean=collections(root / "clean"))


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
@pytest.mark.parametrize("command", ["ingest", "run"])
def test_a_rerun_after_a_crash_at_any_fsync_leaves_a_clean_runs_bytes(fleet, tmp_path,
                                                                      command, torn):
    rerun = ["ingest", "run"] if command == "ingest" else ["run"]
    for k in range(1, fleet.fsyncs[command] + 1):
        store = tmp_path / f"after-fsync-{k}"
        if command == "run":
            shutil.copytree(fleet.ingested, store)
        where = f"coldflow {command} killed after fsync {k}{', torn' if torn else ''}"
        tail = ["--config", fleet.config, "--store", str(store)]
        assert run_command(fleet.commands[command] + tail, k, torn) == (CRASH_EXIT, k), where
        assert lock_is_free(store), where
        for name in rerun:
            assert run_command(fleet.commands[name] + tail)[0] == 0, (where, name)
        assert lock_is_free(store), where
        assert collections(store) == fleet.clean, where
