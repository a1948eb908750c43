"""Serve commands: each imports only what it runs, and fails with a clear error.

A serve request runs ``infer``, ``select`` and ``report`` as separate
processes, so each command's import cost is paid on every request. The
import checks run in a fresh interpreter, since this one has already
loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coldflow import pipelines, reporting, selection
from coldflow.cli import main
from coldflow.docstore import open_store
from coldflow.runconfig import validate_config

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A trained store (2 fridges, one 1x4 LSTM at 2 epochs) and its config."""
    root = tmp_path_factory.mktemp("served")
    config = {
        "seed": 3,
        "store_path": str(root / "store"),
        "simulate": {"n_fridges": 2, "days": 2},
        "wrangle": {"window_len": 8},
        "learn": [{"name": "m", "task": "regression", "cell": "lstm",
                   "layers": 1, "hidden": 4, "epochs": 2}],
        "infer": [{"model": "m"}],
        "select": {"model": "m", "target_kw": 0.5, "tag": "t"},
        "report": {"models": ["m"], "tag": "r", "selection_tag": "t"},
    }
    path = root / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 0
    return root, config


def run_fresh(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter; it must print one JSON line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_command(argv: list[str], cwd) -> dict:
    """Run ``coldflow.cli.main(argv)`` fresh; returns its exit code and modules."""
    code = (
        "import json, sys\n"
        "from coldflow.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    return run_fresh(code, cwd)


def test_importing_the_cli_loads_no_numpy(tmp_path):
    out = run_fresh("import json, sys, coldflow.cli\n"
                    "print(json.dumps({'modules': sorted(sys.modules)}))", tmp_path)
    assert "numpy" not in out["modules"]


def test_select_runs_without_numpy(served):
    root, _ = served
    out = run_command(["select", "--config", str(root / "run.json")], root)
    assert out["code"] == 0
    assert "numpy" not in out["modules"]


def test_report_loads_no_network_simulator_or_wrangler(served):
    root, _ = served
    out = run_command(["report", "--config", str(root / "run.json")], root)
    assert out["code"] == 0
    loaded = set(out["modules"])
    for module in ("coldflow.neural", "coldflow.fridgesim", "coldflow.wrangler"):
        assert module not in loaded


def test_pipelines_reexports_the_moved_names():
    assert pipelines.select_dsr is selection.select_dsr
    assert pipelines.select_candidates is selection.select_candidates
    assert pipelines.insert_new is selection.insert_new
    assert pipelines.PipelineError is selection.PipelineError
    assert pipelines.make_report is reporting.make_report
    assert pipelines.REPORTS == selection.REPORTS


def test_report_on_an_unknown_selection_tag_names_it(served, capsys):
    root, config = served
    config = dict(config, report={"models": ["m"], "tag": "r2", "selection_tag": "nope"})
    path = root / "nope.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["report", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'nope'" in err
    assert "coldflow select" in err
    with open_store(config["store_path"], read_only=True) as store:
        assert store.absent(selection.REPORTS, ["report:r2"]) == [0]
        with pytest.raises(selection.PipelineError, match="no selection tagged 'nope'"):
            reporting.make_report(store, validate_config(config))
