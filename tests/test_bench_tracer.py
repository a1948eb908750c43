"""The benchmark's tracer (bench/spans.py) still fits the package.

The tracer patches pipeline functions and registry keys by name, so a
refactor that drops or renames one of them breaks traced benchmark runs.
"""

import importlib.util
import json
import math
from pathlib import Path

from coldflow import pipelines
from coldflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
# The traced benchmark adds these two itself, from the store it leaves.
ADDED_BY_RUN = {"docstore.telemetry_bytes_per_doc", "neural.dsr_mae_s"}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr, is_map):
    return owner[attr] if is_map else getattr(owner, attr)


def test_tracer_installs_and_uninstalls():
    assert "wrangle_dsr" in pipelines.REGISTRY
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original, is_map in patches:
            assert current(owner, attr, is_map) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original, is_map in patches:
        assert current(owner, attr, is_map) is original, attr


def test_traced_round_reads_every_per_layer_metric(tmp_path, capsys):
    config = {
        "seed": 3,
        "simulate": {"n_fridges": 2, "days": 2},
        "wrangle": {"window_len": 8},
        "learn": [{"name": "m", "task": "regression", "cell": "lstm",
                   "layers": 1, "hidden": 4, "epochs": 2}],
        "infer": [{"model": "m"}],
        "select": {"model": "m", "target_kw": 0.5, "tag": "t"},
        "report": {"models": ["m"], "tag": "r", "selection_tag": "t"},
    }
    sim_path = tmp_path / "simulate.json"
    sim_path.write_text(json.dumps(config))
    del config["simulate"]
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(config))
    data, store = str(tmp_path / "data"), str(tmp_path / "store")

    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["simulate", "--config", str(sim_path), "--out", data]) == 0
        tracer.phase = "round"
        assert main(["ingest", "--config", str(run_path), "--store", store,
                     "--from", data]) == 0
        assert main(["run", "--config", str(run_path), "--store", store]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics = spans.layer_metrics(tracer.spans, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    want = {m["name"] for m in declared} - ADDED_BY_RUN
    assert want - set(metrics) == set()
    for name in want:
        assert math.isfinite(metrics[name][0]), name
    json.dumps({name: metrics[name] for name in want}, allow_nan=False)
