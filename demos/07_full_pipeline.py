"""
One config, whole pipeline
==========================

Everything the other demos did by hand, a single JSON-shaped config does
here: simulate a fleet, wrangle it into examples, train, predict, pick
fridges for a demand-response window, and write a report. Stages run
one after another through the orchestrator, each task in config order.
Expect around ten seconds, most of it training.
"""

import tempfile

from coldflow.docstore import open_store
from coldflow.pipelines import REPORTS, run_project
from coldflow.runconfig import validate_config

config = validate_config({
    "seed": 12,
    "simulate": {"n_fridges": 6, "days": 10},
    "wrangle": {"window_len": 16, "test_fraction": 0.2, "val_fraction": 0.15,
                "target_band_s": [300.0, 8100.0]},
    "learn": [{"name": "safe_off", "task": "regression", "cell": "lstm",
               "layers": 1, "hidden": 16, "epochs": 40}],
    "infer": [{"model": "safe_off"}],
    "select": {"model": "safe_off", "target_kw": 2.0, "tag": "evening_peak"},
    "report": {"models": ["safe_off"], "tag": "nightly",
               "selection_tag": "evening_peak"},
})
# validate_config fills every optional knob, so downstream code never
# guesses at defaults.
print("defaulted learn entry:", config["learn"][0])

with tempfile.TemporaryDirectory() as tmp:
    reports, ok = run_project(f"{tmp}/store", config)
    for stage in reports:
        print(f"stage {stage.stage}: {len(stage.events)} script(s), "
              f"ok={stage.ok}")
    print("pipeline ok:", ok)

    with open_store(f"{tmp}/store", read_only=True) as store:
        doc = store.get(REPORTS, "report:nightly")
        print()
        print(doc["table"])
        sel = doc["selection"]
        chosen = ", ".join(c["fridge_id"] for c in sel["chosen"])
        print(f"selection {sel['_id']}: {sel['total_kw']:.2f} kW from "
              f"[{chosen}] against a {sel['target_kw']:.1f} kW target "
              f"(feasible={sel['feasible']})")
