"""The benchmark's three workloads: their configs and request streams.

Every input is a function of the workload seed: the fleet that
``coldflow simulate`` writes (the config's ``seed`` drives the simulator and
the training seeds) and, for ``serve``, the shed targets of the requests.
"""

from __future__ import annotations

import copy
import random

# The README quickstart config, verbatim apart from the seed.
QUICKSTART = {
    "seed": 12,
    "store_path": "store",
    "simulate": {"n_fridges": 6, "days": 10},
    "wrangle": {"window_len": 16, "test_fraction": 0.2, "val_fraction": 0.15},
    "learn": [{"name": "safe_off", "task": "regression", "cell": "lstm",
               "layers": 1, "hidden": 16, "epochs": 40}],
    "infer": [{"model": "safe_off"}],
    "select": {"model": "safe_off", "target_kw": 2.0, "tag": "evening_peak"},
    "report": {"models": ["safe_off"], "tag": "nightly",
               "selection_tag": "evening_peak"},
}


def _lstm(name: str, **extra) -> dict:
    # learning_rate 0.005: at the default 0.001 these small fleets leave
    # some seeds' lead-0 model worse than the constant-mean baseline.
    return dict({"name": name, "task": "regression", "cell": "lstm", "layers": 1,
                 "hidden": 16, "epochs": 40, "learning_rate": 0.005}, **extra)


# The paper's case study at small scale: lead-time shifts, fault windows
# from work orders, three models sharing the default width-2 pool. Sized so
# one ingest-and-run round takes about 20 s on a 2-core machine.
FLEET = {
    "seed": 0,
    "simulate": {"n_fridges": 10, "days": 3.5,
                 "faults": {"count": 8, "noise_workorders": 4}},
    "wrangle": {"window_len": 16, "leads": [0, 120], "test_fraction": 0.2,
                "val_fraction": 0.15},
    "faults": {"horizon_s": 86400, "window_len": 16},
    "learn": [
        _lstm("safe_off", lead_seconds=0),
        _lstm("safe_off_120", lead_seconds=120),
        _lstm("fault_24h", task="classification"),
    ],
    "infer": [{"model": "safe_off"}, {"model": "safe_off_120"},
              {"model": "fault_24h"}],
    "select": {"model": "safe_off", "target_kw": 6.0, "tag": "evening_peak"},
    "report": {"models": ["safe_off", "safe_off_120", "fault_24h"],
               "tag": "nightly", "selection_tag": "evening_peak"},
}

# A trained store for ten fridges, so a shed target needs several of them.
# Set-up runs this whole pipeline once (the nightly job); the measured
# requests then re-run infer, select and report against it.
SERVE = {
    "seed": 0,
    "simulate": {"n_fridges": 10, "days": 2},
    "wrangle": {"window_len": 16, "test_fraction": 0.25, "val_fraction": 0.15},
    "learn": [_lstm("safe_off")],
    "infer": [{"model": "safe_off"}],
    "select": {"model": "safe_off", "target_kw": 6.0, "tag": "nightly"},
    "report": {"models": ["safe_off"], "tag": "nightly", "selection_tag": "nightly"},
}

WORKLOADS = {"quickstart": QUICKSTART, "fleet": FLEET, "serve": SERVE}

# Shed targets are drawn from this range; the upper end exceeds what ten
# fridges of 1-4 kW can give, so some requests are infeasible.
SERVE_TARGET_KW = (1.0, 25.0)


def configs(workload: str, seed: int) -> tuple[dict, dict]:
    """Returns (simulate config, run config) for one workload and seed.

    The run config is the same config with its simulate section dropped:
    the measured run sees only the CSVs and sidecars, as real data arrives.
    """
    sim = copy.deepcopy(WORKLOADS[workload])
    sim["seed"] = seed
    sim.pop("store_path", None)
    run = copy.deepcopy(sim)
    del run["simulate"]
    return sim, run


def serve_request(run_config: dict, seed: int, index: int) -> dict:
    """Config of the index-th demand-response request of a serve run."""
    rng = random.Random(f"serve:{seed}:{index}")
    tag = f"req{index:05d}"
    config = copy.deepcopy(run_config)
    config["select"].update(tag=tag,
                            target_kw=round(rng.uniform(*SERVE_TARGET_KW), 2))
    config["report"].update(tag=tag, selection_tag=tag)
    return config
