"""Acceptance gates for the whole stack, one test per criterion.

Every test prints a single pass/fail line with the measured numbers so a
run's verdict can be read off the log. The heavy fixtures (the 50-fridge
month for the duration models, the 200-fridge fault week) are built once
per module and shared by the criteria that grade them.
"""

import random
import sys
import time

import numpy as np
import pytest

from gradcheck import finite_difference_check
from naive_agg import evaluate as naive_evaluate
from test_aggregation import random_docs, random_pipeline

from coldflow.docstore import canonical_dumps, open_store, parse_document_line
from coldflow.docstore.pipeline import parse_pipeline
from coldflow.fridgesim import (
    CADENCE_S,
    SimConfig,
    WORKORDER_PATTERNS,
    fleet_specs,
    plan_faults,
    simulate_fleet,
    simulate_fridge,
    true_time_to_threshold,
    workorders_for_plans,
)
from coldflow.neural import (
    NetworkSpec,
    from_bytes,
    predict_values,
    to_bytes,
)
from coldflow.orchestrator import ScriptSpec, StageSpec, run_pipeline
from coldflow.pipelines import (
    DSR_EXAMPLES,
    FAULT_EXAMPLES,
    REPORTS,
    _dsr_example_doc,
    _fault_example_doc,
    infer_model,
    insert_new,
    learn_model,
    load_model,
    make_report,
    midband_setpoints,
    run_project,
    select_candidates,
)
from coldflow.runconfig import validate_config
from coldflow.telemetry import derive_features
from coldflow.wrangler import (
    InsufficientHistory,
    Workorder,
    balance_classes,
    document_columns,
    extract_defrost_examples,
    fridge_series,
    merge_faults,
    shift_for_lead_time,
    split_dataset,
)

DSR_SEED = 2097
FAULT_SEED = 415
WINDOW_FEATURES = (
    "air_on_temperature",
    "air_off_temperature",
    "air_on_diff",
    "targetTemp_on",
    "targetTemp_off",
)


# One line per graded criterion; conftest replays these after the run so
# they survive pytest's output capture.
VERDICTS: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {num:02d}: {detail}"


# ------------------------------------------------------- shared corpora


@pytest.fixture(scope="module")
def dsr(tmp_path_factory):
    """Duration-model corpus: 50 fridges x 30 days, three trained models.

    Returns everything criteria 3, 4, 5 and 9 grade: per-phase timings,
    the report rows, and bit-exact prediction/aggregation snapshots taken
    before the store is closed.
    """
    base = tmp_path_factory.mktemp("dsr")
    store_path = str(base / "store")
    sim = SimConfig(n_fridges=50, days=30.0, seed=DSR_SEED)

    t0 = time.monotonic()
    per_event = {}
    lead0_examples = 0
    for spec, readings in simulate_fleet(sim):
        docs = [parse_document_line(line)
                for line in derive_features(readings, midband_setpoints(spec)).lines]
        series = fridge_series([document_columns(docs, WINDOW_FEATURES)],
                               WINDOW_FEATURES)[spec.fridge_id]
        examples, _ = extract_defrost_examples(series, window_len=32, threshold=8.0)
        lead0_examples += len(examples)
        for ex in examples:
            try:
                ahead = shift_for_lead_time(series, ex, 120.0)
            except InsufficientHistory:
                continue
            per_event[ex.event_id] = (ex, ahead)
    t_sim_extract = time.monotonic() - t0

    events = sorted(per_event)
    test_events = set(split_dataset(events, 0.1, 0.1, DSR_SEED))
    docs = []
    for event_id in events:
        tag = "test" if event_id in test_events else "train"
        docs.extend(_dsr_example_doc(ex, tag) for ex in per_event[event_id])

    timings = {"sim_extract": t_sim_extract, "train": {}, "infer": {}}
    agg_pipelines = [
        [{"$group": {"_id": "$split", "n": {"$count": {}},
                     "mean_target": {"$avg": "$target_seconds"}}}],
        [{"$match": {"lead_seconds": 120.0, "split": "test"}},
         {"$sort": {"window_end_ts": -1, "fridge_id": 1}},
         {"$limit": 7},
         {"$project": {"fridge_id": 1, "target_seconds": 1}}],
    ]
    with open_store(store_path) as store:
        t0 = time.monotonic()
        insert_new(store, DSR_EXAMPLES, docs)
        timings["insert"] = time.monotonic() - t0
        for name, cell, lead in (
            ("lstm0", "lstm", 0.0),
            ("rnn0", "rnn", 0.0),
            ("lstm120", "lstm", 120.0),
        ):
            entry = {
                "name": name, "task": "regression", "select": [], "cell": cell,
                "layers": 2, "hidden": 32, "epochs": 30, "batch_size": 32,
                "learning_rate": 1e-3, "seed": None, "lead_seconds": lead,
            }
            t0 = time.monotonic()
            learn_model(store, entry, DSR_SEED)
            timings["train"][name] = time.monotonic() - t0
            t0 = time.monotonic()
            infer_model(store, {"model": name, "split": "test", "select": []})
            timings["infer"][name] = time.monotonic() - t0
        t0 = time.monotonic()
        report = make_report(store, {"report": {
            "models": ["lstm0", "rnn0", "lstm120"], "split": "test",
            "tag": "acceptance", "selection_tag": None,
        }})
        timings["report"] = time.monotonic() - t0

        # Criterion 9 snapshots, taken while this store handle is alive.
        _, artifact = load_model(store, "lstm0")
        art_bytes = to_bytes(artifact)
        sample_docs = store.aggregate(DSR_EXAMPLES, [
            {"$match": {"split": "test", "lead_seconds": 0.0}},
            {"$sort": {"_id": 1}},
            {"$limit": 10},
        ])
        X_sample = np.asarray([d["observed"] for d in sample_docs], dtype=float)
        preds0 = predict_values(artifact, X_sample)
        agg_before = [
            [canonical_dumps(d) for d in store.aggregate(DSR_EXAMPLES, p)]
            for p in agg_pipelines
        ]

    rows = {row["model"]: row for row in report["rows"]}
    return {
        "store_path": store_path,
        "lead0_examples": lead0_examples,
        "events": len(events),
        "timings": timings,
        "rows": rows,
        "report": report,
        "art_bytes": art_bytes,
        "X_sample": X_sample,
        "preds0": preds0,
        "agg_pipelines": agg_pipelines,
        "agg_before": agg_before,
    }


@pytest.fixture(scope="module")
def fault(tmp_path_factory):
    """Fault-analog corpus: 180 injected faults, one 24h-lead classifier."""
    base = tmp_path_factory.mktemp("fault")
    t0 = time.monotonic()
    sim = SimConfig(n_fridges=200, days=4.0, seed=FAULT_SEED)
    specs = fleet_specs(sim)
    plans = plan_faults(specs, sim, 180, FAULT_SEED)
    orders = workorders_for_plans(plans, specs, FAULT_SEED, noise_orders=10)
    series = {}
    for spec, readings in simulate_fleet(sim, fault_plans=plans):
        fridge_docs = [parse_document_line(line)
                       for line in derive_features(readings, midband_setpoints(spec)).lines]
        series.update(fridge_series([document_columns(fridge_docs, WINDOW_FEATURES)],
                                    WINDOW_FEATURES))

    examples, stats = merge_faults(
        series,
        [Workorder(text, ts) for text, ts in orders],
        horizon_seconds=86400.0,
        window_len=64,
        patterns=WORKORDER_PATTERNS,
        negatives_per_positive=1.0,
        seed=FAULT_SEED,
    )
    examples = balance_classes(examples, FAULT_SEED)
    docs = sorted(map(_fault_example_doc, examples), key=lambda d: d["_id"])
    test_ids = set(split_dataset([doc["_id"] for doc in docs], 0.2, 0.1, FAULT_SEED))
    for doc in docs:
        doc["split"] = "test" if doc["_id"] in test_ids else "train"

    with open_store(base / "store") as store:
        insert_new(store, FAULT_EXAMPLES, docs)
        learn_model(store, {
            "name": "fault24", "task": "classification", "select": [],
            "cell": "lstm", "layers": 2, "hidden": 32, "epochs": 60,
            "batch_size": 16, "learning_rate": 1e-3, "seed": None,
            "lead_seconds": 0.0,
        }, FAULT_SEED)
        infer_model(store, {"model": "fault24", "split": "test", "select": []})
        report = make_report(store, {"report": {
            "models": ["fault24"], "split": "test",
            "tag": "acceptance", "selection_tag": None,
        }})
    row = report["rows"][0]
    return {
        "examples": len(docs),
        "positives": stats.positives,
        "negatives": stats.negatives,
        "accuracy": row["accuracy"],
        "test_n": row["examples"],
        "elapsed": time.monotonic() - t0,
    }


# ------------------------------------------------------------- criteria


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.monotonic()
    worst = 0.0
    for cell in ("rnn", "lstm"):
        for layers in (1, 2):
            for head, outputs in (("linear", 1), ("softmax", 3)):
                spec = NetworkSpec(cell=cell, layers=layers, hidden=8,
                                   features=4, outputs=outputs, head=head)
                result = finite_difference_check(
                    spec, seed=7, batch=3, steps=12, epsilon=1e-5
                )
                worst = max(worst, result.max_rel_error)
    elapsed = time.monotonic() - t0
    _verdict(1, worst < 1e-4 and elapsed < 60.0,
             f"max rel err {worst:.2e} (< 1e-4) over 8 configs in {elapsed:.1f}s")


def test_criterion_02_aggregation_matches_brute_force():
    t0 = time.monotonic()
    rng = random.Random(415)
    docs = random_docs(rng, 1000)
    mismatches = 0
    for trial in range(200):
        pipeline = random_pipeline(rng)
        got = [canonical_dumps(d) for d in parse_pipeline(pipeline).run(docs)]
        want = [canonical_dumps(d) for d in naive_evaluate(docs, pipeline)]
        if got != want:
            mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(2, mismatches == 0 and elapsed < 60.0,
             f"{mismatches} mismatches over 200 pipelines x 1000 docs "
             f"in {elapsed:.1f}s")


def test_criterion_03_lstm_beats_constant_baseline(dsr):
    row = dsr["rows"]["lstm0"]
    ratio = row["mae_s"] / row["baseline_mae_s"]
    t = dsr["timings"]
    elapsed = (t["sim_extract"] + t["insert"] + t["train"]["lstm0"]
               + t["infer"]["lstm0"] + t["report"])
    ok = (
        dsr["lead0_examples"] >= 5000
        and ratio < 0.25
        and elapsed < 1800.0
    )
    _verdict(3, ok,
             f"{dsr['lead0_examples']} examples, test MAE {row['mae_s']:.1f}s "
             f"= {100 * ratio:.1f}% of baseline {row['baseline_mae_s']:.1f}s "
             f"(< 25%), path time {elapsed:.0f}s (< 1800s)")


def test_criterion_04_lstm_not_worse_than_rnn(dsr):
    lstm = dsr["rows"]["lstm0"]["mae_s"]
    rnn = dsr["rows"]["rnn0"]["mae_s"]
    _verdict(4, lstm <= rnn,
             f"LSTM test MAE {lstm:.1f}s <= RNN test MAE {rnn:.1f}s")


def test_criterion_05_lead_time_model_and_report(dsr):
    row = dsr["rows"]["lstm120"]
    ratio = row["mae_s"] / row["baseline_mae_s"]
    table = dsr["report"]["table"]
    both_in_report = (
        "lstm0" in dsr["rows"] and "lstm120" in dsr["rows"]
        and dsr["rows"]["lstm0"]["lead_seconds"] == 0.0
        and row["lead_seconds"] == 120.0
        and "lstm0" in table and "lstm120" in table
    )
    _verdict(5, ratio < 0.25 and both_in_report,
             f"120s-lead test MAE {row['mae_s']:.1f}s = {100 * ratio:.1f}% of "
             f"baseline (< 25%); in-time and ahead rows both in report")


def test_criterion_06_durations_match_closed_form():
    config = SimConfig(n_fridges=1000, days=0.5, seed=66, noise=False)
    worst = 0.0
    checked = 0
    for spec in fleet_specs(config):
        readings = simulate_fridge(spec, config)
        flags = readings.defrost
        start = flags.index(1)
        end = start
        while end < len(flags) and flags[end] == 1:
            end += 1
        assert end < len(flags), f"{spec.fridge_id}: defrost never completed"
        duration = (end - start) * CADENCE_S
        expected = true_time_to_threshold(spec, readings.air_on[start])
        worst = max(worst, abs(duration - expected))
        checked += 1
    _verdict(6, checked == 1000 and worst <= CADENCE_S,
             f"{checked} specs, worst |simulated - closed form| = {worst:.1f}s "
             f"(<= {CADENCE_S:.0f}s)")


def test_criterion_07_greedy_selection_matches_exhaustive():
    rng = random.Random(20260819)
    feasibility_breaks = 0
    count_breaks = 0
    for trial in range(500):
        n = rng.randint(1, 15)
        # Quarter-kW grid keeps every subset sum exact in binary, so greedy
        # and exhaustive cannot disagree through float rounding.
        if trial % 2 == 0:
            powers = [rng.randint(2, 20) * 0.25] * n
        else:
            powers = [rng.randint(2, 20) * 0.25 for _ in range(n)]
        target = rng.randint(1, int(sum(powers) / 0.25) + 4) * 0.25
        candidates = [
            {"fridge_id": f"F{i:04d}", "power_kw": powers[i],
             "predicted_safe_off_s": float(rng.randint(0, 3600))}
            for i in range(n)
        ]
        selection = select_candidates(candidates, target)

        sums = [0.0] * (1 << n)
        counts = [0] * (1 << n)
        best = None
        feasible = False
        for mask in range(1, 1 << n):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + powers[low.bit_length() - 1]
            counts[mask] = counts[mask ^ low] + 1
            if sums[mask] >= target:
                feasible = True
                if best is None or counts[mask] < best:
                    best = counts[mask]

        if selection.feasible != feasible:
            feasibility_breaks += 1
        elif feasible and len(selection.chosen) != best:
            count_breaks += 1
    _verdict(7, feasibility_breaks == 0 and count_breaks == 0,
             f"500 instances: {feasibility_breaks} feasibility disagreements, "
             f"{count_breaks} cardinality disagreements vs exhaustive search")


def test_criterion_08_pool_respects_width_and_barriers(tmp_path):
    def nap(ctx, ms):
        time.sleep(ms / 1000.0)

    # Builtin stages run one script at a time, so only a stage of external
    # scripts can break the width; about one stage in seven is one.
    rng = random.Random(88)
    width_breaks = 0
    barrier_breaks = 0
    externals = 0
    for plan in range(200):
        budget = 32
        stages = []
        for s in range(rng.randint(1, 4)):
            count = min(budget, rng.randint(1, 8))
            budget -= count
            if rng.random() < 0.15:
                externals += count
                scripts = tuple(
                    ScriptSpec(name=f"p{plan}s{s}x{j}",
                               command=(sys.executable, "-S", "-c", "pass"))
                    for j in range(count)
                )
            else:
                scripts = tuple(
                    ScriptSpec(name=f"p{plan}s{s}x{j}", builtin="nap",
                               args={"ms": rng.randint(1, 4)})
                    for j in range(count)
                )
            stages.append(StageSpec(name=f"stage{s}", scripts=scripts,
                                    pool_width=rng.randint(1, 8)))
            if budget == 0:
                break
        reports = run_pipeline(stages, {"nap": nap}, store_path=str(tmp_path))
        assert len(reports) == len(stages)
        assert all(report.ok for report in reports)

        prev_end = None
        for stage, report in zip(stages, reports):
            marks = sorted(
                [(e.start_s, 1) for e in report.events]
                + [(e.end_s, -1) for e in report.events],
                key=lambda m: (m[0], m[1]),
            )
            running = peak = 0
            for _, delta in marks:
                running += delta
                peak = max(peak, running)
            if peak > stage.pool_width:
                width_breaks += 1
            if prev_end is not None and min(e.start_s for e in report.events) < prev_end:
                barrier_breaks += 1
            prev_end = max(e.end_s for e in report.events)
    _verdict(8, width_breaks == 0 and barrier_breaks == 0,
             f"200 plans, {externals} external scripts: {width_breaks} width "
             f"violations, {barrier_breaks} cross-stage interleavings")


def test_criterion_09_persistence_roundtrips_bit_identical(dsr):
    # Serialize -> parse -> serialize is byte-stable and prediction-stable.
    revived = from_bytes(dsr["art_bytes"])
    bytes_stable = to_bytes(revived) == dsr["art_bytes"]
    preds_revived = predict_values(revived, dsr["X_sample"])
    preds_stable = preds_revived.tobytes() == dsr["preds0"].tobytes()

    # A fresh handle on the closed store reproduces model and aggregates.
    with open_store(dsr["store_path"]) as store:
        _, artifact = load_model(store, "lstm0")
        reload_stable = (
            to_bytes(artifact) == dsr["art_bytes"]
            and predict_values(artifact, dsr["X_sample"]).tobytes()
            == dsr["preds0"].tobytes()
        )
        agg_after = [
            [canonical_dumps(d) for d in store.aggregate(DSR_EXAMPLES, p)]
            for p in dsr["agg_pipelines"]
        ]
    agg_stable = agg_after == dsr["agg_before"]
    _verdict(9, bytes_stable and preds_stable and reload_stable and agg_stable,
             f"weights byte-stable={bytes_stable}, predictions bit-identical="
             f"{preds_stable}, reopen model={reload_stable}, "
             f"reopen aggregates={agg_stable}")


def test_criterion_10_fault_classifier_accuracy(fault):
    ok = (
        fault["examples"] >= 200
        and fault["positives"] == fault["negatives"]
        and fault["accuracy"] >= 0.90
        and fault["elapsed"] < 600.0
    )
    _verdict(10, ok,
             f"{fault['examples']} balanced examples (>= 200), held-out "
             f"accuracy {fault['accuracy']:.3f} over {fault['test_n']} "
             f"(>= 0.90), {fault['elapsed']:.0f}s (< 600s)")


def test_criterion_11_runs_are_byte_identical(tmp_path):
    config = validate_config({
        "seed": 11,
        "pool_width": 2,
        "simulate": {"n_fridges": 3, "days": 4},
        "wrangle": {"window_len": 16, "test_fraction": 0.25,
                    "val_fraction": 0.25, "target_band_s": [300.0, 8100.0]},
        "learn": [{"name": "m", "task": "regression", "cell": "rnn",
                   "layers": 1, "hidden": 8, "epochs": 2}],
        "infer": [{"model": "m"}],
        "report": {"models": ["m"], "tag": "acceptance"},
    })
    snapshots = []
    for run in ("a", "b"):
        store_path = str(tmp_path / run / "store")
        reports, ok = run_project(store_path, config)
        assert ok, [r.failures() for r in reports]
        with open_store(store_path) as store:
            docs = sorted(store.find_all(REPORTS), key=lambda d: d["_id"])
            snapshots.append([canonical_dumps(d).encode("utf-8") for d in docs])
    identical = snapshots[0] == snapshots[1] and len(snapshots[0]) >= 1
    _verdict(11, identical,
             f"two runs, {len(snapshots[0])} report document(s), "
             f"byte-identical={identical}")
