"""Store-backed pipeline tasks: ingest, wrangle, learn, infer, select, report."""

import itertools
import json
import random
import shutil

import numpy as np
import pytest

from coldflow import pipelines
from coldflow.cli import main
from coldflow.docstore import canonical_dumps, open_store
from coldflow.fridgesim import WORKORDER_PATTERNS
from coldflow.orchestrator import WorkerContext
from coldflow.pipelines import (
    PipelineError,
    build_stages,
    insert_new,
    run_project,
    select_candidates,
)
from coldflow.runconfig import load_config, validate_config
from coldflow.telemetry import Readings, Setpoints
from coldflow.wrangler import document_columns, fridge_series


DSR0 = {"name": "dsr0", "task": "regression", "cell": "rnn",
        "layers": 1, "hidden": 8, "epochs": 3, "lead_seconds": 0.0}


def small_config(learn=(DSR0,)):
    return validate_config({
        "seed": 11,
        "pool_width": 2,
        "wrangle": {"window_len": 16, "leads": [0.0, 120.0],
                    "target_band_s": [300.0, 8100.0]},
        "simulate": {"n_fridges": 6, "days": 4,
                     "faults": {"count": 4, "noise_workorders": 2}},
        "faults": {"patterns": WORKORDER_PATTERNS, "horizon_s": 21600.0,
                   "window_len": 16, "test_fraction": 0.25, "val_fraction": 0.25},
        "learn": [dict(entry) for entry in learn],
        "infer": [{"model": "dsr0", "split": "test"}],
        "select": {"model": "dsr0", "target_kw": 2.0, "min_safe_off_s": 300.0,
                   "tag": "evening"},
        "report": {"models": ["dsr0"], "tag": "nightly",
                   "selection_tag": "evening"},
    })


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """One fully populated store shared by the read-mostly tests below."""
    path = str(tmp_path_factory.mktemp("proj") / "store")
    cfg = small_config()
    reports, ok = run_project(path, cfg)
    assert ok, [e.error for r in reports for e in r.failures()]
    return path, cfg


def test_insert_new_is_write_once(tmp_path):
    with open_store(str(tmp_path / "s")) as store:
        first = insert_new(store, "things", [{"_id": "a", "v": 1}])
        again = insert_new(store, "things", [{"_id": "a", "v": 999},
                                             {"_id": "b", "v": 2}])
        assert first == (1, 0)
        assert again == (1, 1)
        assert store.get("things", "a")["v"] == 1


def test_ingest_workorders_orders_by_timestamp(tmp_path):
    with open_store(str(tmp_path / "s")) as store:
        pipelines.ingest_workorders(store, [("late", 30.0), ("early", 10.0)])
        docs = store.find_all("workorders")
        by_id = {d["_id"]: d for d in docs}
        assert by_id["wo:000000"]["raw_text"] == "early"
        assert by_id["wo:000001"]["raw_text"] == "late"


def sawtooth_readings(fridge, n, store_ids, extra=None):
    """``n`` readings a minute apart, with temperatures and a defrost flag
    that cycle."""
    return Readings([60.0 * i for i in range(n)], [fridge] * n, store_ids,
                    [3.0 + 0.1 * (i % 7) for i in range(n)],
                    [1.0 - 0.05 * (i % 5) for i in range(n)],
                    [int(i % 20 >= 17) for i in range(n)], extra or {})


def test_telemetry_blocks_sort_out_of_order_batches(tmp_path):
    # Fridge F0 arrives in two batches, the later readings first, after F1.
    # Its block still runs forwards in time with the same base features as
    # a one-batch ingest, and blocks come in sorted fridge-id order.
    def readings(fridge):
        return sawtooth_readings(fridge, 40, ["S0"] * 40)

    setpoints = Setpoints(3.0, 1.0)
    names = ("timestamp", "air_on_temperature", "air_off_temperature", "defrost_state")
    f0 = readings("F0")
    with open_store(str(tmp_path / "one")) as store:
        pipelines.ingest_records(store, f0, setpoints)
        (want,) = pipelines.telemetry_blocks(store, names).values()
    with open_store(str(tmp_path / "two")) as store:
        pipelines.ingest_records(store, readings("F1"), setpoints)
        pipelines.ingest_records(store, f0[25:], setpoints)
        pipelines.ingest_records(store, f0[:25], setpoints)
        blocks = pipelines.telemetry_blocks(store, names)
    assert list(blocks) == ["F0", "F1"]
    got = blocks["F0"]
    assert got.timestamps.tolist() == f0.timestamps
    assert got.features.tobytes() == want.features.tobytes()
    assert got.defrost.tobytes() == want.defrost.tobytes()
    assert got.store_ids == want.store_ids


def blocks_through_group_match_sort(store, feature_names) -> dict:
    """The former telemetry_blocks, kept as the reference: a $group for the
    fridge ids, then a $match and a $sort per fridge, each aggregate
    returning copies."""
    groups = store.aggregate(pipelines.TELEMETRY, [{"$group": {"_id": "$fridge_id"}}])
    blocks = {}
    for fid in sorted(g["_id"] for g in groups):
        docs = store.aggregate(
            pipelines.TELEMETRY,
            [{"$match": {"fridge_id": fid}}, {"$sort": {"timestamp": 1}}],
        )
        blocks.update(fridge_series([document_columns(docs, feature_names)], feature_names))
    return blocks


def test_telemetry_blocks_match_the_group_match_sort_path(tmp_path):
    # Interleaved fridges in out-of-order batches, int and float timestamps
    # (some equal across types, so the sort's stability shows) and odd
    # feature values.
    rng = random.Random(5)
    docs = []
    for i in range(400):
        fid = rng.choice(["F2", "F0", "F10", "F1"])
        stamp = rng.choice([60 * i, 60.0 * i, 60 * (i - i % 3), 60.5 * (i % 50)])
        docs.append({
            "_id": f"{fid}:{i}", "fridge_id": fid, "store_id": rng.choice(["S0", "S1", None]),
            "timestamp": stamp, "defrost_state": rng.choice([0, 1]),
            "air_on_temperature": rng.choice([rng.uniform(-5, 5), 3, None, "warm", True]),
            "air_off_temperature": rng.uniform(-5, 5),
            "derived": rng.choice([{"air_on_diff": rng.uniform(-1, 1)}, {}]),
            "extra": rng.choice([{"power_kw": 2}, {"power_kw": "x"}, {}]),
        })
    batches = [docs[i:i + 37] for i in range(0, len(docs), 37)]
    rng.shuffle(batches)
    with open_store(str(tmp_path / "s")) as store:
        for batch in batches:
            store.insert_many(pipelines.TELEMETRY, batch)
    names = ("air_on_temperature", "air_off_temperature", "air_on_diff", "power_kw")
    with open_store(str(tmp_path / "s"), read_only=True) as store:
        got = pipelines.telemetry_blocks(store, names)
    with open_store(str(tmp_path / "s"), read_only=True) as store:
        want = blocks_through_group_match_sort(store, names)
    assert list(got) == list(want) == ["F0", "F1", "F10", "F2"]
    assert np.isnan(want["F0"].features).any()
    for fid, block in want.items():
        assert got[fid].fridge_id == fid
        assert got[fid].feature_names == block.feature_names
        for field in ("timestamps", "defrost", "features"):
            assert getattr(got[fid], field).tobytes() == getattr(block, field).tobytes()
        assert got[fid].store_ids == block.store_ids


def test_telemetry_blocks_read_the_same_at_any_width(tmp_path, monkeypatch):
    # Four fridges ingested in out-of-order batches, then one fridge with
    # int timestamps, out of order and with ties, stored last: at width 2
    # only the second range holds int timestamps.
    import concurrent.futures
    import threading

    setpoints = Setpoints(3.0, 1.0)
    with open_store(str(tmp_path / "s")) as store:
        for fid in ("F2", "F0", "F10", "F1"):
            records = sawtooth_readings(fid, 60, [f"S{i % 3}" for i in range(60)],
                                        {"power_kw": [i % 4 for i in range(60)]})
            pipelines.ingest_records(store, records[30:], setpoints)
            pipelines.ingest_records(store, records[:30], setpoints)
        ints = [0, 60, 30, 45, 15, 0, 30]
        store.insert_many(pipelines.TELEMETRY, [
            {"_id": f"F9:{i}", "fridge_id": "F9", "store_id": None, "timestamp": stamp,
             "defrost_state": 0, "air_on_temperature": float(i), "air_off_temperature": 2.0}
            for i, stamp in enumerate(ints)])
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    names = ("air_on_temperature", "air_off_temperature", "air_on_diff", "power_kw")

    def read(width):
        with open_store(str(tmp_path / "s")) as store:
            blocks = pipelines.telemetry_blocks(store, names, width)
        return [(fid, b.fridge_id, b.feature_names, b.timestamps.tobytes(), b.defrost.tobytes(),
                 b.features.tobytes(), b.store_ids) for fid, b in blocks.items()]

    one = read(1)
    assert pools == []
    two = read(2)
    assert len(pools) == 1
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        two_threaded = read(2)
    finally:
        stop.set()
        other.join()
    assert len(pools) == 1
    with open_store(str(tmp_path / "s"), read_only=True) as store:
        want = blocks_through_group_match_sort(store, names)
    assert [fid for fid, *_ in one] == ["F0", "F1", "F10", "F2", "F9"] == list(want)
    assert one == two == two_threaded
    assert [b.timestamps.tobytes() for b in want.values()] == [row[3] for row in one]


def test_telemetry_blocks_fail_as_a_serial_read_does(tmp_path):
    # The failing reading is stored last, so at width 2 a worker meets it.
    failures = [(KeyError, "timestamp", {})] + [
        (TypeError, f"fridge 'F1': timestamp {stamp!r} is not a number", {"timestamp": stamp})
        for stamp in (None, True, "45")]
    for k, (error, message, last) in enumerate(failures):
        with open_store(str(tmp_path / f"s{k}")) as store:
            store.insert_many(pipelines.TELEMETRY, [
                {"_id": f"F0:{i}", "fridge_id": "F0", "timestamp": 60.0 * i,
                 "defrost_state": 0} for i in range(20)]
                + [{"_id": "F1:late", "fridge_id": "F1", "defrost_state": 0, **last}])
            raised = []
            for width in (1, 2):
                with pytest.raises(error) as info:
                    pipelines.telemetry_blocks(store, ("timestamp",), width)
                raised.append(str(info.value))
            assert raised[0] == raised[1] and message in raised[0]


def test_insert_new_checks_a_batch_in_one_call(tmp_path, monkeypatch):
    from coldflow.docstore import DocumentStore

    checks = []
    real_absent = DocumentStore.absent

    def counting_absent(self, collection, ids):
        checks.append(list(ids))
        return real_absent(self, collection, ids)

    monkeypatch.setattr(DocumentStore, "absent", counting_absent)
    with open_store(str(tmp_path / "s")) as store:
        assert insert_new(store, "t", [{"_id": "a"}, {"_id": "b"}]) == (2, 0)
        assert insert_new(store, "t", [{"_id": "c"}, {"_id": "a"}, {"_id": "d"}]) == (2, 1)
        assert [doc["_id"] for doc in store.find_all("t")] == ["a", "b", "c", "d"]
    assert checks == [["a", "b"], ["c", "a", "d"]]


def test_wrangle_leaves_stored_telemetry_unchanged(project):
    path, cfg = project
    with open_store(path) as store:
        before = [canonical_dumps(doc) for doc in store.find_all(pipelines.TELEMETRY)]
        pipelines.wrangle(store, cfg)
        after = [canonical_dumps(doc) for doc in store.find_all(pipelines.TELEMETRY)]
    assert before and after == before


def test_wrangle_dsr_event_level_split(project):
    path, cfg = project
    with open_store(path, read_only=True) as store:
        docs = store.find_all("dsr_examples")
        assert docs
        by_event = {}
        for doc in docs:
            by_event.setdefault(doc["event_id"], []).append(doc)
        for event_docs in by_event.values():
            # Both leads of one defrost event exist and share a split.
            assert sorted(d["lead_seconds"] for d in event_docs) == [0.0, 120.0]
            assert len({d["split"] for d in event_docs}) == 1
        splits = {d["split"] for d in docs}
        assert splits == {"train", "test"}
        for doc in docs:
            assert doc["_id"] == (f"dsr:{doc['fridge_id']}:"
                                  f"{doc['defrost_start_ts']!r}:"
                                  f"{int(doc['lead_seconds'])}")


def test_wrangle_is_idempotent(project):
    path, cfg = project
    with open_store(path) as store:
        summary = pipelines.wrangle(store, cfg)
        assert summary["dsr"]["inserted"] == 0
        assert summary["dsr"]["skipped"] == summary["dsr"]["examples"]
        assert summary["faults"]["inserted"] == 0
        assert summary["faults"]["skipped"] == summary["faults"]["examples"]


def test_wrangle_faults_labels_and_split(project):
    path, cfg = project
    with open_store(path, read_only=True) as store:
        docs = store.find_all("fault_examples")
        labels = {d["label"] for d in docs}
        assert labels == {"fault", "no_fault"}
        assert all(d["split"] in {"train", "test"} for d in docs)
        assert all(len(d["observed"]) == cfg["faults"]["window_len"] for d in docs)


def test_learn_writes_model_index(project):
    path, cfg = project
    with open_store(path, read_only=True) as store:
        doc = store.get("model_index", "model:dsr0")
        assert doc["task"] == "regression"
        assert doc["cell"] == "rnn"
        assert len(doc["loss_history"]) == 3
        # Data clock: created is the newest training window, never wall time.
        train_windows = [
            d["window_end_ts"] for d in store.aggregate("dsr_examples", [
                {"$match": {"split": "train", "lead_seconds": 0.0}}])
        ]
        assert doc["created"] == max(train_windows)
        meta, weights = store.get_model(doc["model_id"])
        assert meta["name"] == "dsr0"
        assert len(weights) > 0


def test_infer_writes_safe_off_margin(project):
    path, cfg = project
    with open_store(path, read_only=True) as store:
        preds = store.aggregate("predictions", [
            {"$match": {"model_name": "dsr0"}}])
        assert preds
        for doc in preds:
            assert doc["split"] == "test"
            assert doc["predicted_safe_off_s"] == pytest.approx(
                doc["predicted_seconds"] - doc["lead_seconds"])
            assert doc["_id"] == f"pred:dsr0:{doc['example_id']}"


def test_select_candidates_matches_exhaustive_minimum():
    rng = random.Random(404)
    for trial in range(100):
        n = rng.randint(1, 10)
        candidates = [
            {"fridge_id": f"F{i:03d}",
             "power_kw": round(rng.uniform(0.2, 5.0), 3),
             "predicted_safe_off_s": round(rng.uniform(100.0, 4000.0), 1)}
            for i in range(n)
        ]
        target = round(rng.uniform(0.5, 12.0), 3)
        got = select_candidates(candidates, target)
        best = None
        for k in range(n + 1):
            for combo in itertools.combinations(candidates, k):
                if sum(c["power_kw"] for c in combo) >= target:
                    best = k
                    break
            if best is not None:
                break
        assert got.feasible == (best is not None)
        if best is not None:
            assert len(got.chosen) == best
            assert got.total_kw >= target
        else:
            assert len(got.chosen) == n


def test_select_dsr_latest_window_and_floor(tmp_path):
    cfg = validate_config({
        "seed": 1,
        "select": {"model": "m", "target_kw": 2.5, "min_safe_off_s": 100.0,
                   "split": "test", "tag": "t"},
    })
    with open_store(str(tmp_path / "s")) as store:
        store.insert_many("fridge_ratings", [
            {"_id": "rating:A", "fridge_id": "A", "peak_power_kw": 3.0},
            {"_id": "rating:B", "fridge_id": "B", "peak_power_kw": 2.0},
            {"_id": "rating:C", "fridge_id": "C", "peak_power_kw": 1.0},
        ])
        base = {"model_name": "m", "split": "test", "example_id": "x"}
        store.insert_many("predictions", [
            dict(base, _id="p1", fridge_id="A", window_end_ts=100.0,
                 predicted_safe_off_s=500.0),
            # Latest window wins, so A's newest (too-short) margin excludes it.
            dict(base, _id="p2", fridge_id="A", window_end_ts=200.0,
                 predicted_safe_off_s=50.0),
            dict(base, _id="p3", fridge_id="B", window_end_ts=100.0,
                 predicted_safe_off_s=400.0),
            dict(base, _id="p4", fridge_id="C", window_end_ts=150.0,
                 predicted_safe_off_s=800.0),
        ])
        doc = pipelines.select_dsr(store, cfg)
    assert [c["fridge_id"] for c in doc["chosen"]] == ["B", "C"]
    assert doc["total_kw"] == pytest.approx(3.0)
    assert doc["feasible"] is True
    assert doc["candidates_considered"] == 2


SELECT_CFG = {"model": "m", "target_kw": 100.0, "min_safe_off_s": 0.0,
              "split": "test", "tag": "t"}
SETPOINTS = Setpoints(3.0, 1.0)


def power_readings(fridge, power, start=0):
    """One reading per minute from ``start``, power_kw from the list; a
    list of None gives readings without a power channel."""
    n = len(power)
    extra = {} if power == [None] * n else {"power_kw": list(power)}
    return Readings([60.0 * (start + i) for i in range(n)], [fridge] * n, ["S0"] * n,
                    [3.0] * n, [1.0] * n, [0] * n, extra)


def predict(store, *fridges):
    store.insert_many("predictions", [
        {"_id": f"p:{fid}", "model_name": "m", "split": "test", "example_id": "x",
         "fridge_id": fid, "window_end_ts": 1.0, "predicted_safe_off_s": 500.0}
        for fid in fridges
    ])


def chosen_power(store) -> dict:
    cfg = validate_config({"seed": 1, "select": SELECT_CFG})
    return {c["fridge_id"]: c["power_kw"]
            for c in pipelines.select_dsr(store, cfg)["chosen"]}


def test_ratings_take_the_peak_over_batches_and_a_grown_file(tmp_path):
    rng = random.Random(8)
    power = [round(rng.uniform(0.0, 3.0), 6) for _ in range(60)]
    power[33] = 3.5   # peak of the second batch
    power[51] = 4.25  # only in the grown file
    with open_store(str(tmp_path / "s")) as store:
        predict(store, "F0")
        pipelines.ingest_records(store, power_readings("F0", power[:20]), SETPOINTS)
        assert chosen_power(store) == {"F0": max(power[:20])}
        pipelines.ingest_records(store, power_readings("F0", power[20:40], start=20),
                                 SETPOINTS)
        assert chosen_power(store) == {"F0": 3.5}
        inserted, skipped = pipelines.ingest_records(
            store, power_readings("F0", power), SETPOINTS)
        assert (inserted, skipped) == (20, 40)
        assert chosen_power(store) == {"F0": 4.25}
        assert sorted(d["_id"] for d in store.find_all("fridge_ratings")) == [
            "rating:F0:0.0:1140.0:20",
            "rating:F0:0.0:3540.0:60",
            "rating:F0:1200.0:2340.0:20",
        ]


def test_reingesting_identical_data_writes_nothing(tmp_path):
    path = tmp_path / "s"
    batches = [power_readings("F0", [1.5, 2.5, 0.0]), power_readings("F1", [None, None]),
               power_readings("F1", [0.5], start=2)]

    def ingest():
        with open_store(str(path)) as store:
            for batch in batches:
                pipelines.ingest_records(store, batch, SETPOINTS)
            pipelines.ingest_workorders(store, [("fault", 30.0)])
        return {f.name: f.read_bytes() for f in path.glob("*.ndjson")}

    first = ingest()
    assert {"telemetry.ndjson", "fridge_ratings.ndjson"} <= set(first)
    assert ingest() == first


def test_select_dsr_never_parses_telemetry(tmp_path):
    with open_store(str(tmp_path / "s")) as store:
        pipelines.ingest_records(store, power_readings("F0", [1.0, 2.0]), SETPOINTS)
        predict(store, "F0")
    (tmp_path / "s" / "telemetry.ndjson").write_text("{not json\n")
    with open_store(str(tmp_path / "s")) as store:
        assert chosen_power(store) == {"F0": 2.0}


def test_select_dsr_fridge_without_numeric_power_is_zero_kw(tmp_path):
    with open_store(str(tmp_path / "s")) as store:
        # No power channel, then an empty cell, a text value and a bool:
        # none is a number.
        pipelines.ingest_records(store, power_readings("F0", [None]), SETPOINTS)
        pipelines.ingest_records(store, power_readings("F0", ["", "n/a", True], start=1),
                                 SETPOINTS)
        pipelines.ingest_records(store, power_readings("F1", [2.0]), SETPOINTS)
        predict(store, "F0", "F1")
        assert [d["peak_power_kw"] for d in store.find_all("fridge_ratings")
                if d["fridge_id"] == "F0"] == [None, None]
        assert chosen_power(store) == {"F0": 0.0, "F1": 2.0}


def test_select_dsr_unrated_fridge_raises(tmp_path):
    with open_store(str(tmp_path / "s")) as store:
        pipelines.ingest_records(store, power_readings("F0", [1.0]), SETPOINTS)
        predict(store, "F0", "F7")
        with pytest.raises(PipelineError, match=r"F7.*coldflow ingest"):
            chosen_power(store)


def test_report_baseline_and_improvement(project):
    path, cfg = project
    with open_store(path, read_only=True) as store:
        report = store.get("reports", "report:nightly")
        row = report["rows"][0]
        preds = store.aggregate("predictions", [
            {"$match": {"model_name": "dsr0", "split": "test"}}])
        train = store.aggregate("dsr_examples", [
            {"$match": {"split": "train", "lead_seconds": 0.0}}])
        train_mean = sum(d["target_seconds"] for d in train) / len(train)
        mae = sum(abs(p["predicted_seconds"] - p["target_seconds"])
                  for p in preds) / len(preds)
        baseline = sum(abs(p["target_seconds"] - train_mean)
                       for p in preds) / len(preds)
        assert row["examples"] == len(preds)
        assert row["mae_s"] == pytest.approx(mae)
        assert row["baseline_mae_s"] == pytest.approx(baseline)
        assert row["improvement"] == pytest.approx(1.0 - mae / baseline)
        assert report["created"] == max(p["window_end_ts"] for p in preds)
        assert "dsr0" in report["table"]
        assert report["selection"]["_id"] == "selection:evening"


def test_build_stages_widths_and_order():
    cfg = small_config()
    stages = build_stages(cfg)
    names = [s.name for s in stages]
    assert names == ["wrangle", "learn", "infer", "serve"]
    # Builtin stages run serially whatever the config's pool_width, which
    # sizes only ingest.
    assert cfg["pool_width"] == 2
    assert all(s.pool_width == 1 for s in stages)
    # One wrangle task cuts both kinds of example.
    assert [x.name for x in stages[0].scripts] == ["wrangle_dsr"]


def wrangled_one_model_store(tmp_path):
    """A config file naming one small model, and a store simulated and
    wrangled with it; returns (config path, config, store path)."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 11,
        "wrangle": {"window_len": 16, "leads": [0.0], "target_band_s": [300.0, 8100.0]},
        "simulate": {"n_fridges": 3, "days": 4},
        "learn": [{"name": "m", "task": "regression", "cell": "rnn",
                   "layers": 1, "hidden": 6, "epochs": 2}],
        "infer": [{"model": "m", "split": "test"}],
    }))
    cfg = load_config(str(path))
    store_path = tmp_path / "builtins"
    with open_store(str(store_path)) as store:
        pipelines.simulate_into_store(store, cfg)
        pipelines.wrangle(store, cfg)
    return path, cfg, store_path


def test_learn_and_infer_builtins_return_their_task_results(tmp_path):
    path, cfg, builtins = wrangled_one_model_store(tmp_path)
    by_cli = tmp_path / "by-cli"
    shutil.copytree(builtins, by_cli)
    assert main(["learn", "--config", str(path), "--store", str(by_cli)]) == 0

    results = {}
    for stage in build_stages(cfg):
        if stage.name not in ("learn", "infer"):
            continue
        for index, spec in enumerate(stage.scripts):
            ctx = WorkerContext(store_path=str(builtins), config_path=None, stage=stage.name,
                                index=index, total=len(stage.scripts), width=1)
            results[spec.name] = pipelines.REGISTRY[spec.builtin](ctx, **spec.args)
    assert list(results) == ["learn:m", "infer:m"]
    with open_store(str(builtins), read_only=True) as store:
        assert results["learn:m"] == store.get("model_index", "model:m")
        n = len(store.find_all("predictions"))
    assert n > 0
    assert results["infer:m"] == {"model": "m", "split": "test", "predictions": n,
                                  "inserted": n, "skipped": 0}
    for name in ("model_index.ndjson", "models.ndjson"):
        assert (builtins / name).read_bytes() == (by_cli / name).read_bytes()


def test_learn_after_a_torn_model_line_stores_the_clean_model(tmp_path):
    # A crash inside put_model's one append leaves half a line: the next
    # writer truncates it, and learn stores the same model id and bytes.
    path, cfg, clean = wrangled_one_model_store(tmp_path)
    torn = tmp_path / "torn"
    shutil.copytree(clean, torn)
    assert main(["learn", "--config", str(path), "--store", str(clean)]) == 0
    line = (clean / "models.ndjson").read_bytes()
    assert line.count(b"\n") == 1 and not (clean / "model_chunks.ndjson").exists()
    (torn / "models.ndjson").write_bytes(line[:len(line) // 2])
    assert main(["learn", "--config", str(path), "--store", str(torn)]) == 0
    for name in ("models.ndjson", "model_index.ndjson"):
        assert (torn / name).read_bytes() == (clean / name).read_bytes()


def test_wrangle_dsr_empty_store_raises(tmp_path):
    cfg = validate_config({"seed": 0})
    with open_store(str(tmp_path / "s")) as store:
        with pytest.raises(PipelineError):
            pipelines.wrangle(store, cfg)


def test_custom_external_stage_runs_last(tmp_path):
    marker = tmp_path / "marker.txt"
    script = tmp_path / "hook.sh"
    script.write_text("#!/bin/sh\nprintf '%s %s' \"$STAGE\" \"$STORE_PATH\" > "
                      f"{marker}\n")
    script.chmod(0o755)
    cfg = validate_config({
        "seed": 2,
        "wrangle": {"window_len": 12, "target_band_s": [300.0, 8100.0]},
        "simulate": {"n_fridges": 2, "days": 2},
        "stages": [{"name": "post",
                    "scripts": [{"name": "hook", "command": [str(script)]}]}],
    })
    store = str(tmp_path / "store")
    reports, ok = run_project(store, cfg)
    assert ok, [e.error for r in reports for e in r.failures()]
    assert [r.stage for r in reports] == ["wrangle", "post"]
    assert marker.read_text() == f"post {store}"


def test_run_twice_reports_byte_identical(tmp_path):
    cfg = {
        "seed": 5,
        "pool_width": 2,
        "wrangle": {"window_len": 12, "leads": [0.0],
                    "target_band_s": [300.0, 8100.0]},
        "simulate": {"n_fridges": 3, "days": 4},
        "learn": [{"name": "m", "task": "regression", "cell": "rnn",
                   "layers": 1, "hidden": 6, "epochs": 2}],
        "infer": [{"model": "m", "split": "test"}],
        "report": {"models": ["m"], "tag": "r"},
    }

    def run_once(sub):
        path = str(tmp_path / sub)
        reports, ok = run_project(path, validate_config(dict(cfg)))
        assert ok, [e.error for r in reports for e in r.failures()]
        with open_store(path, read_only=True) as store:
            docs = sorted(store.find_all("reports"), key=lambda d: d["_id"])
            return canonical_dumps(docs).encode("utf-8")

    assert run_once("a") == run_once("b")


def test_run_twice_stores_byte_identical(tmp_path):
    # Two learn tasks in a width-2 config: the learn stage still trains
    # them one at a time in config order, so every file, the model files
    # included, holds the same bytes on a rerun.
    cfg = small_config(learn=(DSR0, dict(DSR0, name="dsr120", lead_seconds=120.0)))
    assert cfg["pool_width"] == 2
    stores = []
    for sub in ("a", "b"):
        path = tmp_path / sub
        reports, ok = run_project(str(path), cfg)
        assert ok, [e.error for r in reports for e in r.failures()]
        stores.append({f.name: f.read_bytes() for f in path.glob("*.ndjson")})
    first, second = stores
    assert {"dsr_examples.ndjson", "fault_examples.ndjson", "models.ndjson",
            "model_index.ndjson"} <= set(first)
    assert first == second
