"""CLI exit codes, env-var resolution, and the CSV round trip."""

import itertools
import json
import multiprocessing
import os

import pytest
from naive_csv import rows_of
from test_telemetry import documents_through_derived_records

from coldflow.cli import DEFAULT_TARGET_OFF, DEFAULT_TARGET_ON, main
from coldflow.docstore import canonical_dumps, open_store
from coldflow.fridgesim import START_TS, WORKORDER_PATTERNS
from coldflow.pipelines import ingest_workorders, simulate_into_store
from coldflow.runconfig import load_config
from coldflow.telemetry import Setpoints, parse_telemetry_csv


def write_config(tmp_path, extra=None, name="run.json"):
    cfg = {
        "seed": 11,
        "pool_width": 2,
        "wrangle": {"window_len": 16, "leads": [0.0],
                    "target_band_s": [300.0, 8100.0]},
        "simulate": {"n_fridges": 3, "days": 4},
        "learn": [{"name": "m", "task": "regression", "cell": "rnn",
                   "layers": 1, "hidden": 6, "epochs": 2}],
        "infer": [{"model": "m", "split": "test"}],
        "report": {"models": ["m"], "tag": "r"},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_config_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate-config", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "wrangle -> learn -> infer -> serve" in out


def test_validate_config_bad_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert main(["validate-config", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_exit_2(capsys):
    assert main(["run"]) == 2
    assert "needs --config" in capsys.readouterr().err


def test_missing_store_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["wrangle", "--config", path]) == 2
    assert "no store given" in capsys.readouterr().err


def test_task_failure_exit_1(tmp_path, capsys):
    # Wrangling an empty store is a task failure, not a config error.
    path = write_config(tmp_path)
    code = main(["wrangle", "--config", path,
                 "--store", str(tmp_path / "empty_store")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_then_stepwise_commands(tmp_path, capsys):
    config = write_config(tmp_path, extra={
        "store_path": str(tmp_path / "store"),
        "select": {"model": "m", "target_kw": 0.5, "tag": "t"},
        "report": {"models": ["m"], "tag": "r", "selection_tag": "t"},
    })
    assert main(["run", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "stage wrangle: ok" in out
    assert "stage serve: ok" in out
    assert "m " in out

    with open_store(str(tmp_path / "store"), read_only=True) as store:
        assert store.get("reports", "report:r")["rows"]

    # Stepwise commands are idempotent over the same store.
    assert main(["select", "--config", config]) == 0
    assert main(["report", "--config", config]) == 0
    assert "improvement" in capsys.readouterr().out


def test_wrangle_prints_fault_rejects_by_reason(tmp_path, capsys):
    # Of four work orders, two give fault windows; one lands an hour into
    # the data, too early for a window a horizon before it, and one names
    # a fridge with no telemetry.
    config = write_config(tmp_path, extra={
        "faults": {"horizon_s": 21600.0, "window_len": 16, "test_fraction": 0.25,
                   "val_fraction": 0.25},
    })
    store = str(tmp_path / "store")
    day = 86400.0
    with open_store(store) as handle:
        simulate_into_store(handle, load_config(config))
        ingest_workorders(handle, [("store S000 fridge F0000 icepack fault", START_TS + 2 * day),
                                   ("store S000 fridge F0002 icepack fault", START_TS + 3 * day),
                                   ("store S000 fridge F0001 icepack fault", START_TS + 3600.0),
                                   ("store S009 fridge F0999 icepack fault", START_TS + day)])
    assert main(["wrangle", "--config", config, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "'positives': 2, 'negatives': 2, 'skipped_workorders': 0, 'unmatched_fridges': 1, " \
        "'positive_rejects': {'insufficient_history': 1}," in out


def test_simulate_ingest_csv_round_trip(tmp_path, capsys):
    config = write_config(tmp_path, extra={
        "simulate": {"n_fridges": 2, "days": 4,
                     "faults": {"count": 2, "noise_workorders": 1}},
        "faults": {"patterns": WORKORDER_PATTERNS, "horizon_s": 21600.0,
                   "window_len": 16, "test_fraction": 0.3, "val_fraction": 0.3},
    })
    out_dir = tmp_path / "csv"
    assert main(["simulate", "--config", config, "--out", str(out_dir)]) == 0
    csvs = sorted((out_dir / "telemetry").glob("*.csv"))
    assert len(csvs) == 2
    assert (out_dir / "setpoints.json").is_file()
    assert (out_dir / "workorders.json").is_file()

    store = tmp_path / "store"
    assert main(["ingest", "--from", str(out_dir), "--store", str(store)]) == 0
    summary = capsys.readouterr().out
    assert "ingested" in summary
    with open_store(str(store), read_only=True) as handle:
        rows = handle.aggregate("telemetry", [
            {"$group": {"_id": "$fridge_id", "n": {"$count": {}}}},
            {"$sort": {"_id": 1}},
        ])
        assert len(rows) == 2
        # Both fleets carry an injected fault, and a faulted stream stops
        # at the fault, so each fridge has somewhat under 4 full days.
        assert all(3000 < r["n"] <= 5760 for r in rows)
        assert len(handle.find_all("workorders")) == 3

    # Ingest is write-once: a second pass adds nothing.
    assert main(["ingest", "--from", str(out_dir), "--store", str(store)]) == 0
    assert "ingested 0 telemetry records" in capsys.readouterr().out


def test_simulating_into_the_store_matches_simulate_then_ingest(tmp_path, capsys):
    # A small faulted fleet with unrelated work orders, stored both ways.
    path = write_config(tmp_path, extra={
        "simulate": {"n_fridges": 3, "days": 4,
                     "faults": {"count": 2, "noise_workorders": 2}}})
    with open_store(str(tmp_path / "direct")) as store:
        summary = simulate_into_store(store, load_config(path))
    assert summary["faults"] == 2
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "csv")]) == 0
    assert main(["ingest", "--config", path, "--store", str(tmp_path / "via-csv"),
                 "--from", str(tmp_path / "csv")]) == 0
    assert f"ingested {summary['records']} telemetry records and 4 work orders" \
        in capsys.readouterr().out
    for name in ("telemetry.ndjson", "fridge_ratings.ndjson", "workorders.ndjson"):
        direct = (tmp_path / "direct" / name).read_bytes()
        assert direct
        assert (tmp_path / "via-csv" / name).read_bytes() == direct


@pytest.mark.parametrize("name, content, entry", [
    ("setpoints.json", {"F0": [True, 1]}, "'F0' is [true, 1]"),
    ("setpoints.json", {"F1": [4.0, 1.0], "F0": [4.0]}, "'F0' is [4.0]"),
    ("setpoints.json", {"F0": [4.0, "1.5"]}, "'F0' is [4.0, \"1.5\"]"),
    ("setpoints.json", {"F0": [float("nan"), 1.0]}, "'F0' is [NaN, 1.0]"),
    ("setpoints.json", [[4.0, 1.0]], "expected a JSON dict"),
    ("workorders.json", [["store S000 fridge F0 icepack fault", "1500086400"]],
     "0 is [\"store S000 fridge F0 icepack fault\", \"1500086400\"]"),
    ("workorders.json", [["mop", 1.0], [7, 2.0]], "1 is [7, 2.0]"),
    ("workorders.json", [["mop", 1.0], ["leak", False]], "1 is [\"leak\", false]"),
    ("workorders.json", [["mop", float("inf")]], "0 is [\"mop\", Infinity]"),
    ("workorders.json", {"mop": 1.0}, "expected a JSON list"),
])
def test_ingest_refuses_a_bad_sidecar_before_storing_anything(tmp_path, capsys, name,
                                                              content, entry):
    data = csv_fleet(tmp_path)
    (data / name).write_text(json.dumps(content))
    code, store = ingest_at_width(tmp_path, data, 1)
    assert code == 1
    err = capsys.readouterr().err
    assert str(data / name) in err and entry in err
    assert not any(store.glob("*.ndjson"))


def test_ingest_keeps_int_setpoints_and_timestamps_as_ints(tmp_path, capsys):
    data = csv_fleet(tmp_path)
    (data / "setpoints.json").write_text(json.dumps({"F0": [4, 1]}))
    (data / "workorders.json").write_text(json.dumps([["mop", 1500000000]]))
    code, store = ingest_at_width(tmp_path, data, 1)
    assert code == 0
    telemetry = (store / "telemetry.ndjson").read_text()
    assert '"targetTemp_off":1,' in telemetry and '"targetTemp_on":4,' in telemetry
    assert '"timestamp":1500000000}' in (store / "workorders.ndjson").read_text()


def test_store_path_env_honored(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    monkeypatch.setenv("STORE_PATH", str(tmp_path / "env_store"))
    monkeypatch.setenv("CONFIG_PATH", config)
    assert main(["run"]) == 0
    assert (tmp_path / "env_store").is_dir()


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    assert main(["run", "--config", config,
                 "--store", str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["run", "--config", config,
                 "--store", str(tmp_path / "b"), "--seed", "6"]) == 0
    docs = {}
    for sub in ("a", "b"):
        with open_store(str(tmp_path / sub), read_only=True) as store:
            docs[sub] = store.find_all("dsr_examples")
    ids_a = {d["_id"] for d in docs["a"]}
    ids_b = {d["_id"] for d in docs["b"]}
    # Different seeds draw different fleets, so the example ids differ.
    assert ids_a != ids_b


CSV_HEADER = "TimeStamp,fridgeId,storeId,airOnTemp,airOffTemp,Def,power_kw\n"


def csv_rows(fridge, n, power):
    return [f"{1500000000 + 60 * i}.0,{fridge},S0,{4.0 + 0.25 * (i % 7)},"
            f"{1.0 - 0.125 * (i % 5)},{int(i % 9 == 0)},{power}\n" for i in range(n)]


def csv_fleet(tmp_path):
    """Five CSVs, more than any pool's workers: b.csv holds two fridges and
    d.csv has two rejected rows."""
    tele = tmp_path / "data" / "telemetry"
    tele.mkdir(parents=True)
    files = {name: csv_rows(f"F{k}", 20 + k, 1.0 + k) for k, name in
             enumerate(["a.csv", "b.csv", "c.csv", "d.csv", "e.csv"])}
    files["b.csv"] += csv_rows("F9", 12, 0.5)
    files["d.csv"][3:3] = ["later,F3,S0,4.0,1.0,0,1.0\n", "1500009999.0,F3,S0,4.0,1.0,2,1.0\n"]
    for name, rows in files.items():
        (tele / name).write_text(CSV_HEADER + "".join(rows))
    (tmp_path / "data" / "setpoints.json").write_text(json.dumps({"F0": [4.5, 1.5]}))
    return tmp_path / "data"


def reference_telemetry(data) -> bytes:
    """The telemetry file an ingest of ``data`` writes: each CSV's rows of
    one fridge, in file order, through the reference document path."""
    sidecar = json.loads((data / "setpoints.json").read_text())
    lines = []
    for path in sorted((data / "telemetry").glob("*.csv")):
        readings, _ = parse_telemetry_csv(path.read_text())
        for fid, group in itertools.groupby(rows_of(readings), key=lambda r: r.fridge_id):
            setpoints = Setpoints(*sidecar.get(fid, (DEFAULT_TARGET_ON, DEFAULT_TARGET_OFF)))
            lines += [canonical_dumps(doc) + "\n"
                      for doc in documents_through_derived_records(list(group), setpoints)]
    return "".join(lines).encode("utf-8")


def ingest_at_width(tmp_path, data, width):
    config = write_config(tmp_path, extra={"pool_width": width}, name=f"w{width}.json")
    store = tmp_path / f"store-w{width}"
    code = main(["ingest", "--config", config, "--store", str(store), "--from", str(data)])
    return code, store


def test_ingest_stores_the_same_bytes_at_any_pool_width(tmp_path, capsys):
    data = csv_fleet(tmp_path)
    stored, summaries = [], []
    for width in (1, 2, 3):
        code, store = ingest_at_width(tmp_path, data, width)
        assert code == 0
        summaries.append(capsys.readouterr().out.replace(str(store), "STORE"))
        stored.append({name: (store / name).read_bytes()
                       for name in ("telemetry.ndjson", "fridge_ratings.ndjson")})
        assert multiprocessing.active_children() == []
    assert stored[1] == stored[0] and stored[2] == stored[0]
    assert stored[0]["telemetry.ndjson"] == reference_telemetry(data)
    assert summaries[1] == summaries[0] and summaries[2] == summaries[0]
    assert "ingested 122 telemetry records and 0 work orders (2 rejected rows)" \
        in summaries[0]
    assert len(stored[0]["fridge_ratings.ndjson"].splitlines()) == 6


@pytest.mark.parametrize("width", [2, 3])
def test_ingest_failing_in_a_worker_stops_at_that_file(tmp_path, capsys, width):
    data = csv_fleet(tmp_path)
    # b.csv is the second file, so a worker parses it at any width above 1.
    (data / "telemetry" / "b.csv").write_text("TimeStamp,fridgeId,storeId,Def\n1.0,F1,S0,0\n")
    code, serial = ingest_at_width(tmp_path, data, 1)
    assert code == 1
    serial_err = capsys.readouterr().err
    assert f"{data / 'telemetry' / 'b.csv'}: required column 'airOnTemp'" in serial_err
    code, pooled = ingest_at_width(tmp_path, data, width)
    assert code == 1
    assert capsys.readouterr().err == serial_err
    assert multiprocessing.active_children() == []
    assert (pooled / "telemetry.ndjson").read_bytes() == \
        (serial / "telemetry.ndjson").read_bytes()
    with open_store(str(pooled), read_only=True) as store:
        assert {doc["fridge_id"] for doc in store.find_all("telemetry")} == {"F0"}


@pytest.mark.parametrize("content, message", [
    (CSV_HEADER.replace("airOnTemp", "airOnTemp,airOnTemp") + "1.0,F1,S0,3.0,9.0,1.0,0,1.0\n",
     "column 'airOnTemp' appears twice in the header"),
    (CSV_HEADER + "2.0,F1,S0,4.0,1.0,0,1.0\n1.0,F1,S0,4.0,1.0,0,1.0\n",
     "records out of order near fridge 'F1' t=1.0"),
], ids=["repeated-column", "unsorted"])
def test_ingest_names_the_csv_a_worker_failed_on(tmp_path, capsys, content, message):
    data = tmp_path / "data"
    (data / "telemetry").mkdir(parents=True)
    (data / "telemetry" / "a.csv").write_text(CSV_HEADER + "".join(csv_rows("F0", 20, 1.0)))
    alone = tmp_path / "alone"
    assert main(["ingest", "--store", str(alone), "--from", str(data)]) == 0
    bad = data / "telemetry" / "b.csv"
    bad.write_text(content)
    capsys.readouterr()
    code, store = ingest_at_width(tmp_path, data, 2)
    assert code == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    for name in ("telemetry.ndjson", "fridge_ratings.ndjson"):
        assert (store / name).read_bytes() == (alone / name).read_bytes()
