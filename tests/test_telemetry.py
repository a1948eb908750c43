"""CSV ingestion, derived features and document round trips."""

import copy
import itertools
import random

import pytest

import naive_csv
from naive_csv import Row, readings_of, rows_of

from coldflow.docstore import (
    DuplicateId,
    canonical_dumps,
    encode_documents,
    open_store,
    parse_document_line,
)
from coldflow.fridgesim import SimConfig, fleet_specs, plan_faults, simulate_fleet
from coldflow.telemetry import (
    MissingColumn,
    Setpoints,
    UnsortedInput,
    derive_features,
    parse_telemetry_csv,
)

# A single-unit logger dump: timestamped case temperatures, a handful of
# uninterpreted sensor channels, a defrost flag column, and a unit with no
# store.
BARN_CSV = """TimeStamp,airOnTemp,airOffTemp,foodTmp,shelfTmp,Def1,Def,fridgeId,storeId
1488990480.0,3.8,1.7,3.8,2.5,17.2,0,barn1,
1488990540.0,3.9,1.8,3.8,2.5,17.2,0,barn1,
1488990600.0,4.1,2.0,3.9,2.6,17.3,1,barn1,
"""

HEADER = "TimeStamp,airOnTemp,airOffTemp,Def,fridgeId,storeId"


def test_parse_single_unit_dump():
    readings, rejects = parse_telemetry_csv(BARN_CSV)
    assert rejects == []
    assert len(readings) == 3
    assert readings.timestamps[0] == 1488990480.0
    assert readings.air_on[0] == 3.8
    assert readings.air_off[0] == 1.7
    assert readings.defrost == [0, 0, 1]
    assert readings.fridge_ids == ["barn1"] * 3
    assert readings.store_ids == [None] * 3
    # Every other channel rides along untouched, in header order.
    assert list(readings.extra) == ["foodTmp", "shelfTmp", "Def1"]
    assert readings.extra["Def1"] == [17.2, 17.2, 17.3]
    assert readings.extra["foodTmp"][0] == 3.8


def test_parse_rejects_a_header_that_names_a_column_twice():
    for header in ("TimeStamp,airOnTemp,airOnTemp,airOffTemp,Def,fridgeId,storeId",
                   HEADER + ",power_kw,power_kw"):
        with pytest.raises(MissingColumn, match="column '(airOnTemp|power_kw)' appears twice"):
            parse_telemetry_csv(header + "\n1.0,3.0,9.0,1.0,0,A,S,2.0\n")


def test_bad_required_field_rejects_that_row_only():
    csv_text = HEADER + "\n1.0,3.5,1.0,0,A,\n2.0,abc,1.1,0,A,\n"
    readings, rejects = parse_telemetry_csv(csv_text)
    assert len(readings) == 1
    assert len(rejects) == 1
    assert rejects[0].row == 2
    assert "abc" in rejects[0].reason or "could not convert" in rejects[0].reason


def test_defrost_flag_must_be_binary():
    readings, rejects = parse_telemetry_csv(HEADER + "\n1.0,3.5,1.0,2,A,\n")
    assert len(readings) == 0
    assert rejects[0].row == 1


def test_missing_required_column_raises():
    with pytest.raises(MissingColumn, match="^empty CSV: no header row$"):
        parse_telemetry_csv("")
    # The first missing column in check order is named.
    with pytest.raises(MissingColumn, match="^required column 'airOffTemp' not in header$"):
        parse_telemetry_csv("TimeStamp,airOnTemp,fridgeId\n1,2,A\n")
    with pytest.raises(MissingColumn, match="^required column 'storeId' not in header$"):
        parse_telemetry_csv("TimeStamp,airOnTemp,airOffTemp,Def,fridgeId\n")


GOOD = ["1.5", " 2.25 ", "-3", "0", "1e3", "7.000000000000001"]
NON_FINITE = ["nan", "inf", " -Infinity", "NaN"]
UNPARSEABLE = ["", "abc", "1;5", "0x10", "--1"]
DEFROST = ["0", "1", " 1 ", "1.0", "2", "0.5", "-0", "1e0"]


def _csv_corpus(rng, header, rows=600):
    """CSV text over ``header``, a list of (column name, kind) pairs, mixing
    good rows with every kind of bad one."""
    def cell(kind):
        if kind == "defrost":
            return rng.choice(DEFROST)
        if kind == "fridge":
            return rng.choice(["F1", "F2", " F3 ", "", "  "])
        if kind == "store":
            return rng.choice(["S1", " S2", "", " "])
        if kind == "text":
            return rng.choice(["door open", "1.5", "", "inf", " 4 "])
        return rng.choice(GOOD)

    lines = [",".join(f" {name} " if i == 1 else name for i, (name, _) in enumerate(header))]
    for _ in range(rows):
        draw = rng.random()
        if draw < 0.05:
            lines.append(rng.choice(["", ",,,", " , ,", "   "]))
            continue
        row = [cell(kind) for _, kind in header]
        numbers = [i for i, (_, kind) in enumerate(header) if kind == "number"]
        if draw < 0.25:
            row[rng.choice(numbers)] = rng.choice(NON_FINITE + UNPARSEABLE)
        elif draw < 0.3:
            first, second = rng.sample(numbers, 2)
            row[first] = rng.choice(UNPARSEABLE)
            row[second] = rng.choice(NON_FINITE)
        elif draw < 0.38:
            row = row[:rng.randrange(1, len(row))]
        elif draw < 0.42:
            row += ["spare", " 9 "]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# The fleet columns in three orders: with numeric and text extras, as the
# simulator writes them, and with no extra at all.
CORPUS_HEADERS = [
    [("airOnTemp", "number"), ("TimeStamp", "number"), ("fridgeId", "fridge"),
     ("Def", "defrost"), ("power_kw", "number"), ("storeId", "store"),
     ("airOffTemp", "number"), ("note", "text")],
    [("TimeStamp", "number"), ("fridgeId", "fridge"), ("storeId", "store"),
     ("airOnTemp", "number"), ("airOffTemp", "number"), ("Def", "defrost"),
     ("power_kw", "number")],
    [("Def", "defrost"), ("storeId", "store"), ("TimeStamp", "number"),
     ("airOffTemp", "number"), ("fridgeId", "fridge"), ("airOnTemp", "number")],
]


@pytest.mark.parametrize("case", range(len(CORPUS_HEADERS)))
def test_parser_matches_naive_reference(case):
    header = CORPUS_HEADERS[case]
    reasons = set()
    for seed in range(5):
        text = _csv_corpus(random.Random(f"{case}:{seed}"), header)
        readings, rejects = parse_telemetry_csv(text)
        want_rows, want_rejects = naive_csv.parse_telemetry_csv(text)
        assert rows_of(readings) == want_rows
        assert readings == readings_of(want_rows)
        assert rejects == want_rejects
        assert want_rows and rejects
        reasons.update(r.reason.split(" ")[0] for r in rejects)
    # Each kind of reject came up: unparseable, non-finite, bad defrost
    # flag, short row, and an empty fridge id.
    assert {"could", "non-finite", "defrost", "list", "empty"} <= reasons


def test_parser_keeps_check_order():
    text = (HEADER + ",probe\n1,nan,abc,2,,S9,x\n2,1,abc,0.5,,S9,x\n3,1,1,2,,S9,\n"
            "4,1,1,1,F17,S9,y\n5,1,1,1, ,S9,y\n")
    readings, rejects = parse_telemetry_csv(text)
    assert [r.reason for r in rejects] == [
        "non-finite value 'nan'",
        "could not convert string to float: 'abc'",
        "defrost flag 2.0 not in {0, 1}",
        "empty fridge id",
    ]
    (only,) = rows_of(readings)
    assert (only.fridge_id, only.store_id, only.extra) == ("F17", "S9", {"probe": "y"})


def rec(fridge, ts, on=3.0, off=1.0, defrost=0):
    return Row(timestamp=float(ts), fridge_id=fridge, air_on_temperature=float(on),
               air_off_temperature=float(off), defrost_state=defrost)


def test_derive_features_values():
    records = readings_of([rec("a", 0, on=3.8, off=1.7), rec("a", 60, on=4.0, off=1.9),
                           rec("b", 30, on=2.0, off=0.5)])
    before = copy.deepcopy(records)
    out = [parse_document_line(line)["derived"]
           for line in derive_features(records, Setpoints(on=3.0, off=1.0)).lines]
    assert out[0]["time_diff_sec"] == 0.0
    assert out[1]["time_diff_sec"] == 60.0
    # New fridge restarts the cadence delta.
    assert out[2]["time_diff_sec"] == 0.0
    assert out[0]["air_on_diff"] == 0.0
    assert out[1]["air_on_diff"] == pytest.approx(0.2)
    assert out[1]["air_off_diff"] == pytest.approx(0.2)
    assert out[2]["air_on_diff"] == 0.0
    assert out[0]["targetTemp_on_diff"] == pytest.approx(0.8)
    assert out[0]["targetTemp_off_diff"] == pytest.approx(0.7)
    assert out[0]["targetTemp_on"] == 3.0
    assert out[0]["timestamp_sec"] == 0.0
    # Input untouched.
    assert records == before


def test_derive_features_requires_sorted_input():
    records = readings_of([rec("a", 0), rec("a", 60), rec("a", 30)])
    with pytest.raises(UnsortedInput, match=r"out of order near fridge 'a' t=30\.0$"):
        derive_features(records, Setpoints(3.0, 1.0))
    with pytest.raises(UnsortedInput, match=r"near fridge 'a' t=0\.0$"):
        derive_features(readings_of([rec("b", 0), rec("a", 0)]), Setpoints(3.0, 1.0))


@pytest.mark.parametrize("stamp", [True, "60", None])
def test_derive_features_rejects_a_timestamp_that_is_not_a_number(stamp):
    records = readings_of([rec("a", 0), rec("a", 60), rec("a", 120)])
    records.timestamps[1] = stamp
    with pytest.raises(TypeError, match=f"fridge 'a': timestamp {stamp!r} is not a number"):
        derive_features(records, Setpoints(3.0, 1.0))


def documents_through_derived_records(records, setpoints):
    """The former ingest path, kept as the reference: over one
    :class:`naive_csv.Row` per reading, one pass built new records
    carrying a derived map, each predecessor looked up in a per-fridge
    dict, and a second pass mapped every record to a document."""
    derived_records = []
    prev_by_fridge = {}
    for r in records:
        prev = prev_by_fridge.get(r.fridge_id)
        prev_by_fridge[r.fridge_id] = r
        derived = {
            "timestamp_sec": r.timestamp,
            "time_diff_sec": 0.0 if prev is None else r.timestamp - prev.timestamp,
            "air_on_diff": (0.0 if prev is None
                            else r.air_on_temperature - prev.air_on_temperature),
            "air_off_diff": (0.0 if prev is None
                             else r.air_off_temperature - prev.air_off_temperature),
            "targetTemp_on": setpoints.on,
            "targetTemp_on_diff": r.air_on_temperature - setpoints.on,
            "targetTemp_off": setpoints.off,
            "targetTemp_off_diff": r.air_off_temperature - setpoints.off,
        }
        derived_records.append((r, dict(r.extra), derived))
    return [
        {
            "_id": f"{r.fridge_id}:{r.timestamp}",
            "timestamp": r.timestamp,
            "fridge_id": r.fridge_id,
            "store_id": r.store_id,
            "air_on_temperature": r.air_on_temperature,
            "air_off_temperature": r.air_off_temperature,
            "defrost_state": r.defrost_state,
            "extra": dict(extra),
            "derived": dict(derived),
        }
        for r, extra, derived in derived_records
    ]


def test_derive_features_matches_the_derived_record_path():
    # Three simulated fridges in one batch, two with injected faults, and
    # a multi-fridge CSV with numeric and text extra columns.
    sim = SimConfig(n_fridges=3, days=3.5, seed=11)
    plans = plan_faults(fleet_specs(sim), sim, 2, 11)
    simulated = [r for _, readings in simulate_fleet(sim, fault_plans=plans)
                 for r in rows_of(readings)]
    parsed, _ = parse_telemetry_csv(_csv_corpus(random.Random(3), CORPUS_HEADERS[0]))
    parsed = sorted(rows_of(parsed), key=lambda r: (r.fridge_id, r.timestamp))
    # The corpus repeats timestamps, and a repeated _id is refused as
    # encode_documents refuses it: keep the first reading of each.
    parsed = [next(group) for _, group in
              itertools.groupby(parsed, key=lambda r: (r.fridge_id, r.timestamp))]
    assert any(isinstance(r.extra["note"], str) for r in parsed)
    for records, setpoints in ((simulated, Setpoints(3.2, 1.1)), (parsed, Setpoints(3.0, 1.0))):
        got = derive_features(readings_of(records), setpoints)
        want = documents_through_derived_records(records, setpoints)
        assert len({d["fridge_id"] for d in want}) >= 3
        assert len(got) == len(want)
        assert got.ids == [d["_id"] for d in want]
        assert got.lines == [canonical_dumps(d) + "\n" for d in want]


def reading(fridge, ts, on=3.0, off=1.0, defrost=0, store=None, extra=None):
    return Row(timestamp=ts, fridge_id=fridge, air_on_temperature=on,
               air_off_temperature=off, defrost_state=defrost, store_id=store,
               extra=extra or {})


def flags(z, a, door, n):
    return {"z": z, "a": a, "door": door, "n": n}


# Batches whose lines hold what a per-reading template could get wrong:
# quotes, a non-ASCII character and a % in ids, a null store id, an empty
# extra cell, bool and int extras, int timestamps, signed zeros, the
# largest and smallest floats, and several fridges, each restarting its
# deltas. Every reading of a batch carries the same extra names.
EDGE_BATCHES = [
    [reading('caf\u00e9 "7"', -0.0, on=-0.0, off=5e-324, store=None,
             extra={"note": "", "p": 1e16}),
     reading('caf\u00e9 "7"', 5e-324, on=1e16, off=-5e-324, defrost=1, store="S\u00f8",
             extra={"p": -0.0, "note": "\u00e9t\u00e9"}),
     reading('caf\u00e9 "7"', 1e16, on=-1e16, off=1.5, store="S\u00f8",
             extra={"p": 2.0, "note": "door %s open"})],
    [reading("a%d", 0.0, extra=flags(1.0, "", True, 3)),
     reading("a%d", 60.0, on=4.25, extra=flags(-0.0, "%", False, 0)),
     reading("b", 30, on=-2.5, off=0.1, extra=flags(2, "x", True, -4)),
     reading("b", 90, on=7.0, off=0.3, extra=flags(2.5, "", False, 10**20)),
     reading("b", 90.5, on=7.0, off=0.3, extra=flags(1e16, '"q"', True, 1)),
     reading("c", -60.0, store="S1", extra=flags(5e-324, "", False, 2))],
    [],
]


@pytest.mark.parametrize("batch", range(len(EDGE_BATCHES)))
def test_derive_features_writes_the_reference_lines_for_edge_values(batch):
    rows = EDGE_BATCHES[batch]
    readings = readings_of(rows)
    before = copy.deepcopy(readings)
    for setpoints in (Setpoints(3.0, 1.0), Setpoints(-0.0, 1e16)):
        got = derive_features(readings, setpoints)
        want = documents_through_derived_records(rows, setpoints)
        assert got == encode_documents("telemetry", want)
        assert got.lines == [canonical_dumps(d) + "\n" for d in want]
    assert readings == before


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("records", [
    # Equal timestamps give one _id twice.
    [reading("a", 0.0), reading("a", 60.0), reading("a", 60.0)],
    # 1e308 then -1e308: the difference overflows to -inf.
    [reading("a", 0.0, on=1e308), reading("a", 60.0, on=-1e308)],
    # The overflow comes before the repeated _id, so it is what is raised.
    [reading("a", 0.0, off=-1e308), reading("a", 1.0, off=1e308), reading("a", 1.0)],
    # A repeated _id comes before the overflow.
    [reading("a", 0.0), reading("a", 0.0), reading("b", 0.0, on=1e308),
     reading("b", 1.0, on=-1e308)],
])
def test_derive_features_raises_what_encode_documents_raises(records):
    readings = readings_of(records)
    before = copy.deepcopy(readings)
    setpoints = Setpoints(3.0, 1.0)
    got = raised(lambda: derive_features(readings, setpoints))
    want = raised(lambda: encode_documents(
        "telemetry", documents_through_derived_records(records, setpoints)))
    assert got == want
    assert got[0] in (DuplicateId, ValueError)
    assert readings == before


def test_document_roundtrip_identity(tmp_path):
    readings, _ = parse_telemetry_csv(BARN_CSV)
    encoded = derive_features(readings, Setpoints(3.0, 1.0))
    assert encoded.ids[0] == "barn1:1488990480.0"
    docs = [parse_document_line(line) for line in encoded.lines]
    with open_store(tmp_path / "s") as store:
        store.insert_many("telemetry", encoded)
    with open_store(tmp_path / "s", read_only=True) as store:
        loaded = store.find_all("telemetry")
    assert loaded == docs
    back = [Row(**{k: v for k, v in d.items() if k not in ("_id", "derived")})
            for d in loaded]
    assert back == rows_of(readings)
