"""CSV ingestion, derived features and document round trips."""

import random

import pytest

import naive_csv

from coldflow.docstore import open_store
from coldflow.telemetry import (
    CsvSchema,
    MissingColumn,
    Setpoints,
    TelemetryRecord,
    UnsortedInput,
    derive_features,
    parse_telemetry_csv,
    to_documents,
)

# A single-unit logger dump: timestamped case temperatures, a handful of
# uninterpreted sensor channels, and a defrost flag column.
BARN_CSV = """TimeStamp,air_on,air_off,foodTmp,shelfTmp,Def,Def1
1488990480.0,3.8,1.7,3.8,2.5,17.2,0
1488990540.0,3.9,1.8,3.8,2.5,17.2,0
1488990600.0,4.1,2.0,3.9,2.6,17.3,1
"""

BARN_SCHEMA = CsvSchema(
    columns={
        "timestamp": "TimeStamp",
        "air_on": "air_on",
        "air_off": "air_off",
        "defrost": "Def1",
    },
    defaults={"fridge_id": "barn1"},
)


def test_parse_single_unit_dump():
    records, rejects = parse_telemetry_csv(BARN_CSV, BARN_SCHEMA)
    assert rejects == []
    assert len(records) == 3
    first = records[0]
    assert first.timestamp == 1488990480.0
    assert first.air_on_temperature == 3.8
    assert first.air_off_temperature == 1.7
    assert first.defrost_state == 0
    assert first.fridge_id == "barn1"
    # Unmapped channels ride along untouched.
    assert first.extra["Def"] == 17.2
    assert first.extra["foodTmp"] == 3.8
    assert records[2].defrost_state == 1


def test_bad_required_field_rejects_that_row_only():
    csv_text = "ts,on,off,d,f\n1.0,3.5,1.0,0,A\n2.0,abc,1.1,0,A\n"
    schema = CsvSchema(
        columns={"timestamp": "ts", "air_on": "on", "air_off": "off",
                 "defrost": "d", "fridge_id": "f"}
    )
    records, rejects = parse_telemetry_csv(csv_text, schema)
    assert len(records) == 1
    assert len(rejects) == 1
    assert rejects[0].row == 2
    assert "abc" in rejects[0].reason or "could not convert" in rejects[0].reason


def test_defrost_flag_must_be_binary():
    csv_text = "ts,on,off,d,f\n1.0,3.5,1.0,2,A\n"
    schema = CsvSchema(
        columns={"timestamp": "ts", "air_on": "on", "air_off": "off",
                 "defrost": "d", "fridge_id": "f"}
    )
    records, rejects = parse_telemetry_csv(csv_text, schema)
    assert records == []
    assert rejects[0].row == 1


def test_missing_required_column_raises():
    with pytest.raises(MissingColumn):
        parse_telemetry_csv("TimeStamp,air_on\n1,2\n", BARN_SCHEMA)
    with pytest.raises(MissingColumn):
        parse_telemetry_csv(
            "ts,on,off,d\n",
            CsvSchema(columns={"timestamp": "ts", "air_on": "on",
                               "air_off": "off", "defrost": "d"}),
        )


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


CORPUS_SCHEMAS = [
    (
        [("airOnTemp", "number"), ("TimeStamp", "number"), ("fridgeId", "fridge"),
         ("Def", "defrost"), ("power_kw", "number"), ("storeId", "store"),
         ("airOffTemp", "number"), ("note", "text")],
        CsvSchema(columns={"timestamp": "TimeStamp", "fridge_id": "fridgeId",
                           "store_id": "storeId", "air_on": "airOnTemp",
                           "air_off": "airOffTemp", "defrost": "Def"}),
    ),
    (
        [("ts", "number"), ("on", "number"), ("off", "number"), ("d", "defrost"),
         ("probe", "text")],
        CsvSchema(columns={"timestamp": "ts", "air_on": "on", "air_off": "off",
                           "defrost": "d"},
                  defaults={"fridge_id": 17, "store_id": "S9"}),
    ),
    (
        [("d", "defrost"), ("ts", "number"), ("off", "number"), ("on", "number")],
        CsvSchema(columns={"timestamp": "ts", "air_on": "on", "air_off": "off",
                           "defrost": "d"},
                  defaults={"fridge_id": "barn1"}),
    ),
]


@pytest.mark.parametrize("case", range(len(CORPUS_SCHEMAS)))
def test_parser_matches_naive_reference(case):
    header, schema = CORPUS_SCHEMAS[case]
    reasons = set()
    for seed in range(5):
        text = _csv_corpus(random.Random(f"{case}:{seed}"), header)
        records, rejects = parse_telemetry_csv(text, schema)
        want_records, want_rejects = naive_csv.parse_telemetry_csv(text, schema)
        assert records == want_records
        assert rejects == want_rejects
        assert records and rejects
        reasons.update(r.reason.split(" ")[0] for r in rejects)
    # Each kind of reject came up: unparseable, non-finite, bad defrost
    # flag, short row, and (with a fridge column) an empty fridge id.
    assert {"could", "non-finite", "defrost", "list"} <= reasons
    assert ("empty" in reasons) == ("fridge_id" in schema.columns)


def test_parser_keeps_check_order_and_defaults():
    schema = CORPUS_SCHEMAS[1][1]
    text = "ts,on,off,d,probe\n1,nan,abc,2,x\n2,1,abc,0.5,x\n3,1,1,2,\n4,1,1,1,y\n"
    records, rejects = parse_telemetry_csv(text, schema)
    assert [r.reason for r in rejects] == [
        "non-finite value 'nan'",
        "could not convert string to float: 'abc'",
        "defrost flag 2.0 not in {0, 1}",
    ]
    (only,) = records
    assert (only.fridge_id, only.store_id, only.extra) == ("17", "S9", {"probe": "y"})


def rec(fridge, ts, on=3.0, off=1.0, defrost=0):
    return TelemetryRecord(
        timestamp=float(ts), fridge_id=fridge, air_on_temperature=float(on),
        air_off_temperature=float(off), defrost_state=defrost,
    )


def test_derive_features_values():
    records = [rec("a", 0, on=3.8, off=1.7), rec("a", 60, on=4.0, off=1.9),
               rec("b", 30, on=2.0, off=0.5)]
    out = derive_features(records, Setpoints(on=3.0, off=1.0))
    assert out[0].derived["time_diff_sec"] == 0.0
    assert out[1].derived["time_diff_sec"] == 60.0
    # New fridge restarts the cadence delta.
    assert out[2].derived["time_diff_sec"] == 0.0
    assert out[0].derived["air_on_diff"] == 0.0
    assert out[1].derived["air_on_diff"] == pytest.approx(0.2)
    assert out[1].derived["air_off_diff"] == pytest.approx(0.2)
    assert out[2].derived["air_on_diff"] == 0.0
    assert out[0].derived["targetTemp_on_diff"] == pytest.approx(0.8)
    assert out[0].derived["targetTemp_off_diff"] == pytest.approx(0.7)
    assert out[0].derived["targetTemp_on"] == 3.0
    assert out[0].derived["timestamp_sec"] == 0.0
    # Input untouched.
    assert records[0].derived == {}


def test_derive_features_idempotent():
    records = [rec("a", t * 60) for t in range(5)]
    once = derive_features(records, Setpoints(3.0, 1.0))
    twice = derive_features(once, Setpoints(3.0, 1.0))
    assert [r.derived for r in once] == [r.derived for r in twice]


def test_derive_features_requires_sorted_input():
    records = [rec("a", 60), rec("a", 0)]
    with pytest.raises(UnsortedInput):
        derive_features(records, Setpoints(3.0, 1.0))
    with pytest.raises(UnsortedInput):
        derive_features([rec("b", 0), rec("a", 0)], Setpoints(3.0, 1.0))


def test_document_roundtrip_identity(tmp_path):
    records, _ = parse_telemetry_csv(BARN_CSV, BARN_SCHEMA)
    records = derive_features(records, Setpoints(3.0, 1.0))
    docs = to_documents(records)
    assert docs[0]["_id"] == "barn1:1488990480.0"
    with open_store(tmp_path / "s") as store:
        store.insert_many("telemetry", docs)
    with open_store(tmp_path / "s", read_only=True) as store:
        loaded = store.find_all("telemetry")
    assert loaded == docs
    back = [TelemetryRecord(**{k: v for k, v in d.items() if k != "_id"})
            for d in loaded]
    assert back == records
