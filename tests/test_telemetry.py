"""CSV ingestion, derived features and document round trips."""

import pytest

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
