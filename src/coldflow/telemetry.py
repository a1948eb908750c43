"""Telemetry records: CSV ingestion, derived features, stored documents.

A telemetry record is one sensor reading of one fridge: timestamp (epoch
seconds), case air temperatures entering/leaving the evaporator, defrost
state flag, optional store id, and an ``extra`` map carrying any unmapped
sensor columns untouched. ``derive_features`` turns sorted records into the
documents ingest stores: the base fields, ``extra``, and a ``derived`` map
(cadence deltas, setpoint differences) computed from a reading and its
in-fridge predecessor.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field

log = logging.getLogger(__name__)


class MissingColumn(Exception):
    """A required mapped column is absent from the CSV header."""


class UnsortedInput(Exception):
    """Records must be sorted by (fridge_id, timestamp)."""


@dataclass(slots=True)
class TelemetryRecord:
    timestamp: float
    fridge_id: str
    air_on_temperature: float
    air_off_temperature: float
    defrost_state: int
    store_id: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CsvSchema:
    """Maps canonical field names to CSV column names.

    ``columns`` must cover timestamp, air_on, air_off and defrost;
    fridge_id (and optionally store_id) may instead come from ``defaults``
    when the file describes a single unit. Unmapped columns ride along in
    each record's ``extra`` map, parsed as float when possible.
    """

    columns: dict
    defaults: dict = field(default_factory=dict)

    REQUIRED = ("timestamp", "air_on", "air_off", "defrost")


@dataclass(frozen=True)
class RejectedRow:
    row: int
    reason: str


@dataclass(frozen=True)
class Setpoints:
    """Target case temperatures the controller aims for."""

    on: float
    off: float


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_telemetry_csv(text: str, schema: CsvSchema):
    """Parse CSV text into records plus per-row rejects.

    Returns ``(records, rejects)``. Unparseable required fields reject the
    whole row with its 1-based data-row number (header not counted); other
    rows are unaffected. Raises MissingColumn when a required mapped column
    is missing from the header entirely.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty CSV: no header row") from None
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}

    for canonical in CsvSchema.REQUIRED:
        column = schema.columns.get(canonical)
        if column is None:
            raise MissingColumn(f"schema maps no column for required field {canonical!r}")
        if column not in positions:
            raise MissingColumn(f"required column {column!r} not in header")
    if "fridge_id" not in schema.columns and "fridge_id" not in schema.defaults:
        raise MissingColumn("schema provides neither a fridge_id column nor a default")
    for canonical in ("fridge_id", "store_id"):
        column = schema.columns.get(canonical)
        if column is not None and column not in positions:
            raise MissingColumn(f"required column {column!r} not in header")

    mapped = {column for column in schema.columns.values()}
    extra_columns = [(name, positions[name]) for name in header if name not in mapped]
    # Positions are resolved once. The checks run in a fixed order
    # (timestamp, air_on, air_off, defrost, fridge id), so a row with
    # several bad fields is always rejected for the first.
    at_ts, at_on, at_off, at_defrost = (
        positions[schema.columns[canonical]] for canonical in CsvSchema.REQUIRED
    )
    at_fridge = at_store = default_fridge = None
    if "fridge_id" in schema.columns:
        at_fridge = positions[schema.columns["fridge_id"]]
    else:
        default_fridge = str(schema.defaults["fridge_id"])
    if "store_id" in schema.columns:
        at_store = positions[schema.columns["store_id"]]
    default_store = schema.defaults.get("store_id")

    records: list[TelemetryRecord] = []
    rejects: list[RejectedRow] = []
    for row_no, row in enumerate(reader, start=1):
        if not any(map(str.strip, row)):
            continue
        try:
            timestamp = _parse_float(row[at_ts].strip())
            air_on = _parse_float(row[at_on].strip())
            air_off = _parse_float(row[at_off].strip())
            defrost_raw = _parse_float(row[at_defrost].strip())
            defrost = int(defrost_raw)
            if defrost != defrost_raw or defrost not in (0, 1):
                raise ValueError(f"defrost flag {defrost_raw!r} not in {{0, 1}}")
            if at_fridge is None:
                fridge_id = default_fridge
            else:
                fridge_id = row[at_fridge].strip()
                if not fridge_id:
                    raise ValueError("empty fridge id")
            if at_store is None:
                store_id = default_store
            else:
                store_id = row[at_store].strip() or None
        except (ValueError, IndexError) as exc:
            rejects.append(RejectedRow(row=row_no, reason=str(exc)))
            continue

        extra = {}
        for name, position in extra_columns:
            raw = row[position].strip() if position < len(row) else ""
            try:
                extra[name] = _parse_float(raw)
            except ValueError:
                extra[name] = raw
        records.append(
            TelemetryRecord(
                timestamp=timestamp,
                fridge_id=fridge_id,
                store_id=store_id,
                air_on_temperature=air_on,
                air_off_temperature=air_off,
                defrost_state=defrost,
                extra=extra,
            )
        )
    if rejects:
        log.info("parse_telemetry_csv: %d rows rejected", len(rejects))
    return records, rejects


def check_sorted(records: list[TelemetryRecord]):
    """Raise UnsortedInput unless sorted by (fridge_id, timestamp)."""
    for prev, cur in zip(records, records[1:]):
        if (cur.fridge_id, cur.timestamp) < (prev.fridge_id, prev.timestamp):
            raise UnsortedInput(
                f"records out of order near fridge {cur.fridge_id!r} t={cur.timestamp}"
            )


def derive_features(records: list[TelemetryRecord], setpoints: Setpoints) -> list[dict]:
    """The telemetry documents ingest stores, one per record, input untouched.

    Each document has _id "<fridge_id>:<timestamp>", the record's base
    fields, a copy of its ``extra`` map and a ``derived`` map:
    timestamp_sec (alias of the timestamp), time_diff_sec (cadence delta
    within a fridge, 0.0 at each fridge's first record), air_on_diff and
    air_off_diff (temperature change since the previous record of the same
    fridge, 0.0 at its first record), targetTemp_on/off (the setpoints) and
    targetTemp_on_diff/off_diff (measured minus setpoint). Records must be
    sorted by (fridge_id, timestamp), so a record's in-fridge predecessor
    is the record before it when that has the same fridge id.
    """
    check_sorted(records)
    docs = []
    prev = None
    for rec in records:
        if prev is None or prev.fridge_id != rec.fridge_id:
            time_diff = air_on_diff = air_off_diff = 0.0
        else:
            time_diff = rec.timestamp - prev.timestamp
            air_on_diff = rec.air_on_temperature - prev.air_on_temperature
            air_off_diff = rec.air_off_temperature - prev.air_off_temperature
        prev = rec
        docs.append({
            "_id": f"{rec.fridge_id}:{rec.timestamp}",
            "timestamp": rec.timestamp,
            "fridge_id": rec.fridge_id,
            "store_id": rec.store_id,
            "air_on_temperature": rec.air_on_temperature,
            "air_off_temperature": rec.air_off_temperature,
            "defrost_state": rec.defrost_state,
            "extra": dict(rec.extra),
            "derived": {
                "timestamp_sec": rec.timestamp,
                "time_diff_sec": time_diff,
                "air_on_diff": air_on_diff,
                "air_off_diff": air_off_diff,
                "targetTemp_on": setpoints.on,
                "targetTemp_on_diff": rec.air_on_temperature - setpoints.on,
                "targetTemp_off": setpoints.off,
                "targetTemp_off_diff": rec.air_off_temperature - setpoints.off,
            },
        })
    return docs


def field_value(doc: dict, name: str):
    """Resolve a feature name against a telemetry document's base fields,
    then its derived map, then its extra map; None when absent."""
    if name in ("timestamp", "air_on_temperature", "air_off_temperature",
                "defrost_state"):
        return doc[name]
    derived = doc.get("derived", {})
    if name in derived:
        return derived[name]
    return doc.get("extra", {}).get(name)
