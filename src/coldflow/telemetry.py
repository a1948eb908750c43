"""Telemetry records: CSV ingestion, derived features, stored lines.

A telemetry record is one sensor reading of one fridge: timestamp (epoch
seconds), case air temperatures entering/leaving the evaporator, defrost
state flag, optional store id, and an ``extra`` map carrying any unmapped
sensor columns untouched. ``derive_features`` turns a sorted batch of
records into what ingest stores: one canonical line per reading, holding
the base fields, ``extra``, and a ``derived`` map (cadence deltas,
setpoint differences) computed from a reading and its in-fridge
predecessor.

No document is built on the way. The batch's columns are gathered once;
the deltas and setpoint differences are whole-column subtractions, the
same float subtractions a per-reading loop makes; each value is written
to text once (``float.__repr__`` for floats, as ``canonical_dumps`` writes
them), and the timestamp's text serves the _id, ``timestamp`` and
``timestamp_sec``. Each run of readings that share a fridge id, store id
and extra names fills one %-template holding the sorted keys and those
values, encoded once through ``canonical_dumps``. A non-finite number
anywhere in the batch, found from the texts in one pass, or a repeated _id
raises what ``encode_documents`` raises on the same documents.

A reading's predecessor is looked for within its batch only: the deltas
restart at each batch's first reading, so a fridge whose readings arrive
in two batches (two CSV files, say) stores 0.0 where the second begins.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import operator
from dataclasses import dataclass, field

from coldflow.docstore import DuplicateId, Encoded, canonical_dumps
from coldflow.selection import TELEMETRY

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


def check_timestamps(fridge_ids, stamps: list):
    """Raise TypeError, naming the fridge, at the first timestamp that is
    not an int or a float; a bool is not a number."""
    if set(map(type, stamps)) <= {float, int}:
        return
    for fridge_id, stamp in zip(fridge_ids, stamps):
        if not isinstance(stamp, (int, float)) or isinstance(stamp, bool):
            raise TypeError(f"fridge {fridge_id!r}: timestamp {stamp!r} is not a number")


def derive_features(records: list[TelemetryRecord], setpoints: Setpoints) -> Encoded:
    """The telemetry documents ingest stores, one per record, as their
    checked canonical lines; the input is left untouched.

    Each document has _id "<fridge_id>:<timestamp>", the record's base
    fields, its ``extra`` map and a ``derived`` map: timestamp_sec (alias
    of the timestamp), time_diff_sec (cadence delta within a fridge, 0.0 at
    each fridge's first record), air_on_diff and air_off_diff (temperature
    change since the previous record of the same fridge, 0.0 at its first
    record), targetTemp_on/off (the setpoints) and targetTemp_on_diff/
    off_diff (measured minus setpoint). Records must be sorted by
    (fridge_id, timestamp), so a record's in-fridge predecessor is the
    record before it when that has the same fridge id; the first record
    of the batch has none, whatever the store already holds. A timestamp
    must be an int or a float (not a bool); anything else raises TypeError,
    as the wrangle stage's read would.

    The result is exactly what ``encode_documents`` makes of those
    documents, with the same UnsortedInput, DuplicateId and non-finite
    ValueError, but no document is built: see the module docstring.
    """
    stamps = [r.timestamp for r in records]
    check_timestamps((r.fridge_id for r in records), stamps)
    check_sorted(records)
    on = [r.air_on_temperature for r in records]
    off = [r.air_off_temperature for r in records]
    bounds = [0, *itertools.accumulate(
        sum(1 for _ in group) for _, group in itertools.groupby(r.fridge_id for r in records))]
    time_diff, on_diff, off_diff = (_deltas(column, bounds) for column in (stamps, on, off))
    on_sp = [value - setpoints.on for value in on]
    off_sp = [value - setpoints.off for value in off]
    # Each line's per-row values in the stored key order up to
    # time_diff_sec; the timestamp, the run's extras and the timestamp
    # again follow.
    columns = [off, on, [r.defrost_state for r in records], off_diff, on_diff, off_sp, on_sp,
               time_diff]
    setpoint_texts = _texts([setpoints.off, setpoints.on])
    finite = _NON_FINITE.isdisjoint(setpoint_texts)

    ids, lines = [], []
    lo = 0
    for (fridge_id, store_id, names), run in itertools.groupby(
            (r.fridge_id, r.store_id, tuple(r.extra)) for r in records):
        hi = lo + sum(1 for _ in run)
        names = sorted(names)
        prefix = f"{fridge_id}:"
        template = _line_template(prefix, fridge_id, store_id, names, setpoint_texts)
        for start in range(lo, hi, _CHUNK):
            end = min(start + _CHUNK, hi)
            texts = [_texts(column[start:end]) for column in columns]
            stamp_texts = _texts(stamps[start:end])
            extras = [_texts([r.extra[name] for r in records[start:end]]) for name in names]
            finite = finite and _NON_FINITE.isdisjoint(
                itertools.chain(*texts, stamp_texts, *extras))
            ids += [prefix + text for text in stamp_texts]
            lines += map(template.__mod__,
                         zip(stamp_texts, *texts, stamp_texts, *extras, stamp_texts))
        lo = hi

    repeat = _first_repeat(ids)
    if not finite:
        for i in range(len(ids) if repeat is None else repeat):
            r = records[i]
            for value in (off[i], on[i], r.defrost_state, off_diff[i], on_diff[i],
                          setpoints.off, off_sp[i], setpoints.on, on_sp[i], time_diff[i],
                          stamps[i], *(r.extra[name] for name in sorted(r.extra))):
                if isinstance(value, float) and not math.isfinite(value):
                    canonical_dumps(value)  # json's own ValueError
    if repeat is not None:
        raise DuplicateId(f"{TELEMETRY}: _id {ids[repeat]!r} already present")
    return Encoded(ids, lines)


# Rows whose texts exist at once: a large batch never holds all of its
# values' texts next to its lines.
_CHUNK = 1024

# What float.__repr__ gives for the values canonical JSON refuses.
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _texts(values: list) -> list[str]:
    """Each value's canonical JSON text, except that a non-finite float
    gives its repr instead of raising. ``canonical_dumps`` writes every
    float, subclasses included, with ``float.__repr__`` and every int but
    a bool with ``int.__repr__``, so the common columns skip it."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map(float.__repr__, values))
    if kinds <= {int}:
        return list(map(int.__repr__, values))
    return [float.__repr__(v) if isinstance(v, float) else canonical_dumps(v) for v in values]


def _deltas(column: list, bounds: list[int]) -> list:
    """Each value minus the one before it, 0.0 at each fridge's first
    reading; fridge k's readings are ``column[bounds[k]:bounds[k + 1]]``."""
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.append(0.0)
        out += map(operator.sub, column[lo + 1:hi], column[lo:hi - 1])
    return out


def _first_repeat(ids: list[str]) -> int | None:
    """The position of the first id seen earlier in the list, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i, doc_id in enumerate(ids):
        if doc_id in seen:
            return i
        seen.add(doc_id)


def _line_template(id_prefix: str, fridge_id, store_id, names: list[str],
                   setpoint_texts: list[str]) -> str:
    """The %-template of one run's lines: every key in canonical_dumps's
    sorted order, the run's fixed values as text, and a ``%s`` for the
    _id's suffix, each slot of :func:`derive_features`, each extra in
    ``names`` (sorted) and the timestamp."""
    if not all(isinstance(name, str) for name in names):
        raise TypeError("extra keys must be strings")

    def fixed(text: str) -> str:
        return text.replace("%", "%%")

    sp_off, sp_on = map(fixed, setpoint_texts)
    extras = ",".join(f"{fixed(canonical_dumps(name))}:%s" for name in names)
    return (
        '{"_id":' + fixed(canonical_dumps(id_prefix))[:-1] + '%s","air_off_temperature":%s,'
        '"air_on_temperature":%s,"defrost_state":%s,"derived":{"air_off_diff":%s,'
        f'"air_on_diff":%s,"targetTemp_off":{sp_off},"targetTemp_off_diff":%s,'
        f'"targetTemp_on":{sp_on},"targetTemp_on_diff":%s,"time_diff_sec":%s,'
        f'"timestamp_sec":%s}},"extra":{{{extras}}},'
        f'"fridge_id":{fixed(canonical_dumps(fridge_id))},'
        f'"store_id":{fixed(canonical_dumps(store_id))},"timestamp":%s}}\n'
    )


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
