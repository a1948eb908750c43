"""Telemetry readings: CSV ingestion, derived features, stored lines.

A batch of sensor readings travels as :class:`Readings`, one list per
field with one entry per reading: timestamp (epoch seconds), fridge id,
store id (or None), case air temperatures entering/leaving the
evaporator, defrost state flag (a CSV's :data:`CSV_COLUMNS`), and an
``extra`` map from each other channel's name to its values, untouched.
``derive_features`` turns a sorted batch into what ingest stores: one
canonical line per reading, holding the base fields, ``extra``, and a
``derived`` map (cadence deltas, setpoint differences) computed from a
reading and its in-fridge predecessor.

No document is built on the way. The deltas and setpoint differences are
whole-column subtractions, the same float subtractions a per-reading
loop makes; each value is written to text once (``float.__repr__`` for
floats, as ``canonical_dumps`` writes them), and the timestamp's text
serves the _id, ``timestamp`` and ``timestamp_sec``. Each run of readings
that share a fridge id and store id fills one %-template holding the
sorted keys and those values, encoded once through ``canonical_dumps``.
A non-finite number anywhere in the batch, found from the texts in one
pass, or a repeated _id raises what ``encode_documents`` raises on the
same documents.

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
from dataclasses import dataclass

from coldflow.docstore import DuplicateId, Encoded, canonical_dumps
from coldflow.selection import TELEMETRY

log = logging.getLogger(__name__)


class MissingColumn(Exception):
    """A required column is absent from the CSV header, or the header
    names a column twice."""


class UnsortedInput(Exception):
    """Readings must be sorted by (fridge_id, timestamp)."""


@dataclass(slots=True)
class Readings:
    """A batch of readings as columns, one list entry per reading; ``extra``
    maps each extra channel's name to such a list, so every reading
    carries every name. A slice gives a run of rows as a new batch."""

    timestamps: list
    fridge_ids: list
    store_ids: list
    air_on: list
    air_off: list
    defrost: list
    extra: dict

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, rows: slice) -> Readings:
        return Readings(self.timestamps[rows], self.fridge_ids[rows], self.store_ids[rows],
                        self.air_on[rows], self.air_off[rows], self.defrost[rows],
                        {name: values[rows] for name, values in self.extra.items()})


def runs(values: list) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` bounds of each run of consecutive equal values,
    such as one fridge's rows in a batch, in order."""
    starts = itertools.compress(range(1, len(values)), map(operator.ne, values[1:], values))
    bounds = [0, *starts, len(values)]
    return list(zip(bounds, bounds[1:])) if values else []


# The columns a telemetry CSV must have, in any order, as the simulator
# writes them; every other column is an extra channel.
CSV_COLUMNS = ("TimeStamp", "fridgeId", "storeId", "airOnTemp", "airOffTemp", "Def")


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


def parse_telemetry_csv(text: str):
    """Parse CSV text with the :data:`CSV_COLUMNS` into a batch of readings
    plus per-row rejects.

    Returns ``(readings, rejects)``: each accepted row appends to the
    :class:`Readings` columns, with every other column in ``extra`` (each
    value a float when it parses as a finite one, else its text, ``""``
    for a missing or empty cell). Unparseable required fields reject the
    whole row with its 1-based data-row number (header not counted); other
    rows are unaffected. Raises MissingColumn when a required column is
    missing from the header entirely, or when the header names a column
    twice.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty CSV: no header row") from None
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}
    if len(positions) < len(header):
        repeated = next(name for i, name in enumerate(header) if positions[name] != i)
        raise MissingColumn(f"column {repeated!r} appears twice in the header")
    ts, fridge, store, on, off, defrost = CSV_COLUMNS
    for column in (ts, on, off, defrost, fridge, store):
        if column not in positions:
            raise MissingColumn(f"required column {column!r} not in header")

    extra = {name: [] for name in header if name not in CSV_COLUMNS}
    extra_columns = [(values.append, positions[name]) for name, values in extra.items()]
    # Positions are resolved once. The checks run in a fixed order
    # (timestamp, air_on, air_off, defrost, fridge id), so a row with
    # several bad fields is always rejected for the first.
    at_ts, at_fridge, at_store, at_on, at_off, at_defrost = (positions[c] for c in CSV_COLUMNS)

    rows, rejects = [], []
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
            fridge_id = row[at_fridge].strip()
            if not fridge_id:
                raise ValueError("empty fridge id")
            store_id = row[at_store].strip() or None
        except (ValueError, IndexError) as exc:
            rejects.append(RejectedRow(row=row_no, reason=str(exc)))
            continue

        rows.append((timestamp, fridge_id, store_id, air_on, air_off, defrost))
        for append, position in extra_columns:
            raw = row[position].strip() if position < len(row) else ""
            try:
                append(_parse_float(raw))
            except ValueError:
                append(raw)
    if rejects:
        log.info("parse_telemetry_csv: %d rows rejected", len(rejects))
    columns = [list(column) for column in zip(*rows)] or [[] for _ in range(6)]
    return Readings(*columns, extra), rejects


def check_sorted(fridge_ids: list, timestamps: list):
    """Raise UnsortedInput unless sorted by (fridge_id, timestamp)."""
    late = map(operator.lt, zip(fridge_ids[1:], timestamps[1:]), zip(fridge_ids, timestamps))
    i = next(itertools.compress(itertools.count(1), late), None)
    if i is not None:
        raise UnsortedInput(
            f"records out of order near fridge {fridge_ids[i]!r} t={timestamps[i]}")


def check_timestamps(fridge_ids, stamps: list):
    """Raise TypeError, naming the fridge, at the first timestamp that is
    not an int or a float; a bool is not a number."""
    if set(map(type, stamps)) <= {float, int}:
        return
    for fridge_id, stamp in zip(fridge_ids, stamps):
        if not isinstance(stamp, (int, float)) or isinstance(stamp, bool):
            raise TypeError(f"fridge {fridge_id!r}: timestamp {stamp!r} is not a number")


def derive_features(readings: Readings, setpoints: Setpoints) -> Encoded:
    """The telemetry documents ingest stores, one per reading, as their
    checked canonical lines; the input is left untouched.

    Each document has _id "<fridge_id>:<timestamp>", the reading's base
    fields, its ``extra`` values and a ``derived`` map: timestamp_sec
    (alias of the timestamp), time_diff_sec (cadence delta within a
    fridge, 0.0 at each fridge's first reading), air_on_diff and
    air_off_diff (temperature change since the previous reading of the
    same fridge, 0.0 at its first reading), targetTemp_on/off (the
    setpoints) and targetTemp_on_diff/off_diff (measured minus setpoint).
    Readings must be sorted by (fridge_id, timestamp), so a reading's
    in-fridge predecessor is the row before it when that has the same
    fridge id; the first reading of the batch has none, whatever the store
    already holds. A timestamp must be an int or a float (not a bool);
    anything else raises TypeError, as the wrangle stage's read would.

    The result is exactly what ``encode_documents`` makes of those
    documents, with the same UnsortedInput, DuplicateId and non-finite
    ValueError, but no document is built: see the module docstring.
    """
    stamps, fridge_ids, on, off = (readings.timestamps, readings.fridge_ids,
                                   readings.air_on, readings.air_off)
    check_timestamps(fridge_ids, stamps)
    check_sorted(fridge_ids, stamps)
    fridges = runs(fridge_ids)
    time_diff, on_diff, off_diff = (_deltas(column, fridges) for column in (stamps, on, off))
    on_sp = [value - setpoints.on for value in on]
    off_sp = [value - setpoints.off for value in off]
    # Each line's per-row values in the stored key order up to
    # time_diff_sec; the timestamp, the extras and the timestamp again
    # follow.
    columns = [off, on, readings.defrost, off_diff, on_diff, off_sp, on_sp, time_diff]
    names = sorted(readings.extra)
    extras = [readings.extra[name] for name in names]
    setpoint_texts = _texts([setpoints.off, setpoints.on])
    finite = _NON_FINITE.isdisjoint(setpoint_texts)

    ids, lines = [], []
    for lo, hi in runs(list(zip(fridge_ids, readings.store_ids))):
        prefix = f"{fridge_ids[lo]}:"
        template = _line_template(prefix, fridge_ids[lo], readings.store_ids[lo], names,
                                  setpoint_texts)
        for start in range(lo, hi, _CHUNK):
            end = min(start + _CHUNK, hi)
            texts = [_texts(column[start:end]) for column in columns]
            stamp_texts = _texts(stamps[start:end])
            extra_texts = [_texts(column[start:end]) for column in extras]
            finite = finite and _NON_FINITE.isdisjoint(
                itertools.chain(*texts, stamp_texts, *extra_texts))
            ids += [prefix + text for text in stamp_texts]
            lines += map(template.__mod__,
                         zip(stamp_texts, *texts, stamp_texts, *extra_texts, stamp_texts))

    repeat = _first_repeat(ids)
    if not finite:
        for i in range(len(ids) if repeat is None else repeat):
            for value in (off[i], on[i], readings.defrost[i], off_diff[i], on_diff[i],
                          setpoints.off, off_sp[i], setpoints.on, on_sp[i], time_diff[i],
                          stamps[i], *(column[i] for column in extras)):
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


def _deltas(column: list, fridges: list[tuple[int, int]]) -> list:
    """Each value minus the one before it, 0.0 at each fridge's first
    reading; each fridge's readings are ``column[lo:hi]``."""
    out = []
    for lo, hi in fridges:
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
