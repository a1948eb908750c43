"""Naive reference for CSV ingestion, with its own per-row form.

The parser telemetry ingest used before it resolved column positions once
and kept readings as columns: it looks every required cell up by its
column name through a per-row lambda, and builds one :class:`Row` per
reading. Used as the oracle in the parser equivalence
test; :func:`rows_of` and :func:`readings_of` convert between its rows and
the program's :class:`~coldflow.telemetry.Readings`.
"""

import csv
import io
import math
from dataclasses import dataclass, field

from coldflow.telemetry import MissingColumn, Readings, RejectedRow


@dataclass
class Row:
    """One reading: its base fields and a map of its extra channels."""

    timestamp: float
    fridge_id: str
    air_on_temperature: float
    air_off_temperature: float
    defrost_state: int
    store_id: str | None = None
    extra: dict = field(default_factory=dict)


def rows_of(readings: Readings) -> list[Row]:
    """One Row per reading of a batch."""
    names = list(readings.extra)
    return [Row(ts, fid, on, off, defrost, store, dict(zip(names, values)))
            for ts, fid, store, on, off, defrost, *values in zip(
                readings.timestamps, readings.fridge_ids, readings.store_ids,
                readings.air_on, readings.air_off, readings.defrost,
                *readings.extra.values())]


def readings_of(rows: list[Row]) -> Readings:
    """The batch holding ``rows``, which must share one set of extra names."""
    names = list(rows[0].extra) if rows else []
    assert all(r.extra.keys() == set(names) for r in rows), "rows differ in extra names"
    return Readings([r.timestamp for r in rows], [r.fridge_id for r in rows],
                    [r.store_id for r in rows], [r.air_on_temperature for r in rows],
                    [r.air_off_temperature for r in rows], [r.defrost_state for r in rows],
                    {name: [r.extra[name] for r in rows] for name in names})


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_telemetry_csv(text: str):
    """Parse CSV text with the fleet columns into rows plus per-row rejects.

    Returns ``(rows, rejects)``. Unparseable required fields reject the
    whole row with its 1-based data-row number (header not counted); other
    rows are unaffected. Raises MissingColumn when a required column is
    missing from the header entirely.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty CSV: no header row") from None
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}

    for column in ("TimeStamp", "airOnTemp", "airOffTemp", "Def", "fridgeId", "storeId"):
        if column not in positions:
            raise MissingColumn(f"required column {column!r} not in header")

    mapped = {"TimeStamp", "fridgeId", "storeId", "airOnTemp", "airOffTemp", "Def"}
    extra_columns = [name for name in header if name not in mapped]

    records: list[Row] = []
    rejects: list[RejectedRow] = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            cell = lambda column: row[positions[column]].strip()
            timestamp = _parse_float(cell("TimeStamp"))
            air_on = _parse_float(cell("airOnTemp"))
            air_off = _parse_float(cell("airOffTemp"))
            defrost_raw = _parse_float(cell("Def"))
            defrost = int(defrost_raw)
            if defrost != defrost_raw or defrost not in (0, 1):
                raise ValueError(f"defrost flag {defrost_raw!r} not in {{0, 1}}")
            fridge_id = cell("fridgeId")
            if not fridge_id:
                raise ValueError("empty fridge id")
            store_id = cell("storeId") or None
        except (ValueError, IndexError) as exc:
            rejects.append(RejectedRow(row=row_no, reason=str(exc)))
            continue

        extra = {}
        for name in extra_columns:
            position = positions[name]
            raw = row[position].strip() if position < len(row) else ""
            try:
                extra[name] = _parse_float(raw)
            except ValueError:
                extra[name] = raw
        records.append(
            Row(
                timestamp=timestamp,
                fridge_id=fridge_id,
                store_id=store_id,
                air_on_temperature=air_on,
                air_off_temperature=air_off,
                defrost_state=defrost,
                extra=extra,
            )
        )
    return records, rejects
