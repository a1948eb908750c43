"""Data wrangling: example extraction and dataset splitting.

Each fridge's telemetry becomes one :class:`FridgeSeries`: timestamps,
defrost flags and a feature matrix as numpy arrays. Documents are read once
into :class:`Columns` by :func:`document_columns`, which keeps none of
them and takes only numbers as timestamps. :func:`fridge_series` then
orders the readings by fridge and timestamp with one stable lexsort and
cuts one block per fridge. Supervised examples are cut from those blocks.
For time-to-threshold regression, each defrost run (defrost flag 0->1 at t0,
1->0 at t1) yields a window of ``window_len`` steps strictly before t0 and
a target of t1 - t0 seconds; a decision lead only moves the window's
boundary. For fault classification, work-order texts are regex-joined to
fridges and windows end a fixed horizon before each fault. Every window is
cut by :func:`assemble_window`, a binary search and a slice of the block.
"""

from __future__ import annotations

import logging
import math
import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from coldflow.runconfig import DEFAULT_TARGET_BAND_S
from coldflow.telemetry import check_timestamps, field_value

log = logging.getLogger(__name__)


class SingleClass(Exception):
    """balance_classes needs at least two labels present."""


class TooFewExamples(Exception):
    """Requested split fractions leave some part empty."""


class InsufficientHistory(Exception):
    """A window could not be assembled at the requested position."""


DEFAULT_CADENCE_S = 60.0
DEFAULT_GAP_FACTOR = 3.0


# -------------------------------------------------------------- windowing


@dataclass(frozen=True, eq=False)
class FridgeSeries:
    """One fridge's stream as arrays, built once; every window is a slice.

    ``timestamps`` and ``defrost`` are float64 per reading; ``features`` is
    a float64 [readings x len(feature_names)] matrix in which any value that
    is not a finite, non-bool number (None, a string, a bool, NaN, inf) is
    NaN. ``store_ids`` are kept per reading, as the documents give them.
    """

    fridge_id: str
    feature_names: tuple
    timestamps: np.ndarray
    defrost: np.ndarray
    features: np.ndarray
    store_ids: tuple


class Columns(NamedTuple):
    """Telemetry documents as columns, one entry per document, in order;
    ``timestamps``, ``defrost`` and ``features`` hold each value converted
    as :class:`FridgeSeries` says."""

    fridge_ids: list
    store_ids: list
    timestamps: np.ndarray
    defrost: np.ndarray
    features: np.ndarray


def _feature_column(values: list) -> np.ndarray:
    """One feature's values as float64, NaN where a value is not a finite,
    non-bool number."""
    # Plain floats and ints convert in one call; bools, None, strings and
    # other types are sorted out one value at a time.
    if not set(map(type, values)) <= {float, int}:
        values = [v if isinstance(v, (int, float)) and not isinstance(v, bool) else math.nan
                  for v in values]
    column = np.array(values, dtype=np.float64)
    column[~np.isfinite(column)] = math.nan
    return column


def document_columns(docs, feature_names) -> Columns:
    """Telemetry documents, as parsed from their stored lines (which
    ``telemetry.derive_features`` writes), read once into :class:`Columns`.
    Features resolve through ``telemetry.field_value``. Keeps no document,
    so ``docs`` may be a stream. A timestamp that is not a number raises
    ``telemetry.check_timestamps``'s TypeError."""
    names = tuple(feature_names)
    fridge_ids, store_ids, stamps, defrost = [], [], [], []
    values = [[] for _ in names]
    for doc in docs:
        fridge_ids.append(doc["fridge_id"])
        store_ids.append(doc.get("store_id"))
        stamps.append(doc["timestamp"])
        defrost.append(doc["defrost_state"])
        for column, name in zip(values, names):
            column.append(field_value(doc, name))
    check_timestamps(fridge_ids, stamps)
    return Columns(fridge_ids, store_ids, np.array(stamps, dtype=np.float64),
                   np.array(defrost, dtype=np.float64),
                   np.column_stack([_feature_column(column) for column in values]))


def fridge_series(parts: list[Columns], feature_names) -> dict[str, FridgeSeries]:
    """One FridgeSeries per fridge from the columns of a stream's
    consecutive parts, keyed in sorted fridge-id order. Each fridge's
    readings are stable-sorted by timestamp, ties in stream order, so a
    batch stored out of order still reads forwards in time."""
    names = tuple(feature_names)
    fridge_ids = [f for part in parts for f in part.fridge_ids]
    store_ids = [s for part in parts for s in part.store_ids]
    position = {f: i for i, f in enumerate(sorted(set(fridge_ids)))}
    rows = np.array([position[f] for f in fridge_ids], dtype=np.intp)
    timestamps = np.concatenate([part.timestamps for part in parts])
    order = np.lexsort((timestamps, rows))
    rows = rows[order]
    timestamps = timestamps[order]
    defrost = np.concatenate([part.defrost for part in parts])[order]
    features = np.concatenate([part.features for part in parts])[order]
    order = order.tolist()
    bounds = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(order)]
    return {
        fridge_id: FridgeSeries(
            fridge_id=fridge_id,
            feature_names=names,
            timestamps=timestamps[lo:hi],
            defrost=defrost[lo:hi],
            features=features[lo:hi],
            store_ids=tuple(store_ids[i] for i in order[lo:hi]),
        )
        for fridge_id, lo, hi in zip(position, bounds, bounds[1:])
    }


def assemble_window(
    series: FridgeSeries,
    end_before_ts: float,
    window_len: int,
    cadence_s: float = DEFAULT_CADENCE_S,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    require_defrost_free: bool = True,
):
    """Cut a [window_len x features] matrix ending strictly before a time.

    The single window-cutting path, used for defrost and fault examples
    alike: a binary search for the boundary, then a slice of the block.
    Returns (matrix, window_end_ts, None) on success, the matrix a copy, or
    (None, None, reason) with reason, checked in this order, one of
    "insufficient_history", "window_gap" (end gap, then inner gaps),
    "defrost_in_window" and "non_finite".
    """
    timestamps = series.timestamps
    hi = int(np.searchsorted(timestamps, end_before_ts, side="left"))
    if hi < window_len:
        return None, None, "insufficient_history"
    lo = hi - window_len
    max_gap = gap_factor * cadence_s
    if end_before_ts - timestamps[hi - 1] > max_gap \
            or (np.diff(timestamps[lo:hi]) > max_gap).any():
        return None, None, "window_gap"
    if require_defrost_free and (series.defrost[lo:hi] != 0).any():
        return None, None, "defrost_in_window"
    matrix = series.features[lo:hi]
    if not np.isfinite(matrix).all():
        return None, None, "non_finite"
    return matrix.copy(), float(timestamps[hi - 1]), None


# ----------------------------------------------------- defrost extraction


@dataclass
class DefrostExample:
    """One supervised example: pre-defrost window -> warming duration."""

    fridge_id: str
    store_id: str | None
    defrost_start_ts: float
    target_seconds: float
    observed: np.ndarray
    feature_names: tuple
    lead_seconds: float
    threshold_temp: float
    window_end_ts: float

    @property
    def event_id(self) -> str:
        return f"{self.fridge_id}:{self.defrost_start_ts!r}"


@dataclass(frozen=True)
class RejectedRun:
    fridge_id: str
    t0: float | None
    reason: str


def _defrost_runs(defrost: np.ndarray):
    """List (start_index, end_index) per defrost run: start is a 1-flag
    outside any run, end the first 0-flag after it, or None when the stream
    ends mid-defrost."""
    ones = np.flatnonzero(defrost == 1)
    zeros = np.flatnonzero(defrost == 0)
    runs = []
    k = 0
    while k < len(ones):
        start = int(ones[k])
        after = np.searchsorted(zeros, start)
        if after == len(zeros):
            runs.append((start, None))
            break
        end = int(zeros[after])
        runs.append((start, end))
        k = int(np.searchsorted(ones, end))
    return runs


def extract_defrost_examples(
    series: FridgeSeries,
    window_len: int,
    threshold: float,
    cadence_s: float = DEFAULT_CADENCE_S,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    target_band_s=DEFAULT_TARGET_BAND_S,
):
    """Cut (window, duration) examples from every complete defrost run.

    For each maximal defrost_state==1 run starting at t0 and first back at 0
    at t1, the example's observed window is window_len steps strictly before
    t0 and target_seconds = t1 - t0. Runs are rejected, with reasons, when
    history is short, the window or run has cadence gaps over gap_factor x
    cadence_s, the window is not defrost-free, features are non-finite, or
    the duration falls outside the plausibility band.
    """
    band_lo, band_hi = target_band_s
    max_gap = gap_factor * cadence_s
    timestamps = series.timestamps
    fridge_id = series.fridge_id
    examples: list[DefrostExample] = []
    rejects: list[RejectedRun] = []
    for start, end in _defrost_runs(series.defrost):
        t0 = float(timestamps[start])
        if start == 0:
            rejects.append(RejectedRun(fridge_id, t0, "insufficient_history"))
            continue
        if end is None:
            rejects.append(RejectedRun(fridge_id, t0, "incomplete_run"))
            continue
        if (np.diff(timestamps[start : end + 1]) > max_gap).any():
            rejects.append(RejectedRun(fridge_id, t0, "run_gap"))
            continue
        target = float(timestamps[end]) - t0
        if not band_lo <= target <= band_hi:
            rejects.append(RejectedRun(fridge_id, t0, "implausible_duration"))
            continue
        matrix, window_end, reason = assemble_window(
            series, t0, window_len, cadence_s, gap_factor
        )
        if reason is not None:
            rejects.append(RejectedRun(fridge_id, t0, reason))
            continue
        examples.append(
            DefrostExample(
                fridge_id=fridge_id,
                store_id=series.store_ids[start],
                defrost_start_ts=t0,
                target_seconds=target,
                observed=matrix,
                feature_names=series.feature_names,
                lead_seconds=0.0,
                threshold_temp=threshold,
                window_end_ts=window_end,
            )
        )
    return examples, rejects


def shift_for_lead_time(
    series: FridgeSeries,
    example: DefrostExample,
    lead_seconds: float,
    cadence_s: float = DEFAULT_CADENCE_S,
    gap_factor: float = DEFAULT_GAP_FACTOR,
):
    """Re-cut an example, from its fridge's block, for decisions lead_seconds
    ahead of the event.

    The observed window slides back to end strictly before t0 -
    lead_seconds and the target grows by lead_seconds (time from decision
    to threshold instead of time from shutoff to threshold). Raises
    InsufficientHistory when the earlier window cannot be assembled.
    """
    if lead_seconds < 0:
        raise ValueError("lead_seconds must be >= 0")
    if lead_seconds == 0:
        return example
    matrix, window_end, reason = assemble_window(
        series,
        example.defrost_start_ts - lead_seconds,
        len(example.observed),
        cadence_s,
        gap_factor,
    )
    if reason is not None:
        raise InsufficientHistory(
            f"{example.fridge_id} t0={example.defrost_start_ts}: {reason}"
        )
    return DefrostExample(
        fridge_id=example.fridge_id,
        store_id=example.store_id,
        defrost_start_ts=example.defrost_start_ts,
        target_seconds=example.target_seconds + lead_seconds,
        observed=matrix,
        feature_names=example.feature_names,
        lead_seconds=lead_seconds,
        threshold_temp=example.threshold_temp,
        window_end_ts=window_end,
    )


# ------------------------------------------------------- fault extraction


@dataclass(frozen=True)
class Workorder:
    raw_text: str
    timestamp: float


@dataclass(frozen=True)
class FaultEvent:
    fridge_id: str
    store_id: str | None
    fault_name: str | None
    timestamp: float


@dataclass
class FaultExample:
    fridge_id: str
    store_id: str | None
    label: str  # "fault" or "no_fault"
    fault_name: str | None
    horizon_seconds: float
    observed: np.ndarray
    feature_names: tuple
    window_end_ts: float


def parse_workorders(workorders: list[Workorder], patterns: list[str]):
    """Regex-join free-text work orders to fridges.

    Each pattern is tried in order; the first match with a ``fridge_id``
    named group wins. Unmatched orders are counted, not raised: maintenance
    text is written by humans.
    """
    compiled = [re.compile(p) for p in patterns]
    events: list[FaultEvent] = []
    skipped = 0
    for order in workorders:
        for pattern in compiled:
            m = pattern.search(order.raw_text)
            if m and m.groupdict().get("fridge_id"):
                groups = m.groupdict()
                events.append(
                    FaultEvent(
                        fridge_id=groups["fridge_id"],
                        store_id=groups.get("store_id"),
                        fault_name=groups.get("fault_name"),
                        timestamp=order.timestamp,
                    )
                )
                break
        else:
            skipped += 1
    if skipped:
        log.info("parse_workorders: %d orders did not match any pattern", skipped)
    return events, skipped


@dataclass
class FaultMergeStats:
    positives: int = 0
    negatives: int = 0
    skipped_workorders: int = 0
    # Fault windows that could not be cut, counted by reject reason.
    positive_rejects: dict = field(default_factory=dict)
    unmatched_fridges: int = 0


def merge_faults(
    series: dict[str, FridgeSeries],
    workorders: list[Workorder],
    horizon_seconds: float,
    window_len: int,
    patterns: list[str],
    negatives_per_positive: float = 1.0,
    seed: int = 0,
    cadence_s: float = DEFAULT_CADENCE_S,
    gap_factor: float = DEFAULT_GAP_FACTOR,
):
    """Join faults to telemetry and cut positive/negative windows.

    ``series`` maps fridge ids to their time-ordered blocks, as
    :func:`fridge_series` builds them. Positive: window ending
    horizon_seconds before a fault of that fridge. Negative: window whose
    end sits at least 2 x horizon_seconds away from every fault of the same
    fridge, sampled seeded-uniformly across the fleet. Defrost steps are allowed inside
    fault windows (they are normal operation). Returns (examples,
    FaultMergeStats).
    """
    events, skipped = parse_workorders(workorders, patterns)
    stats = FaultMergeStats(skipped_workorders=skipped)
    examples: list[FaultExample] = []

    faults_by_fridge: dict[str, list[FaultEvent]] = {}
    for event in events:
        if event.fridge_id not in series:
            stats.unmatched_fridges += 1
            continue
        faults_by_fridge.setdefault(event.fridge_id, []).append(event)

    def cut(block, boundary, label, fault_name):
        """Append the window before boundary as an example; returns the
        reject reason, or None when the window was cut."""
        matrix, window_end, reason = assemble_window(
            block, boundary, window_len, cadence_s, gap_factor,
            require_defrost_free=False,
        )
        if reason is not None:
            return reason
        examples.append(
            FaultExample(
                fridge_id=block.fridge_id,
                store_id=block.store_ids[0],
                label=label,
                fault_name=fault_name,
                horizon_seconds=horizon_seconds,
                observed=matrix,
                feature_names=block.feature_names,
                window_end_ts=window_end,
            )
        )
        return None

    for fridge_id, faults in faults_by_fridge.items():
        for event in faults:
            reason = cut(series[fridge_id], event.timestamp - horizon_seconds,
                         "fault", event.fault_name)
            if reason is not None:
                stats.positive_rejects[reason] = stats.positive_rejects.get(reason, 0) + 1
    stats.positives = len(examples)

    # Negative candidates: every record position far from that fridge's
    # faults; sampled in seeded shuffled order until enough windows build.
    wanted = int(round(stats.positives * negatives_per_positive))
    candidates: list[tuple[str, float]] = []
    for fridge_id, block in series.items():
        fault_times = np.asarray(
            [e.timestamp for e in faults_by_fridge.get(fridge_id, [])], dtype=float
        )
        times = block.timestamps
        if fault_times.size:
            distance = np.abs(times[:, None] - fault_times[None, :]).min(axis=1)
            eligible = times[distance >= 2.0 * horizon_seconds]
        else:
            eligible = times
        candidates.extend((fridge_id, float(t)) for t in eligible)

    rng = random.Random(seed)
    rng.shuffle(candidates)
    for fridge_id, boundary in candidates:
        if stats.negatives >= wanted:
            break
        if cut(series[fridge_id], boundary, "no_fault", None) is None:
            stats.negatives += 1
    return examples, stats


def balance_classes(examples: list, seed: int) -> list:
    """Downsample the majority label to the minority count, seeded.

    Keeps original ordering of the survivors. Raises SingleClass when only
    one label is present.
    """
    by_label: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_label.setdefault(ex.label, []).append(i)
    if len(by_label) < 2:
        raise SingleClass(f"labels present: {sorted(by_label)}")
    minority = min(len(v) for v in by_label.values())
    rng = random.Random(seed)
    keep: set[int] = set()
    for label in sorted(by_label):
        indices = by_label[label]
        if len(indices) > minority:
            indices = rng.sample(indices, minority)
        keep.update(indices)
    return [ex for i, ex in enumerate(examples) if i in keep]


# ----------------------------------------------------------------- splits


def split_dataset(example_ids: list, test_fraction: float, val_fraction: float,
                  seed: int) -> tuple:
    """Return a fixed seeded test set drawn from the ids.

    The rest is the train pool, from which training draws its validation
    examples; ``val_fraction`` is checked here so that test, validation
    and training each keep at least one id.
    """
    if not 0.0 < test_fraction < 1.0 or not 0.0 < val_fraction < 1.0 \
            or test_fraction + val_fraction >= 1.0:
        raise ValueError("fractions must lie in (0, 1) and sum below 1")
    n = len(example_ids)
    test_n = int(round(n * test_fraction))
    val_n = int(round(n * val_fraction))
    if test_n < 1 or val_n < 1 or n - test_n - val_n < 1:
        raise TooFewExamples(f"{n} ids cannot honor the requested fractions")
    return tuple(random.Random(seed).sample(list(example_ids), test_n))
