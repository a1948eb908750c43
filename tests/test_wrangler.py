"""Array blocks, window extraction, fault merging and splits."""

import dataclasses
import random

import numpy as np
import pytest

import naive_window

from coldflow.telemetry import field_value
from coldflow.wrangler import (
    DEFAULT_CADENCE_S,
    DEFAULT_GAP_FACTOR,
    InsufficientHistory,
    SingleClass,
    TooFewExamples,
    Workorder,
    assemble_window,
    balance_classes,
    document_columns,
    extract_defrost_examples,
    fridge_series,
    merge_faults,
    parse_workorders,
    shift_for_lead_time,
    split_dataset,
)


@dataclasses.dataclass
class Reading:
    """A telemetry reading with a derived map given outright, so tests can
    put any value into any field of a document."""

    timestamp: float
    fridge_id: str
    air_on_temperature: float
    air_off_temperature: float
    defrost_state: int
    store_id: str | None = None
    extra: dict = dataclasses.field(default_factory=dict)
    derived: dict = dataclasses.field(default_factory=dict)


def documents(readings):
    """Telemetry documents shaped as ingest stores them, in stream order."""
    return [{"_id": f"{r.fridge_id}:{r.timestamp}", **dataclasses.asdict(r)}
            for r in readings]


def make_record(ts, fridge="f1", air_on=3.0, air_off=1.5, defrost=0, **kwargs):
    return Reading(
        timestamp=float(ts),
        fridge_id=fridge,
        air_on_temperature=air_on,
        air_off_temperature=air_off,
        defrost_state=defrost,
        **kwargs,
    )


# -------------------------------------------------------------- windowing


def contiguous_stream(n, fridge="f1", start=0.0, defrost_at=()):
    return [
        make_record(start + i * 60.0, fridge=fridge, air_on=3.0 + 0.01 * i,
                    defrost=1 if i in defrost_at else 0)
        for i in range(n)
    ]


FEATURES = ("air_on_temperature", "air_off_temperature")


def series_of(docs, names=FEATURES):
    """Every fridge's FridgeSeries of a stream of documents."""
    return fridge_series([document_columns(docs, names)], names)


def block(records):
    """The one fridge's FridgeSeries of a single-fridge stream."""
    (series,) = series_of(documents(records)).values()
    return series


def test_fridge_series_sorts_each_fridge_by_time():
    forwards = contiguous_stream(5)
    backwards = forwards[::-1]
    backwards[1], backwards[2] = backwards[2], backwards[1]
    got, want = block(backwards), block(forwards)
    assert got.timestamps.tolist() == [i * 60.0 for i in range(5)]
    assert got.features.tobytes() == want.features.tobytes()
    assert got.defrost.tobytes() == want.defrost.tobytes()

    # Time-interleaved, fridge-major with a later fridge starting earlier,
    # and fridge-major with the fridges in reverse: blocks come keyed in
    # sorted fridge order, each running forwards in time.
    interleaved = sorted(contiguous_stream(5, fridge="a") + contiguous_stream(5, fridge="b"),
                         key=lambda r: r.timestamp)
    fridge_major = contiguous_stream(5, fridge="a", start=600.0) + contiguous_stream(5, fridge="b")
    reversed_major = contiguous_stream(5, fridge="b") + contiguous_stream(5, fridge="a")
    for stream in (interleaved, fridge_major, reversed_major):
        series = series_of(documents(stream))
        assert list(series) == ["a", "b"]
        assert series["b"].timestamps.tolist() == [i * 60.0 for i in range(5)]

    # Equal timestamps keep stream order.
    ties = [make_record(60.0, air_on=value) for value in (5.0, 4.0, 6.0)]
    assert block(ties).features[:, 0].tolist() == [5.0, 4.0, 6.0]


@pytest.mark.parametrize("stamp", [None, True, False, "45"])
def test_document_columns_reject_a_timestamp_that_is_not_a_number(stamp):
    docs = documents(contiguous_stream(3))
    docs[1]["timestamp"] = stamp
    with pytest.raises(TypeError, match=f"fridge 'f1': timestamp {stamp!r} is not a number"):
        document_columns(docs, FEATURES)
    docs[1]["timestamp"] = 60
    (series,) = series_of(docs).values()
    assert series.timestamps.tolist() == [0.0, 60.0, 120.0]


def test_assemble_window_basic_and_strictness():
    records = contiguous_stream(10)
    series = block(records)
    matrix, end_ts, reason = assemble_window(series, records[5].timestamp, 5)
    assert reason is None
    # Strictly before: the record at the boundary timestamp is excluded.
    assert end_ts == records[4].timestamp
    assert matrix.shape == (5, 2)
    assert matrix[-1, 0] == records[4].air_on_temperature
    # A copy, not a view into the block.
    assert not np.shares_memory(matrix, series.features)


def test_fridge_series_feature_lookup_on_documents():
    # Base fields win over derived, derived wins over extra, even when the
    # derived value is not a number.
    odd = (None, "n/a", True, float("inf"))
    records = [
        make_record(60.0 * i, air_on=3.5,
                    derived={"air_on_temperature": 8.0, "both": 4.0, "odd": value},
                    extra={"air_on_temperature": 9.0, "both": 2.0, "odd": 5.0,
                           "door": 1.0})
        for i, value in enumerate(odd + (7,))
    ]
    docs = documents(records)
    assert field_value(docs[0], "air_on_temperature") == 3.5
    assert field_value(docs[0], "both") == 4.0
    assert field_value(docs[0], "odd") is None
    assert field_value(docs[0], "absent") is None
    names = ("air_on_temperature", "both", "door", "odd", "absent")
    (series,) = series_of(docs, names).values()
    nan = float("nan")
    want = np.array([[3.5, 4.0, 1.0, nan, nan]] * 4 + [[3.5, 4.0, 1.0, 7.0, nan]])
    np.testing.assert_array_equal(series.features, want)


def test_assemble_window_rejects():
    records = contiguous_stream(10)
    _, _, reason = assemble_window(block(records), records[3].timestamp, 5)
    assert reason == "insufficient_history"

    gappy = contiguous_stream(5) + contiguous_stream(5, start=1000 * 60.0)
    _, _, reason = assemble_window(block(gappy), gappy[-1].timestamp + 60.0, 8)
    assert reason == "window_gap"

    # Old history far from the boundary is a gap too.
    _, _, reason = assemble_window(block(contiguous_stream(10)), 10_000.0, 5)
    assert reason == "window_gap"

    defrosty = contiguous_stream(10, defrost_at={7})
    _, _, reason = assemble_window(block(defrosty), defrosty[9].timestamp, 5)
    assert reason == "defrost_in_window"
    matrix, _, reason = assemble_window(
        block(defrosty), defrosty[9].timestamp, 5, require_defrost_free=False
    )
    assert reason is None and matrix.shape == (5, 2)

    nanny = contiguous_stream(10)
    nanny[8] = make_record(nanny[8].timestamp, air_on=float("nan"))
    _, _, reason = assemble_window(block(nanny), nanny[9].timestamp + 60.0, 5)
    assert reason == "non_finite"


# Values a feature may hold that are not finite numbers, plus plain ints.
ODD_VALUES = (None, "n/a", "", True, False, float("nan"), float("inf"), -float("inf"), 7)
FEATURE_POOL = ("air_on_temperature", "air_off_temperature", "door", "air_on_diff")


def random_stream(rng, n):
    """A derived-looking stream with duplicates, short and long gaps,
    defrost runs, and now and then a value that is not a finite number."""
    records = []
    t = rng.uniform(0.0, 1e6)
    defrost_left = 0
    for _ in range(n):
        t += rng.choice((60.0,) * 12 + (0.0, 0.5, 30.0, 180.0, 181.0, 600.0))
        if defrost_left == 0 and rng.random() < 0.02:
            defrost_left = rng.randint(1, 20)
        defrost = 1 if defrost_left else 0
        defrost_left = max(0, defrost_left - 1)

        def value():
            return rng.choice(ODD_VALUES) if rng.random() < 0.004 else rng.gauss(3.0, 2.0)

        records.append(make_record(t, air_on=value(), air_off=value(), defrost=defrost,
                                   extra={"door": value()},
                                   derived={"air_on_diff": value()}))
    return records


def test_array_cut_matches_record_loop():
    """The array cut equals the per-record reference bit for bit."""
    rng = random.Random(20190601)
    reasons = set()
    for _ in range(40):
        records = random_stream(rng, rng.randint(50, 400))
        names = tuple(rng.sample(FEATURE_POOL, rng.randint(1, 3)))
        if rng.random() < 0.05:
            names += ("absent",)  # every window is non-finite
        docs = documents(records)
        (series,) = series_of(docs, names).values()
        assert not np.isinf(series.features).any()  # inf is stored as NaN
        for _ in range(60):
            if rng.random() < 0.5:
                boundary = rng.choice(records).timestamp
            else:
                boundary = rng.choice(records).timestamp + rng.uniform(-200.0, 200.0)
            window_len = rng.randint(1, 64)
            defrost_free = rng.random() < 0.5
            want = naive_window.assemble_window(
                docs, boundary, window_len, names, DEFAULT_CADENCE_S,
                DEFAULT_GAP_FACTOR, require_defrost_free=defrost_free,
            )
            got = assemble_window(series, boundary, window_len,
                                  require_defrost_free=defrost_free)
            assert got[2] == want[2]
            assert got[1] == want[1]
            if want[0] is None:
                assert got[0] is None
            else:
                assert got[0].shape == want[0].shape
                assert got[0].tobytes() == want[0].tobytes()
            reasons.add(want[2])
    assert reasons == {None, "insufficient_history", "window_gap",
                       "defrost_in_window", "non_finite"}


# ----------------------------------------------------- defrost extraction


def defrost_stream(pre=40, run=30, post=20, fridge="f1", start=0.0):
    """pre zeros, run ones, post zeros at a 60 s cadence."""
    records = []
    for i in range(pre + run + post):
        records.append(
            make_record(start + i * 60.0, fridge=fridge, air_on=2.0 + 0.05 * (i % 7),
                        defrost=1 if pre <= i < pre + run else 0)
        )
    return records


def test_extract_defrost_examples_target_oracle():
    # Run spans indices 40..69; first zero after it is index 70.
    # t0 = 2400 s, t1 = 4200 s, so the target is exactly 1800 s.
    records = defrost_stream(pre=40, run=30, post=20)
    examples, rejects = extract_defrost_examples(block(records), window_len=5, threshold=8.0)
    assert rejects == []
    assert len(examples) == 1
    ex = examples[0]
    assert ex.target_seconds == 1800.0
    assert ex.defrost_start_ts == 2400.0
    assert ex.window_end_ts == 39 * 60.0
    assert ex.lead_seconds == 0.0
    assert ex.observed.shape == (5, 2)
    assert ex.event_id == "f1:2400.0"


def test_extract_defrost_rejects():
    # Ends mid-defrost.
    records = defrost_stream(pre=40, run=30, post=0)
    examples, rejects = extract_defrost_examples(block(records), window_len=5, threshold=8.0)
    assert examples == [] and [r.reason for r in rejects] == ["incomplete_run"]

    # 5-step run is a 300 s duration: below the plausibility band.
    records = defrost_stream(pre=40, run=5, post=5)
    _, rejects = extract_defrost_examples(block(records), window_len=5, threshold=8.0)
    assert [r.reason for r in rejects] == ["implausible_duration"]

    # Run at the very start of the stream has no observable history.
    records = defrost_stream(pre=0, run=30, post=5)
    _, rejects = extract_defrost_examples(block(records), window_len=5, threshold=8.0)
    assert [r.reason for r in rejects] == ["insufficient_history"]

    # A gap inside the run makes the duration untrustworthy.
    records = defrost_stream(pre=40, run=30, post=20)
    records = [r for r in records if not (2700.0 <= r.timestamp <= 3300.0)]
    _, rejects = extract_defrost_examples(block(records), window_len=5, threshold=8.0)
    assert [r.reason for r in rejects] == ["run_gap"]


def test_extract_handles_multiple_fridges_and_runs():
    records = sorted(
        defrost_stream(fridge="a") + defrost_stream(fridge="b")
        + defrost_stream(fridge="a", start=90 * 60.0),
        key=lambda r: r.timestamp,
    )
    examples, rejects = [], []
    for series in series_of(documents(records)).values():
        found, rejected = extract_defrost_examples(series, window_len=5, threshold=8.0)
        examples += found
        rejects += rejected
    assert rejects == []
    assert sorted(ex.fridge_id for ex in examples) == ["a", "a", "b"]
    assert all(ex.target_seconds == 1800.0 for ex in examples)


def test_shift_for_lead_time():
    records = defrost_stream(pre=40, run=30, post=20)
    series = block(records)
    examples, _ = extract_defrost_examples(series, window_len=5, threshold=8.0)
    shifted = shift_for_lead_time(series, examples[0], 120.0)
    # Boundary slides to 2280 s: window covers indices 33..37.
    assert shifted.target_seconds == 1920.0
    assert shifted.window_end_ts == 37 * 60.0
    assert shifted.lead_seconds == 120.0
    assert shifted.defrost_start_ts == examples[0].defrost_start_ts
    # Window really is the earlier cut, not the original.
    assert shifted.observed[-1, 0] == records[37].air_on_temperature

    assert shift_for_lead_time(series, examples[0], 0.0) is examples[0]

    with pytest.raises(InsufficientHistory):
        shift_for_lead_time(series, examples[0], 2400.0)


# ------------------------------------------------------- fault extraction

PATTERNS = [
    r"store (?P<store_id>S\d+) fridge (?P<fridge_id>F\d+) (?P<fault_name>[a-z ]+) fault",
    r"fridge (?P<fridge_id>F\d+) needs (?P<fault_name>[a-z ]+)",
]


def test_parse_workorders():
    orders = [
        Workorder("store S01 fridge F001 icepack fault", 1000.0),
        Workorder("fridge F002 needs new compressor", 2000.0),
        Workorder("please mop aisle five", 3000.0),
    ]
    events, skipped = parse_workorders(orders, PATTERNS)
    assert skipped == 1
    assert [e.fridge_id for e in events] == ["F001", "F002"]
    assert events[0].store_id == "S01"
    assert events[0].fault_name == "icepack"
    assert events[1].store_id is None
    assert events[1].fault_name == "new compressor"
    assert events[1].timestamp == 2000.0


def fault_fixture():
    """Three fridges' blocks over two days, and two matching work orders."""
    day = 24 * 3600
    records = []
    for fridge in ("F001", "F002", "F003"):
        records.extend(
            make_record(i * 60.0, fridge=fridge, air_on=3.0 + 0.01 * (i % 5))
            for i in range(2 * day // 60)
        )
    records.sort(key=lambda r: r.timestamp)
    orders = [
        Workorder("store S01 fridge F001 icepack fault", 30 * 3600.0),
        Workorder("fridge F002 needs gas recharge", 40 * 3600.0),
    ]
    return series_of(documents(records)), orders


def test_merge_faults_positives_and_negative_distance():
    series, orders = fault_fixture()
    horizon = 4 * 3600.0
    examples, stats = merge_faults(
        series, orders, horizon, window_len=8, patterns=PATTERNS,
        negatives_per_positive=2.0, seed=7,
    )
    positives = [e for e in examples if e.label == "fault"]
    negatives = [e for e in examples if e.label == "no_fault"]
    assert stats.positives == len(positives) == 2
    assert stats.negatives == len(negatives) == 4
    assert stats.skipped_workorders == 0

    by_fridge_faults = {"F001": 30 * 3600.0, "F002": 40 * 3600.0}
    for ex in positives:
        fault_ts = by_fridge_faults[ex.fridge_id]
        # Window ends strictly before fault - horizon, within one cadence.
        assert fault_ts - horizon - 60.0 <= ex.window_end_ts < fault_ts - horizon
    for ex in negatives:
        if ex.fridge_id in by_fridge_faults:
            distance = abs(ex.window_end_ts - by_fridge_faults[ex.fridge_id])
            assert distance >= 2 * horizon - 60.0


def test_merge_faults_deterministic():
    series, orders = fault_fixture()
    kwargs = dict(horizon_seconds=4 * 3600.0, window_len=8, patterns=PATTERNS,
                  negatives_per_positive=3.0, seed=11)
    first, _ = merge_faults(series, orders, **kwargs)
    second, _ = merge_faults(series, orders, **kwargs)
    assert [(e.fridge_id, e.label, e.window_end_ts) for e in first] \
        == [(e.fridge_id, e.label, e.window_end_ts) for e in second]
    third, _ = merge_faults(series, orders, **{**kwargs, "seed": 12})
    assert [(e.fridge_id, e.label, e.window_end_ts) for e in first] \
        != [(e.fridge_id, e.label, e.window_end_ts) for e in third]


def test_merge_faults_unmatched_fridge_counted():
    series, _ = fault_fixture()
    orders = [Workorder("store S09 fridge F999 icepack fault", 30 * 3600.0)]
    examples, stats = merge_faults(
        series, orders, 4 * 3600.0, window_len=8, patterns=PATTERNS,
        seed=1,
    )
    assert stats.positives == 0 and stats.negatives == 0
    assert stats.unmatched_fridges == 1
    assert examples == []


def test_balance_classes():
    series, orders = fault_fixture()
    examples, _ = merge_faults(
        series, orders, 4 * 3600.0, window_len=8, patterns=PATTERNS,
        negatives_per_positive=5.0, seed=3,
    )
    balanced = balance_classes(examples, seed=0)
    labels = [e.label for e in balanced]
    assert labels.count("fault") == labels.count("no_fault") == 2
    assert balance_classes(examples, seed=0) == balanced

    with pytest.raises(SingleClass):
        balance_classes([e for e in examples if e.label == "no_fault"], seed=0)


# ----------------------------------------------------------------- splits


def test_split_dataset_counts_and_disjointness():
    ids = [f"ex{i}" for i in range(110)]
    test = split_dataset(ids, test_fraction=1 / 11, val_fraction=1 / 11, seed=42)
    assert len(test) == 10
    assert len(set(test)) == 10 and set(test) <= set(ids)
    again = split_dataset(ids, test_fraction=1 / 11, val_fraction=1 / 11, seed=42)
    assert again == test


def test_split_dataset_errors():
    with pytest.raises(TooFewExamples):
        split_dataset(["a", "b", "c"], 0.1, 0.1, seed=0)
    with pytest.raises(ValueError):
        split_dataset([f"e{i}" for i in range(100)], 0.6, 0.5, seed=0)
    with pytest.raises(ValueError):
        split_dataset([f"e{i}" for i in range(100)], 0.0, 0.1, seed=0)
