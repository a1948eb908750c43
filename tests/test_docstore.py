"""Store mechanics: persistence, locking, batch atomicity, shared views, blobs."""

import base64
import contextlib
import fcntl
import json
import math
import os
import random
import signal
import sys
import threading

import pytest
from test_processes import assert_no_child_process

from coldflow.docstore import (
    CorruptCollection,
    DocumentStore,
    DuplicateId,
    Encoded,
    LockHeld,
    NotFound,
    ReadOnlyStore,
    canonical_dumps,
    encode_documents,
    open_store,
    parse_document_line,
)
from coldflow.docstore.blobs import ChecksumMismatch, checksum64, model_content_id
from coldflow.processes import in_order_on_processes


def lock_is_free(store_dir) -> bool:
    """Whether a writer could take the store's lock now. A flock belongs to
    the open file, so a fresh open of ``.lock`` asks as another process
    would, in the process that holds the lock too."""
    try:
        fd = os.open(os.path.join(store_dir, ".lock"), os.O_RDONLY)
    except FileNotFoundError:
        return True
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    finally:
        os.close(fd)
    return True


@contextlib.contextmanager
def held_by_child(take):
    """Runs ``take()`` in a forked child that then waits, alive, until the
    block ends; yields the child's pid."""
    ready_r, ready_w = os.pipe()
    done_r, done_w = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(ready_r)
            os.close(done_w)
            held = take()  # kept alive, and so held, until the child leaves
            os.write(ready_w, b"x")
            os.read(done_r, 1)
        finally:
            os._exit(0)
    os.close(ready_w)
    os.close(done_r)
    try:
        assert os.read(ready_r, 1) == b"x"
        yield pid
    finally:
        os.close(done_w)
        os.close(ready_r)
        os.waitpid(pid, 0)


def exit_code_of_child(fn) -> int:
    """Runs ``fn()`` in a forked child, which leaves through ``os._exit``
    with the code ``fn`` returns, or 1 if it raises; returns that code."""
    if (pid := os.fork()) == 0:
        code = 1
        try:
            signal.alarm(60)  # a child that hangs dies, and the test fails
            code = fn()
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def test_roundtrip_reopen_identity(tmp_path):
    docs = [
        {"_id": "a", "n": 1, "x": 1.5, "s": "café", "flag": True, "nil": None},
        {"_id": "b", "nested": {"deep": {"k": [1, 2.0, "three", None]}}},
        {"_id": "c", "n": -7},
    ]
    with open_store(tmp_path / "s") as store:
        store.insert_many("things", docs)
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.find_all("things") == docs


def test_file_lines_are_canonical(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "x", "b": 2, "a": 1}])
    line = (tmp_path / "s" / "t.ndjson").read_text().strip()
    assert line == '{"_id":"x","a":1,"b":2}'
    # Canonical form round-trips byte-identically.
    assert canonical_dumps(json.loads(line)) == line


def test_int_float_distinction_survives(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "i", "v": 1}, {"_id": "f", "v": 1.0}])
    with open_store(tmp_path / "s", read_only=True) as store:
        by_id = {d["_id"]: d["v"] for d in store.find_all("t")}
    assert isinstance(by_id["i"], int)
    assert isinstance(by_id["f"], float)


def test_insert_batch_is_all_or_nothing(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "keep", "v": 0}])
        with pytest.raises(DuplicateId):
            store.insert_many("t", [{"_id": "new1"}, {"_id": "keep"}, {"_id": "new2"}])
        assert [d["_id"] for d in store.find_all("t")] == ["keep"]
    # Nothing from the failed batch reached the file either.
    lines = (tmp_path / "s" / "t.ndjson").read_text().splitlines()
    assert len(lines) == 1


def test_duplicate_id_within_batch(tmp_path):
    with open_store(tmp_path / "s") as store:
        with pytest.raises(DuplicateId):
            store.insert_many("t", [{"_id": "a"}, {"_id": "a"}])
        assert store.count("t") == 0


def test_missing_ids_assigned_unique(tmp_path):
    with open_store(tmp_path / "s") as store:
        ids = store.insert_many("t", [{"v": i} for i in range(20)])
    assert len(set(ids)) == 20
    assert all(isinstance(i, str) and i for i in ids)


def test_insertion_order_preserved(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": str(i)} for i in range(50)])
        store.insert_many("t", [{"_id": str(i)} for i in range(50, 75)])
        got = [d["_id"] for d in store.find_all("t")]
    assert got == [str(i) for i in range(75)]


def test_read_only_handle_rejects_writes(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "a"}])
    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(ReadOnlyStore):
            store.insert_many("t", [{"_id": "b"}])


def test_lock_held_by_live_foreign_process(tmp_path):
    store_dir = tmp_path / "s"
    with held_by_child(lambda: open_store(store_dir)) as pid:
        with pytest.raises(LockHeld, match=f"held by pid {pid}$"):
            open_store(store_dir, wait_for_lock_s=0.2)
        assert not lock_is_free(store_dir)
        # Readers are never blocked by the lock.
        with open_store(store_dir, read_only=True) as reader:
            assert reader.count("t") == 0
    open_store(store_dir).close()


def test_stale_lock_is_stolen(tmp_path):
    # A writer that dies with its handle open blocks no one.
    store_dir = tmp_path / "s"

    def die_writing():
        open_store(store_dir).insert_many("t", [{"_id": "a"}])
        os._exit(0)

    assert exit_code_of_child(die_writing) == 0
    with open_store(store_dir) as store:
        store.insert_many("t", [{"_id": "b"}])
        assert not lock_is_free(store_dir)
    assert lock_is_free(store_dir)
    assert (store_dir / ".lock").read_text() == str(os.getpid())  # its last holder


def test_a_lock_file_naming_a_live_pid_without_a_lock_opens_at_once(tmp_path):
    # A crashed writer's pid, reused by a live process that is no writer.
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    (store_dir / ".lock").write_text(str(os.getppid()))
    with open_store(store_dir) as store:
        store.insert_many("t", [{"_id": "a"}])


def test_a_child_holding_the_flock_blocks_until_it_exits(tmp_path):
    store_dir = tmp_path / "s"
    store_dir.mkdir()

    def take():
        fh = open(store_dir / ".lock", "a")
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fh

    with held_by_child(take):
        with pytest.raises(LockHeld):
            open_store(store_dir)
    open_store(store_dir).close()


def test_a_forked_childs_open_store_raises_lock_held(tmp_path):
    def write_from_child():
        try:
            open_store(tmp_path / "s").insert_many("t", [{"_id": "child"}])
        except LockHeld:
            return 0
        return 2

    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "parent"}])
        assert exit_code_of_child(write_from_child) == 0
        assert [doc["_id"] for doc in store.find_all("t")] == ["parent"]
    assert lock_is_free(tmp_path / "s")


def test_a_writer_that_dies_while_its_worker_runs_leaves_the_store_free(tmp_path):
    # The worker still waits in fn, and it would hold a forked copy of the
    # writer's lock descriptor had it not closed it.
    store_dir = tmp_path / "s"
    ready_r, ready_w = os.pipe()
    done_r, done_w = os.pipe()

    def fn(item):
        if item == 1:
            os.write(ready_w, b"x")
            os.read(done_r, 1)
        elif os.read(ready_r, 1) == b"x":
            os._exit(0)
        return item

    def die_mid_map():
        with open_store(store_dir), in_order_on_processes(fn, [0, 1], 2) as results:
            list(results)
        return 2

    try:
        assert exit_code_of_child(die_mid_map) == 0
        open_store(store_dir).close()
    finally:
        os.write(done_w, b"x")  # the orphaned worker's result finds no reader
        for fd in (ready_r, ready_w, done_r, done_w):
            os.close(fd)


def test_lock_reentrant_within_process(tmp_path):
    first = open_store(tmp_path / "s")
    second = open_store(tmp_path / "s")
    first.insert_many("t", [{"_id": "a"}])
    second.insert_many("u", [{"_id": "b"}])
    first.close()
    # Lock survives until the last same-process handle closes.
    assert not lock_is_free(tmp_path / "s")
    second.close()
    assert lock_is_free(tmp_path / "s")


def test_lock_released_on_close(tmp_path):
    store = open_store(tmp_path / "s")
    store.close()
    again = open_store(tmp_path / "s")
    again.close()


def test_corrupt_line_reported_with_position(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "ok"}])
    with open(tmp_path / "s" / "t.ndjson", "a") as fh:
        fh.write("{not json\n")
    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(CorruptCollection) as err:
            store.find_all("t")
    assert err.value.line_no == 2


def torn_store(tmp_path):
    """A store whose last append was cut short mid-line; returns the file
    and its bytes up to the last complete line."""
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "a", "v": 1}, {"_id": "b", "v": 2}])
        store.insert_many("t", [{"_id": "c", "v": 3}])
    path = tmp_path / "s" / "t.ndjson"
    data = path.read_bytes()
    complete = data[: data.index(b'{"_id":"c"')]
    path.write_bytes(data[:-7])
    return path, complete


def test_torn_tail_truncated_by_writer_first_touch(tmp_path, caplog):
    path, complete = torn_store(tmp_path)
    with open_store(tmp_path / "s") as store:
        assert [d["_id"] for d in store.find_all("t")] == ["a", "b"]
        assert path.read_bytes() == complete
        store.insert_many("t", [{"_id": "c", "v": 3}])
    assert "truncated an incomplete final line" in caplog.text
    assert "t.ndjson:3" in caplog.text
    with open_store(tmp_path / "s", read_only=True) as store:
        assert [d["_id"] for d in store.find_all("t")] == ["a", "b", "c"]


def test_torn_tail_skipped_by_reader(tmp_path, caplog):
    path, complete = torn_store(tmp_path)
    torn = path.read_bytes()
    with open_store(tmp_path / "s", read_only=True) as store:
        assert [d["_id"] for d in store.find_all("t")] == ["a", "b"]
    assert path.read_bytes() == torn
    assert "skipped an incomplete final line" in caplog.text


def test_torn_multibyte_tail_and_bad_utf8_line(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "a"}, {"_id": "b", "name": "K\u00fchlregal"}])
    path = tmp_path / "s" / "t.ndjson"
    data = path.read_bytes()
    path.write_bytes(data[: data.index("\u00fc".encode()) + 1])  # cut inside the umlaut
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.count("t") == 1
    path.write_bytes(b'{"_id":"a"}\n{"_id":"\xff"}\n')
    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(CorruptCollection) as err:
            store.count("t")
    assert err.value.line_no == 2


def test_duplicate_key_within_object_is_corrupt(tmp_path):
    store_dir = tmp_path / "s"
    store_dir.mkdir()
    (store_dir / "t.ndjson").write_text('{"_id":"a","k":1,"k":2}\n')
    with open_store(store_dir, read_only=True) as store:
        with pytest.raises(CorruptCollection):
            store.find_all("t")


def test_untouched_corrupt_collection_is_never_parsed(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("a", [{"_id": "x", "v": 1}])
        store.insert_many("b", [{"_id": "y"}])
    with open(tmp_path / "s" / "b.ndjson", "a") as fh:
        fh.write("{not json\n")
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.count("a") == 1
        assert store.get("a", "x") == {"_id": "x", "v": 1}
        assert store.aggregate("a", [{"$match": {"v": 1}}]) == [{"_id": "x", "v": 1}]
        with pytest.raises(CorruptCollection):
            store.count("b")


def test_lazy_aggregates_equal_eager_ones(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": str(i), "g": i % 7, "v": i * 0.5} for i in range(300)])
        store.insert_many("u", [{"_id": str(i), "g": i % 3} for i in range(50)])
    pipelines = [
        [],
        [{"$match": {"g": 3}}],
        [{"$match": {"v": {"$gte": 40}}}, {"$sort": {"v": -1}}, {"$limit": 9}],
        [{"$group": {"_id": "$g", "n": {"$sum": 1}, "top": {"$max": "$v"}}}],
        [{"$match": {"g": 1}}, {"$project": {"g": 1}}],
    ]
    with open_store(tmp_path / "s", read_only=True) as eager:
        for name in ("t", "u", "missing"):
            eager.count(name)
        for name in ("t", "u", "missing"):
            for pipeline in pipelines:
                with open_store(tmp_path / "s", read_only=True) as lazy:
                    assert lazy.aggregate(name, pipeline) == eager.aggregate(name, pipeline)


def test_first_touch_sees_other_writer_handles_batches(tmp_path):
    a = open_store(tmp_path / "s")
    b = open_store(tmp_path / "s")
    b.insert_many("c", [{"_id": "b1"}, {"_id": "b2"}])
    assert a.count("c") == 2
    with pytest.raises(DuplicateId):
        a.insert_many("c", [{"_id": "a1"}, {"_id": "b2"}])
    a.insert_many("c", [{"_id": "a1"}])
    a.close()
    b.close()
    with open_store(tmp_path / "s", read_only=True) as store:
        assert [d["_id"] for d in store.find_all("c")] == ["b1", "b2", "a1"]


def test_first_touch_during_appends_sees_whole_batches(tmp_path):
    # Writer handles in one process append 64-doc batches while fresh
    # writer handles first-touch the same collection: every view must hold
    # whole batches only, and every touch must parse cleanly.
    batch, waves, writers, readers = 64, 12, 3, 3
    pad = "x" * 300
    views, errors = [], []

    def write(w):
        try:
            with open_store(tmp_path / "s", wait_for_lock_s=10.0) as store:
                for wave in range(waves):
                    store.insert_many(
                        "c", [{"_id": f"{w}:{wave}:{i}", "pad": pad} for i in range(batch)]
                    )
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def read():
        try:
            for _ in range(waves):
                with open_store(tmp_path / "s", wait_for_lock_s=10.0) as store:
                    views.append(store.count("c"))
        except Exception as exc:
            errors.append(exc)

    anchor = open_store(tmp_path / "s")  # keeps the lock in this process
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        anchor.close()
    assert errors == []
    assert len(views) == readers * waves
    assert all(n % batch == 0 for n in views)
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.count("c") == batch * waves * writers


def test_first_touch_waits_for_an_append_in_flight(tmp_path, monkeypatch):
    a = open_store(tmp_path / "s")
    b = open_store(tmp_path / "s")
    b.insert_many("c", [{"_id": "b0"}])
    in_append, release = threading.Event(), threading.Event()
    real_fsync = os.fsync

    def held_fsync(fd):
        in_append.set()
        assert release.wait(timeout=30)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", held_fsync)
    seen = []
    writer = threading.Thread(target=b.insert_many, args=("c", [{"_id": "b1"}]))
    reader = threading.Thread(target=lambda: seen.append(a.count("c")))
    writer.start()
    try:
        assert in_append.wait(timeout=30)
        reader.start()
        reader.join(timeout=0.3)
        # B holds the append mutex, so A's first touch of c must wait for it.
        assert reader.is_alive()
    finally:
        release.set()
        writer.join(timeout=30)
    reader.join(timeout=30)
    assert not writer.is_alive() and not reader.is_alive()
    assert seen == [2]
    a.close()
    b.close()


def test_writer_handles_cannot_store_the_same_id(tmp_path):
    a = open_store(tmp_path / "s")
    b = open_store(tmp_path / "s")
    assert a.count("c") == 0 and b.count("c") == 0
    a.insert_many("c", [{"_id": "x", "by": "a"}])
    with pytest.raises(DuplicateId):
        b.insert_many("c", [{"_id": "x", "by": "b"}])
    a.close()
    b.close()
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.find_all("c") == [{"_id": "x", "by": "a"}]


def test_writer_handles_see_each_others_later_batches(tmp_path):
    a = open_store(tmp_path / "s")
    b = open_store(tmp_path / "s")
    try:
        a.insert_many("c", [{"_id": "a1"}])
        assert b.count("c") == 1
        b.insert_many("c", [{"_id": "b1"}, {"_id": "b2"}])
        assert a.absent("c", ["b2"]) == []
        assert a.count("c") == 3
        assert [d["_id"] for d in a.find_all("c")] == ["a1", "b1", "b2"]
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("read_only", [False, True])
def test_closed_handle_refuses_reads_and_writes(tmp_path, read_only):
    with open_store(tmp_path / "s") as store:
        store.insert_many("c", [{"_id": "a"}])
    before = (tmp_path / "s" / "c.ndjson").read_bytes()
    store = open_store(tmp_path / "s", read_only=read_only)
    assert store.count("c") == 1
    store.close()
    store.close()
    for call in (lambda: store.count("c"), lambda: store.absent("c", ["a"]),
                 lambda: store.get("c", "a"),
                 lambda: store.find_all("c"), lambda: store.count("fresh")):
        with pytest.raises(ValueError, match="closed"):
            call()
    with pytest.raises(ReadOnlyStore if read_only else ValueError):
        store.insert_many("c", [{"_id": "b"}])
    assert (tmp_path / "s" / "c.ndjson").read_bytes() == before
    assert lock_is_free(tmp_path / "s")


@pytest.mark.parametrize(
    "line",
    [
        "{not json",
        '{"_id":"a","k":1,"k":2}',
        '{"_id":"a","m":{"k":1,"k":2}}',
        "[1,2]",
        '{"_id":7}',
    ],
)
def test_parse_document_line_rejects(line):
    with pytest.raises(CorruptCollection) as err:
        parse_document_line(line, "t.ndjson", 5)
    assert (err.value.path, err.value.line_no) == ("t.ndjson", 5)


def test_rejected_duplicates_append_nothing(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "keep"}])
        before = (tmp_path / "s" / "t.ndjson").read_bytes()
        with pytest.raises(DuplicateId):
            store.insert_many("t", [{"_id": "new"}, {"_id": "keep"}])
        with pytest.raises(DuplicateId):
            store.insert_many("t", [{"_id": "n1"}, {"_id": "n2"}, {"_id": "n1"}])
        assert (tmp_path / "s" / "t.ndjson").read_bytes() == before
        assert store.count("t") == 1
        store.insert_many("t", [{"_id": "new"}])
        assert store.count("t") == 2


def test_aggregate_on_missing_collection_is_empty(tmp_path):
    with open_store(tmp_path / "s") as store:
        assert store.aggregate("nothing", [{"$match": {"a": 1}}]) == []


def test_get_not_found(tmp_path):
    with open_store(tmp_path / "s") as store:
        with pytest.raises(NotFound):
            store.get("t", "missing")


def test_get_returns_a_deep_copy(tmp_path):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "x", "extra": {"a": 1}, "tags": [{"b": 2}]}])
        got = store.get("t", "x")
        got["extra"]["a"] = 99
        got["tags"][0]["b"] = 99
        want = {"_id": "x", "extra": {"a": 1}, "tags": [{"b": 2}]}
        assert store.get("t", "x") == want
        assert store.find_all("t") == [want]


def test_duplicate_key_reason_names_the_key():
    with pytest.raises(CorruptCollection) as err:
        parse_document_line('{"_id":"a","m":{"j":0,"k":1,"k":2},"n":3}')
    assert err.value.reason == "duplicate key 'k' within one object"


def _json_value(rng, depth):
    text = "".join(rng.choice("aZ é中€\n\"\\\x00 😀") for _ in range(rng.randrange(6)))
    scalars = [
        None, True, False, text, -0.0, 0.0, 1e-320, 1.7976931348623157e308,
        rng.uniform(-1e6, 1e6), rng.randrange(-10**6, 10**6), 2**63, -(10**40),
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(scalars)
    if rng.random() < 0.5:
        return [_json_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {f"{text}{i}": _json_value(rng, depth - 1) for i in range(rng.randrange(4))}


def test_canonical_dumps_matches_json_dumps():
    rng = random.Random(7)
    corpus = [_json_value(rng, 4) for _ in range(2000)]
    corpus += [{}, [], {"a": {}, "b": []}, -0.0, 10**30, "é中😀", {"z": 1, "a": [True, 1.5]}]
    for value in corpus:
        assert canonical_dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
            allow_nan=False,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_rejects_the_batch(tmp_path, bad):
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", [{"_id": "keep", "v": 1.0}])
        before = (tmp_path / "s" / "t.ndjson").read_bytes()
        for doc in ({"_id": "x", "v": bad}, {"_id": "x", "m": {"v": [0.0, bad]}}):
            with pytest.raises(ValueError):
                store.insert_many("t", [{"_id": "ok"}, doc])
        assert (tmp_path / "s" / "t.ndjson").read_bytes() == before
        assert store.absent("t", ["ok"]) == [0]
        assert store.count("t") == 1


def test_reads_of_a_missing_collection(tmp_path):
    with open_store(tmp_path / "s") as store:
        assert store.find_all("t") == []
        assert store.absent("t", ["a"]) == [0]
    assert not (tmp_path / "s" / "t.ndjson").exists()


def test_find_all_returns_documents_in_insertion_order(tmp_path):
    docs = [{"_id": f"d{i}", "v": (i * 7) % 5} for i in (3, 1, 4, 0, 2)]
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", docs[:3])
        store.insert_many("t", docs[3:])
        found = store.find_all("t")
        assert found == docs
        found.pop()
        assert store.count("t") == 5
        assert store.absent("t", [d["_id"] for d in docs]) == []
        assert store.absent("t", ["d9"]) == [0]
    with open_store(tmp_path / "s", read_only=True) as reader:
        assert reader.find_all("t") == docs


def test_reads_see_first_touch_plus_own_writes(tmp_path):
    writer = open_store(tmp_path / "s")
    reader = open_store(tmp_path / "s", read_only=True)
    try:
        writer.insert_many("t", [{"_id": "a"}])
        # The reader's first touch is now: it sees the flushed batch.
        assert reader.absent("t", ["a"]) == []
        writer.insert_many("t", [{"_id": "b"}])
        assert reader.absent("t", ["b"]) == [0]
        assert [d["_id"] for d in reader.find_all("t")] == ["a"]
        assert [d["_id"] for d in writer.find_all("t")] == ["a", "b"]
    finally:
        reader.close()
        writer.close()
    with open(tmp_path / "s" / "u.ndjson", "w") as fh:
        fh.write("{not json\n")
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.absent("t", ["b"]) == []
        with pytest.raises(CorruptCollection):
            store.find_all("u")


def test_encoded_appends_keep_ids_and_the_next_read_reloads_once(tmp_path, monkeypatch):
    loads = []
    real_load = DocumentStore._load_collection

    def counting_load(file_path, writer, **kwargs):
        loads.append(os.path.basename(file_path))
        return real_load(file_path, writer, **kwargs)

    monkeypatch.setattr(DocumentStore, "_load_collection", staticmethod(counting_load))
    docs = [{"_id": f"d{i}", "v": i, "m": {"z": [i, 0.5]}} for i in range(6)]
    store = open_store(tmp_path / "s")
    store.insert_many("t", docs[:2])
    assert store.insert_many("t", encode_documents("t", docs[2:4])) == ["d2", "d3"]
    assert store.absent("t", ["d3", "d9"]) == [1]
    assert store.count("t") == 4
    with pytest.raises(DuplicateId):
        store.insert_many("t", encode_documents("t", docs[3:5]))
    store.insert_many("t", docs[4:5])
    store.insert_many("t", encode_documents("t", docs[5:]))
    assert loads == ["t.ndjson"]
    # The first read of the documents parses the file once, and sees them all.
    assert store.find_all("t") == docs
    assert store.get("t", "d5") == docs[5]
    assert loads == ["t.ndjson"] * 2
    store.close()
    with pytest.raises(ValueError, match="closed"):
        store.absent("t", ["d0"])
    with open_store(tmp_path / "plain") as plain:
        plain.insert_many("t", docs)
    assert (tmp_path / "s" / "t.ndjson").read_bytes() == \
        (tmp_path / "plain" / "t.ndjson").read_bytes()


def test_a_writers_reads_after_a_list_insert_match_its_file(tmp_path):
    # The collection's documents are in the view before the insert, and the
    # caller changes its document after it: the handle still reads the file.
    doc = {"_id": "a", "v": (1, 2), "n": {"k": [1]}}
    match = [{"$match": {"v": [1, 2]}}]
    with open_store(tmp_path / "s") as store:
        assert store.find_all("c") == []
        store.insert_many("c", [doc])
        doc["n"]["k"].append(99)
        seen = store.get("c", "a"), store.aggregate("c", match)
    with open_store(tmp_path / "s") as store:
        reopened = store.get("c", "a"), store.aggregate("c", match)
    assert seen == reopened == ({"_id": "a", "v": [1, 2], "n": {"k": [1]}},
                                [{"_id": "a", "v": [1, 2], "n": {"k": [1]}}])


def test_a_writers_first_id_check_keeps_only_ids(tmp_path):
    docs = [{"_id": f"d{i}", "v": i} for i in range(4)]
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", docs)
    with open_store(tmp_path / "s") as store:
        assert store.absent("t", ["d1"]) == []
        assert store._view.collections["t"].docs is None
        assert store.absent("t", ["d0", "zz", "d3", "yy"]) == [1, 3]
        assert store.find_all("t") == docs
    with open_store(tmp_path / "s", read_only=True) as reader:
        assert reader.count("t") == 4
        assert reader._view.collections["t"].docs == docs


def ranged_store(tmp_path, n=40):
    """A store whose collection t holds n documents; returns the file and
    the documents."""
    docs = [{"_id": f"d{i:02d}", "v": i} for i in range(n)]
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", docs)
    return tmp_path / "s" / "t.ndjson", docs


def test_map_ranges_reads_each_document_once_in_file_order(tmp_path):
    _, docs = ranged_store(tmp_path)
    for width in (1, 2, 3):
        with open_store(tmp_path / "s", read_only=True) as store:
            parts = store.map_ranges("t", list, width)
            assert "t" not in store._view.collections
        assert len(parts) == width
        assert [doc for part in parts for doc in part] == docs
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.map_ranges("missing", list, 2) == [[]]


def test_map_ranges_workers_leave_the_lock_and_no_process(tmp_path):
    _, docs = ranged_store(tmp_path)
    with open_store(tmp_path / "s") as store:
        parts = store.map_ranges("t", list, 3)
        assert not lock_is_free(tmp_path / "s")
        assert_no_child_process()
        store.insert_many("t", [{"_id": "late"}])
    assert [doc for part in parts for doc in part] == docs
    assert lock_is_free(tmp_path / "s")


def test_map_ranges_truncates_or_skips_a_torn_tail(tmp_path, caplog):
    path, complete = torn_store(tmp_path)
    torn = path.read_bytes()
    with open_store(tmp_path / "s", read_only=True) as store:
        parts = store.map_ranges("t", list, 2)
    assert [doc["_id"] for part in parts for doc in part] == ["a", "b"]
    assert path.read_bytes() == torn
    assert "t.ndjson:3: skipped an incomplete final line" in caplog.text
    with open_store(tmp_path / "s") as store:
        parts = store.map_ranges("t", list, 2)
    assert [doc["_id"] for part in parts for doc in part] == ["a", "b"]
    assert path.read_bytes() == complete
    assert "t.ndjson:3: truncated an incomplete final line" in caplog.text


@pytest.mark.parametrize("last_line", [
    b'{"_id":"d00","v":0}\n',  # the first line's _id, in the other range
    b'{"_id":"x","k":1,"k":2}\n',  # a repeated key
    b'{"v":1}\n',
    b'{"_id":"\xff"}\n',
])
def test_map_ranges_reports_corruption_as_a_first_touch_does(tmp_path, last_line):
    path, docs = ranged_store(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + last_line)
    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(CorruptCollection) as ranged:
            store.map_ranges("t", list, 2)
    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(CorruptCollection) as first_touch:
            store.count("t")
    assert ranged.value.line_no == len(docs)
    assert str(ranged.value) == str(first_touch.value)


def test_encode_documents_checks_without_a_store():
    doc = {"v": 1}
    encoded = encode_documents("t", [doc, {"_id": "b", "w": [1.5]}])
    assert doc == {"v": 1}
    assert encoded.ids[1] == "b" and encoded.lines[1] == '{"_id":"b","w":[1.5]}\n'
    assert json.loads(encoded.lines[0]) == {"_id": encoded.ids[0], "v": 1}
    assert len(encoded) == 2
    assert encoded.take([1]) == Encoded(["b"], ['{"_id":"b","w":[1.5]}\n'])
    with pytest.raises(DuplicateId):
        encode_documents("t", [{"_id": "a"}, {"_id": "a"}])
    with pytest.raises(TypeError):
        encode_documents("t", [{"_id": 7}])
    with pytest.raises(ValueError):
        encode_documents("t", [{"_id": "a", "v": math.nan}])


MIB = 1024 * 1024


def blob_of(n_bytes: int) -> bytes:
    return bytes((i * 31 + 7) % 256 for i in range(n_bytes))


# Sizes up to just past 4 MiB: each is one line whatever its size.
@pytest.mark.parametrize("size", [0, 1, 4 * MIB - 1, 4 * MIB, 4 * MIB + 1])
def test_model_blob_roundtrip_sizes(tmp_path, size):
    data = blob_of(size)
    with open_store(tmp_path / "s") as store:
        model_id = store.put_model({"kind": "test", "size": size}, data)
        meta, back = store.get_model(model_id)
    assert back == data
    assert meta["size"] == size


def test_nine_mib_blob_is_one_line(tmp_path):
    data = blob_of(9 * MIB)
    with open_store(tmp_path / "s") as store:
        model_id = store.put_model({"kind": "big"}, data)
    assert sorted(p.name for p in (tmp_path / "s").glob("*.ndjson")) == ["models.ndjson"]
    (line,) = (tmp_path / "s" / "models.ndjson").read_text().splitlines()
    doc = json.loads(line)
    assert sorted(doc) == ["_id", "checksum", "data", "meta", "total_bytes"]
    assert (doc["_id"], doc["total_bytes"], doc["meta"]) == (model_id, len(data), {"kind": "big"})
    with open_store(tmp_path / "s", read_only=True) as store:
        assert store.get_model(model_id) == ({"kind": "big"}, data)


def test_reput_identical_content_is_idempotent(tmp_path):
    data = blob_of(1024)
    with open_store(tmp_path / "s") as store:
        a = store.put_model({"kind": "m"}, data)
        b = store.put_model({"kind": "m"}, data)
        assert a == b
        assert store.count("models") == 1


def test_created_field_does_not_change_model_id(tmp_path):
    data = blob_of(64)
    with open_store(tmp_path / "s") as store:
        a = store.put_model({"kind": "m", "created": 1.0}, data)
    with open_store(tmp_path / "s2") as store:
        b = store.put_model({"kind": "m", "created": 2.0}, data)
    assert a == b


def test_tampered_blob_detected(tmp_path):
    data = blob_of(4096)
    with open_store(tmp_path / "s") as store:
        model_id = store.put_model({"kind": "m"}, data)

    path = tmp_path / "s" / "models.ndjson"
    doc = json.loads(path.read_text())
    payload = list(doc["data"])
    payload[10] = "A" if payload[10] != "A" else "B"
    doc["data"] = "".join(payload)
    path.write_text(canonical_dumps(doc) + "\n")

    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(ChecksumMismatch):
            store.get_model(model_id)


def test_chunked_model_manifest_raises_checksum_mismatch(tmp_path):
    # Models were once a manifest of chunk ids in ``models`` plus base64
    # chunks in ``model_chunks``. Such a manifest holds no ``data``.
    data, meta = blob_of(1000), {"kind": "m"}
    model_id = model_content_id(meta, data)
    (tmp_path / "s").mkdir()
    (tmp_path / "s" / "models.ndjson").write_text(canonical_dumps({
        "_id": model_id, "model_id": model_id, "chunk_ids": [f"{model_id}.00000"],
        "total_bytes": len(data), "checksum": checksum64(data), "meta": meta}) + "\n")
    (tmp_path / "s" / "model_chunks.ndjson").write_text(canonical_dumps({
        "_id": f"{model_id}.00000", "model_id": model_id, "seq": 0,
        "data": base64.b64encode(data).decode("ascii")}) + "\n")
    with open_store(tmp_path / "s", read_only=True) as store:
        with pytest.raises(ChecksumMismatch):
            store.get_model(model_id)


def test_unknown_model_raises_not_found(tmp_path):
    with open_store(tmp_path / "s") as store:
        with pytest.raises(NotFound):
            store.get_model("deadbeef")
