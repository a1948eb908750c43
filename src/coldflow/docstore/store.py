"""File-backed document store: NDJSON collections and an advisory lock.

Layout: a store is a directory; each collection ``name`` lives in
``<store>/name.ndjson`` with one canonical document per line in insertion
order. ``<store>/.lock`` holds the writer pid while a writer handle is open.

Collections load lazily: opening a store takes the lock (writers) and
nothing more. A collection's file is parsed the first time a handle's view
is asked for that collection (``get``, ``count``, ``aggregate``,
``find_all``, ``absent`` or ``insert_many``), so a task pays only for
what it reads, and a corrupt file raises CorruptCollection at that
touch. A writer's first ``absent``, ``count`` or ``insert_many`` keeps
only the collection's ids; the first read of its documents parses the
file again. A final line without its newline is an
append cut short by a crash: a writer handle truncates it at first touch
and a reader skips it, and both log a warning.

Writes: ``insert_many`` takes a list of documents, or an :class:`Encoded`
batch already checked and encoded (by :func:`encode_documents`, or for
telemetry by ``telemetry.derive_features`` straight from a batch's
columns), perhaps in another process.
After either, the view keeps only the collection's ids, so ``absent``,
``count`` and later inserts still need no parse, and the next read of the
documents reloads the file once: what a handle reads is what the file
holds, never a caller's object.

Reads: ``get``, ``aggregate`` and ``find_all`` return deep copies the caller
may change. ``map_ranges`` reads a large collection without the view: it
splits the file's complete lines into byte ranges, reads them on forked
processes, and returns what a caller's function made of each range's
documents (the wrangle stage's telemetry columns), checking every line as
a first touch does.

Concurrency contract: one writer process at a time (advisory lock file),
any number of readers. Within a process the lock is reentrant: several
writer handles may coexist, on one thread or several, and they share
one view of the store, held with the lock file: each collection is parsed
once, and every read, id check and append of every writer handle runs
under the view's one lock. So a writer handle sees every other writer
handle's batches, whole, and two handles can never store the same _id.
The view goes when the last writer handle closes. A read-only handle keeps
a private view: each collection as it was flushed at the handle's first
touch of it; reopen to see later writes. A closed handle refuses every
read and write.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
import time
import uuid
from dataclasses import dataclass

from coldflow.docstore.documents import CorruptCollection, canonical_dumps, parse_document_line
from coldflow.docstore.pipeline import AggregationPipeline, _deep_copy_json, parse_pipeline
from coldflow.processes import in_order_on_processes

log = logging.getLogger(__name__)


class LockHeld(Exception):
    """Another live writer process holds the store's lock file."""


class DuplicateId(Exception):
    """An _id in the batch collides with the collection or the batch itself."""


class NotFound(Exception):
    """No document/model with the requested id."""


class ReadOnlyStore(Exception):
    """Write attempted through a read-only handle."""


_LOCK_POLL_S = 0.05


class _ProcessLockRegistry:
    """Per-process bookkeeping that makes the writer lock reentrant.

    Maps canonical store path -> [refcount, view]. The view is shared by
    every writer handle of this process, so they all check ids against and
    append to the same collections.
    """

    def __init__(self):
        self._guard = threading.Lock()
        self._held: dict[str, list] = {}

    def acquire(self, store_dir: str, lock_path: str, wait_s: float) -> _View:
        deadline = time.monotonic() + wait_s
        while True:
            with self._guard:
                state = self._held.get(store_dir)
                if state is not None:
                    state[0] += 1
                    return state[1]
                if self._try_create(lock_path):
                    view = _View()
                    self._held[store_dir] = [1, view]
                    return view
            if time.monotonic() >= deadline:
                raise LockHeld(f"writer lock busy: {lock_path}")
            time.sleep(_LOCK_POLL_S)

    def release(self, store_dir: str, lock_path: str):
        with self._guard:
            state = self._held.get(store_dir)
            if state is None:
                return
            state[0] -= 1
            if state[0] <= 0:
                del self._held[store_dir]
                try:
                    os.unlink(lock_path)
                except FileNotFoundError:
                    pass

    def _try_create(self, lock_path: str) -> bool:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if self._is_stale(lock_path):
                try:
                    os.unlink(lock_path)
                except FileNotFoundError:
                    pass
                return self._try_create(lock_path)
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return True

    @staticmethod
    def _is_stale(lock_path: str) -> bool:
        try:
            with open(lock_path) as fh:
                pid = int(fh.read().strip())
        except (OSError, ValueError):
            return True
        if pid == os.getpid():
            # Not in the registry yet claims our pid: leftover from a
            # previous process with a recycled pid, or a crashed run.
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False
        return False


_REGISTRY = _ProcessLockRegistry()


@dataclass(slots=True)
class Encoded:
    """A checked batch, as :func:`encode_documents` makes it: each
    document's _id and its canonical line, newline included, in batch
    order. Its length is its document count."""

    ids: list[str]
    lines: list[str]

    def take(self, keep: list[int]) -> Encoded:
        """The documents at the given batch positions, in that order."""
        return Encoded([self.ids[i] for i in keep], [self.lines[i] for i in keep])

    def __len__(self) -> int:
        return len(self.ids)


def encode_documents(collection: str, docs: list[dict]) -> Encoded:
    """Check a batch and encode each document to its canonical line.

    Every document must be a dict. One without an _id is encoded with a
    fresh unique one, the caller's dict untouched; an _id must be a string
    and appear once in the batch (DuplicateId). Non-finite floats raise
    ValueError. Needs no store, so a worker process can run it.
    """
    ids, lines, seen = [], [], set()
    for doc in docs:
        if not isinstance(doc, dict):
            raise TypeError("documents must be JSON objects")
        if "_id" not in doc:
            doc = dict(doc, _id=uuid.uuid4().hex)
        doc_id = doc["_id"]
        if not isinstance(doc_id, str):
            raise TypeError("_id must be a string")
        if doc_id in seen:
            raise DuplicateId(f"{collection}: _id {doc_id!r} already present")
        seen.add(doc_id)
        ids.append(doc_id)
        lines.append(canonical_dumps(doc) + "\n")
    return Encoded(ids, lines)


class _Collection:
    """A collection's ids, each mapped to its line's position, and its
    documents; ``docs`` is None when a first touch kept only the ids, or
    once a batch was appended."""

    def __init__(self, docs: bool):
        self.docs: list[dict] | None = [] if docs else None
        self.by_id: dict[str, int] = {}


class _View:
    """Parsed collections by name, and the lock that every read and append
    of them takes."""

    def __init__(self):
        self.lock = threading.RLock()
        self.collections: dict[str, _Collection] = {}


def _complete_size(file_path: str, writer: bool) -> int:
    """The length of the file's complete lines; 0 when there is no file.

    Every append ends in a newline, so a final line without one is a write
    that never completed: a writer truncates it away, a reader leaves it
    out; both log it.
    """
    try:
        fh = open(file_path, "rb")
    except FileNotFoundError:
        return 0
    with fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(size - 1, 0))
        if fh.read(1) in (b"", b"\n"):
            return size
        fh.seek(0)
        end = line_no = 0
        for raw in fh:  # only after a crash: find the torn line and its number
            line_no += 1
            if raw.endswith(b"\n"):
                end += len(raw)
    if writer:
        os.truncate(file_path, end)
    log.warning("%s:%d: %s an incomplete final line (%d bytes)", file_path, line_no,
                "truncated" if writer else "skipped", size - end)
    return end


def _lines(file_path: str, start: int, end: int):
    """The lines in bytes [start, end) of a file, which hold whole lines,
    each without its newline."""
    if start >= end:
        return
    with open(file_path, "rb") as fh:
        fh.seek(start)
        for raw in fh:
            yield raw[:-1]
            start += len(raw)
            if start >= end:
                return


def _checked_document(raw: bytes, file_path: str, line_no: int) -> dict | None:
    """One stored line, checked as every read of a collection file checks
    it: utf-8, one JSON object with no repeated key, and an _id. None for
    an empty line; CorruptCollection names the path and line otherwise."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptCollection(file_path, line_no, str(exc)) from None
    if not line:
        return None
    doc = parse_document_line(line, file_path, line_no)
    if "_id" not in doc:
        raise CorruptCollection(file_path, line_no, "document lacks _id")
    return doc


def _line_spans(file_path: str, end: int, parts: int) -> list[tuple[int, int]]:
    """Split bytes [0, end) of a file, whole lines, into at most ``parts``
    (start, end) ranges of about equal size that hold whole lines."""
    cuts = [0]
    if end:
        with open(file_path, "rb") as fh:
            for k in range(1, parts):
                fh.seek(max(end * k // parts, cuts[-1]))
                fh.readline()
                if fh.tell() >= end:
                    break
                cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [end]))


def _read_span(file_path: str, fn, span: tuple[int, int]):
    """``(ids, fn(documents))`` for the documents in one byte range of a
    collection file, each checked by :func:`_checked_document`; ``(None,
    None)`` when a line is corrupt. Needs no handle, so a worker runs it."""
    ids = []

    def documents():
        for raw in _lines(file_path, *span):
            doc = _checked_document(raw, file_path, 0)
            if doc is not None:
                ids.append(doc["_id"])
                yield doc

    docs = documents()
    try:
        result = fn(docs)
        for _ in docs:  # every line is checked, even past where fn stopped
            pass
    except CorruptCollection:
        return None, None
    return ids, result


class DocumentStore:
    """Handle over one store directory. Use :func:`open_store`."""

    def __init__(self, path: str, read_only: bool, wait_for_lock_s: float):
        self.path = os.path.abspath(path)
        self.read_only = read_only
        os.makedirs(self.path, exist_ok=True)
        self._view = _View() if read_only else _REGISTRY.acquire(
            self.path, os.path.join(self.path, ".lock"), wait_for_lock_s
        )
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def close(self):
        with self._view.lock:
            if self._closed:
                return
            self._closed = True
        if not self.read_only:
            _REGISTRY.release(self.path, os.path.join(self.path, ".lock"))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -------------------------------------------------------------- loading

    def _touch(self, name: str, docs: bool = True) -> _Collection:
        """One collection of this handle's view, parsed on first touch.

        Call with the view's lock held. A collection whose file does not
        exist yet starts empty. Without ``docs`` a writer's first touch
        keeps only the ids; a reader's keeps the documents, which are its
        snapshot. With ``docs``, a collection that holds only ids is
        parsed again.
        """
        if self._closed:
            raise ValueError(f"store {self.path} is closed")
        coll = self._view.collections.get(name)
        if coll is None or (docs and coll.docs is None):
            coll = self._load_collection(self._file_for(name), not self.read_only,
                                         docs=docs or self.read_only)
            self._view.collections[name] = coll
        return coll

    @staticmethod
    def _load_collection(file_path: str, writer: bool, docs: bool = True) -> _Collection:
        """Parse one collection file, keeping its documents, or with
        ``docs`` false only their ids. Its complete lines only: see
        :func:`_complete_size`."""
        coll = _Collection(docs)
        lines = _lines(file_path, 0, _complete_size(file_path, writer))
        for line_no, raw in enumerate(lines, start=1):
            doc = _checked_document(raw, file_path, line_no)
            if doc is None:
                continue
            if doc["_id"] in coll.by_id:
                raise CorruptCollection(file_path, line_no, f"duplicate _id {doc['_id']!r}")
            coll.by_id[doc["_id"]] = len(coll.by_id)
            if docs:
                coll.docs.append(doc)
        return coll

    def _file_for(self, name: str) -> str:
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise ValueError(f"bad collection name {name!r}")
        return os.path.join(self.path, f"{name}.ndjson")

    # ------------------------------------------------------------------ api

    def count(self, collection: str) -> int:
        with self._view.lock:
            return len(self._touch(collection, docs=False).by_id)

    def insert_many(self, collection: str, docs: list[dict] | Encoded) -> list[str]:
        """Insert a batch atomically; returns the assigned ids.

        ``docs`` is a list of documents, checked and encoded here by
        :func:`encode_documents`, or an :class:`Encoded` batch. Every _id is
        then checked against the collection; only then are the lines
        appended and flushed, so a failed call inserts nothing. Afterwards
        the view keeps the collection's ids but not its documents, and the
        next read of them parses the file.
        """
        if self.read_only:
            raise ReadOnlyStore("insert_many on a read-only handle")
        encoded = docs if isinstance(docs, Encoded) else encode_documents(collection, docs)
        with self._view.lock:
            coll = self._touch(collection, docs=False)
            for doc_id in encoded.ids:
                if doc_id in coll.by_id:
                    raise DuplicateId(f"{collection}: _id {doc_id!r} already present")
            with open(self._file_for(collection), "a", encoding="utf-8") as fh:
                fh.write("".join(encoded.lines))
                fh.flush()
                os.fsync(fh.fileno())
            coll.docs = None
            for doc_id in encoded.ids:
                coll.by_id[doc_id] = len(coll.by_id)
        return list(encoded.ids)

    def get(self, collection: str, doc_id: str) -> dict:
        with self._view.lock:
            coll = self._touch(collection)
            if doc_id not in coll.by_id:
                raise NotFound(f"{collection}/{doc_id}")
            return _deep_copy_json(coll.docs[coll.by_id[doc_id]])

    def absent(self, collection: str, ids: list[str]) -> list[int]:
        """The positions, in order, of the ids the collection does not hold,
        all checked under one lock."""
        with self._view.lock:
            stored = self._touch(collection, docs=False).by_id
            return [i for i, doc_id in enumerate(ids) if doc_id not in stored]

    def map_ranges(self, collection: str, fn, width: int) -> list:
        """``fn`` over the collection's documents, one call per byte range.

        The file's complete lines (see :func:`_complete_size`, applied under
        the view's lock) are split into at most ``width`` ranges of whole
        lines. ``fn`` gets an iterator over one range's documents, checked
        line by line as a first touch checks them, and its results come
        back in file order. The first range is read here and the others on
        forked workers (:func:`coldflow.processes.in_order_on_processes`),
        so ``fn`` and what it returns must pickle. The documents never
        enter the view, and a worker uses no handle. An _id must be unique
        across the whole file: after a duplicate, a corrupt line or a
        failing ``fn``, the file is checked once more as a first touch
        checks it, so a CorruptCollection names the path and line exactly
        as ``count`` or ``find_all`` would.
        """
        with self._view.lock:
            if self._closed:
                raise ValueError(f"store {self.path} is closed")
            file_path = self._file_for(collection)
            spans = _line_spans(file_path, _complete_size(file_path, not self.read_only),
                                width)
        results, seen, count, error = [], set(), 0, None
        try:
            with in_order_on_processes(functools.partial(_read_span, file_path, fn),
                                       spans, width) as parts:
                for ids, result in parts:
                    if ids is None:
                        break
                    seen.update(ids)
                    count += len(ids)
                    results.append(result)
        except Exception as exc:
            error = exc
        if error is not None or len(results) < len(spans) or len(seen) < count:
            self._load_collection(file_path, writer=False, docs=False)
            raise error or CorruptCollection(file_path, 0, "changed while it was read")
        return results

    def aggregate(self, collection: str, pipeline) -> list[dict]:
        """Run an aggregation pipeline (list of stage dicts or a parsed
        AggregationPipeline) over one collection's documents; returns copies."""
        if not isinstance(pipeline, AggregationPipeline):
            pipeline = parse_pipeline(pipeline)
        with self._view.lock:
            docs = list(self._touch(collection).docs)
        return pipeline.run(docs)

    def find_all(self, collection: str) -> list[dict]:
        return self.aggregate(collection, [])

    # Model blob storage lives in blobs.py; bound here for ergonomics.

    def put_model(self, meta: dict, weights: bytes) -> str:
        from coldflow.docstore import blobs

        return blobs.put_model(self, meta, weights)

    def get_model(self, model_id: str) -> tuple[dict, bytes]:
        from coldflow.docstore import blobs

        return blobs.get_model(self, model_id)


def open_store(path: str, read_only: bool = False, wait_for_lock_s: float = 0.0) -> DocumentStore:
    """Open (creating if needed) a store directory.

    Writers acquire the advisory lock file, failing with LockHeld if another
    live process holds it and it stays busy past ``wait_for_lock_s``.
    Readers never touch the lock.
    """
    return DocumentStore(path, read_only=read_only, wait_for_lock_s=wait_for_lock_s)
