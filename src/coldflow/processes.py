"""Run independent units of work on forked processes, results in order.

``coldflow ingest`` runs one unit per CSV file, and the wrangle stage's
telemetry read one unit per byte range of the stored file. A unit is a
pure function of its item: it touches no store handle, view or lock, and
its result crosses back by pickle, over a pipe read in the caller's thread.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading


@contextlib.contextmanager
def in_order_on_processes(fn, items: list, width: int):
    """Yields an iterator over ``fn(item)`` for each item, in item order.

    Every ``width``-th item, the first included, runs in this process when
    the iterator reaches it. Forked worker k runs items k, k + width and so
    on, pickling each result, or the exception ``fn`` raised, onto its own
    pipe, where it waits to be read: one result per worker is in flight. A
    worker that dies or cannot pickle sends nothing, and the iterator
    raises ChildProcessError naming the item. A process that runs another
    thread forks nothing, since a lock that thread held would stay held in
    the child: every item then runs here. A forked child closes its copies
    of the store lock's descriptors (``coldflow.docstore.store``), so a
    store handle open here keeps its lock, and a worker still running after
    this process dies holds none. Leaving the block closes the pipes, which
    stops each worker, and waits for them.
    """
    if width < 2 or len(items) < 2 or threading.active_count() > 1:
        yield map(fn, items)
        return
    # Flushed first, so forked workers do not re-emit buffered output.
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []
    try:
        for k in range(1, min(width, len(items))):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                _work(fn, items[k::width], write_fd, [read_fd] + [p.fileno() for _, p in workers])
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        yield (fn(item) if i % width == 0 else _received(workers[i % width - 1][1], i, item)
               for i, item in enumerate(items))
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)


def _work(fn, items: list, write_fd: int, inherited: list[int]):
    """A worker: each item's ``(True, result)`` or ``(False, exception)``
    pickled onto its pipe, the other pipes' read ends closed."""
    try:
        for fd in inherited:
            os.close(fd)
        with open(write_fd, "wb") as pipe:
            for item in items:
                try:
                    outcome = (True, fn(item))
                except Exception as exc:
                    outcome = (False, exc)
                pipe.write(pickle.dumps(outcome))
                pipe.flush()
                del outcome  # hold no result while the next one is made
    finally:
        os._exit(0)


def _received(pipe, i: int, item):
    """Item ``i``'s result, read from its worker's pipe."""
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"worker sent no result for item {i}: {item!r}") from None
    if not ok:
        raise value
    return value
