"""Run independent units of work on forked processes, results in order.

``coldflow ingest`` runs one unit per CSV file, and the wrangle stage's
telemetry read one unit per byte range of the stored file. A unit is a
pure function of its item: it touches no store handle, view or lock, and
its result crosses back to the caller by pickle.
"""

from __future__ import annotations

import contextlib
import sys
import threading


@contextlib.contextmanager
def in_order_on_processes(fn, items: list, width: int):
    """Yields an iterator over ``fn(item)`` for each item, in item order.

    Every ``width``-th item, the first included, runs in this process when
    the iterator reaches it; the rest go at once to ``width - 1`` forked
    workers. A process that runs another thread forks nothing, since a
    lock that thread held would stay held in the child: every item then
    runs here, with the same results. Workers run ``fn`` alone and leave
    through ``os._exit``, so no finalizer of an object they inherited runs
    in them: a store handle open here stays open and keeps its lock file.
    Leaving the block cancels the items no worker has started and waits
    for every worker to exit.
    """
    farmed = [i for i in range(len(items)) if i % width]
    if not farmed or threading.active_count() > 1:
        yield map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers share the imports already made here instead of
    # importing numpy again. The executor forks them before it starts a
    # thread; flushing first keeps them from re-emitting buffered output.
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(min(width - 1, len(farmed)),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {i: pool.submit(fn, items[i]) for i in farmed}
        yield (futures[i].result() if i in futures else fn(item)
               for i, item in enumerate(items))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
