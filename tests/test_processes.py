"""The forked-worker helper: item order, worker failures, cleanup and the
one-result-per-worker bound."""

import os
import time

import pytest

from coldflow.processes import in_order_on_processes

MEGABYTE = 1 << 20


def assert_no_child_process():
    """No child of this process is left, running or exited and unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_results_come_back_in_item_order(width, count):
    items = [f"item{i}" for i in range(count)]
    with in_order_on_processes(lambda item: (item, os.getpid()), items, width) as results:
        got = list(results)
    assert [item for item, _ in got] == items
    # Every width-th item, the first included, runs in this process.
    assert [pid == os.getpid() for _, pid in got] == [i % width == 0 for i in range(count)]
    assert_no_child_process()


def test_a_worker_that_dies_names_its_item():
    def fn(item):
        if item == "b":
            os._exit(3)
        return item

    with pytest.raises(ChildProcessError, match="item 1: 'b'"):
        with in_order_on_processes(fn, ["a", "b", "c"], 2) as results:
            list(results)
    assert_no_child_process()


def test_a_result_that_does_not_pickle_raises_here():
    with pytest.raises(ChildProcessError, match="item 1: 2"):
        with in_order_on_processes(lambda item: lambda: item, [1, 2], 2) as results:
            list(results)
    assert_no_child_process()


def test_a_worker_exception_keeps_its_type_and_message():
    def fn(item):
        if item == 4:
            raise KeyError("four")
        return item

    with pytest.raises(KeyError, match="four"):
        with in_order_on_processes(fn, list(range(6)), 3) as results:
            assert next(results) == 0
            list(results)
    assert_no_child_process()


def test_a_consumer_that_stops_early_leaves_no_child():
    with in_order_on_processes(lambda item: bytes(MEGABYTE), list(range(9)), 3) as results:
        assert len(next(results)) == MEGABYTE
    assert_no_child_process()


def test_a_worker_runs_at_most_one_item_ahead_of_the_reader(tmp_path):
    # A megabyte does not fit a pipe's buffer, so a worker's write waits
    # for the reader; the reader sleeps to give the workers time to run on.
    width, count = 3, 10

    def fn(item):
        (tmp_path / str(item)).touch()
        return bytes(MEGABYTE)

    with in_order_on_processes(fn, list(range(count)), width) as results:
        for read, result in enumerate(results):
            assert len(result) == MEGABYTE
            time.sleep(0.05)
            started = {int(path.name) for path in tmp_path.iterdir()}
            for k in range(1, width):
                ahead = [i for i in started if i > read and i % width == k]
                assert len(ahead) <= 1, (read, sorted(started))
    assert started == set(range(count))
    assert_no_child_process()
