"""Run one ``coldflow`` command in a forked child that can die at an fsync.

The store appends a batch and then fsyncs it, so each fsync is a point
where the batch is whole in the file. :func:`run_command` wraps
``os.fsync`` in the child so that it calls ``os._exit(CRASH_EXIT)`` right
after the k-th call; with ``torn`` it first cuts the last line of the file
it synced in half, as a crash in the middle of that append would leave it.
Counting the fsyncs of a clean run gives every k to try.
"""

import os
import pathlib
import signal
import sys
import threading

from coldflow.cli import main

CRASH_EXIT = 86


def run_command(argv: list[str], crash_after: int = 0, torn: bool = False) -> tuple[int, int]:
    """``coldflow argv`` in a forked child: its exit code and fsync count.

    With ``crash_after`` k > 0 the child dies after its k-th fsync, with
    exit code CRASH_EXIT.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    if (pid := os.fork()) == 0:
        code = 1
        try:
            signal.alarm(120)  # a child that hangs dies, and the caller sees it
            os.close(read_fd)
            _die_at_fsync(crash_after, torn, write_fd)
            code = main(argv)
        finally:
            os._exit(code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        fsyncs = len(pipe.read())  # the child writes one byte per fsync
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), fsyncs


def _die_at_fsync(crash_after: int, torn: bool, count_fd: int):
    real_fsync, guard, done = os.fsync, threading.Lock(), [0]

    def fsync(fd):
        real_fsync(fd)
        with guard:
            os.write(count_fd, b".")
            done[0] += 1
            if done[0] == crash_after:
                if torn:
                    _tear_last_line(fd)
                os._exit(CRASH_EXIT)

    os.fsync = fsync


def _tear_last_line(fd: int):
    """Cut the last line of the file open at ``fd`` to half its bytes."""
    path = pathlib.Path(os.readlink(f"/proc/self/fd/{fd}"))
    data = path.read_bytes()
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    os.truncate(path, start + (len(data) - start) // 2)
