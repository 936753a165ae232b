"""Two independent jobs at once, each on its own CPU.

`both(first, second)` returns ``(first(), second())``. Where the process
may use two CPUs and no other Python thread runs, it forks a child pinned
to one CPU for ``first`` and pins itself to another for ``second``. The
pins are needed: where the cpuset does not balance load, the kernel never
moves a forked child off its parent's CPU, and the two share one CPU at
half speed each. Anywhere else, and when the child leaves without a
result, the job runs here, so the results and the error raised are those
of running ``first`` and then ``second``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def both(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """(first(), second()), with ``first`` run in a forked child where two
    CPUs are free. An error is the one that serial order raises first."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return first(), second()
    read_fd, write_fd = os.pipe()
    try:
        # fork copies only the calling thread, so a lock another Python
        # thread holds would stay held in the child. numpy's idle OpenBLAS
        # workers are not Python threads: the child calls no BLAS and
        # leaves through os._exit, so it never waits on them. Python 3.12
        # warns of any other OS thread at fork; this one is safe.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # out of memory or processes: no second CPU after all
        os.close(read_fd)
        os.close(write_fd)
        return first(), second()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, {cpus[0]})
            payload = pickle.dumps(first(), protocol=pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)  # no exception, cleanup or atexit hook of the parent's
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            os.sched_setaffinity(0, {cpus[1]})
            try:
                second_result, error = second(), None
            except Exception as exc:  # raised after first's, as serial order would
                second_result, error = None, exc
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, cpus)
    # A child that failed or died is not asked why: first() runs here, and
    # raises its own error if it has one.
    first_result = pickle.loads(payload) if os.waitstatus_to_exitcode(status) == 0 else first()
    if error is not None:
        raise error
    return first_result, second_result
