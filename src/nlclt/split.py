"""One forked child beside the parent: the package's only use of os.fork.

_run(work, min_work, mine, theirs, serial) computes mine() here and
theirs() in one child process pinned off this process's CPU, when _forks
allows: the process runs one Python thread, two CPUs are usable and work
is at least min_work.  The child sends theirs() back by pickle through a
pipe; exceptions never cross it.  The result is (mine(), theirs()), or
serial() after a refused gate or any failure in either process, so the
caller's values and exceptions are its serial ones.

Four callers split here, each with its own threshold:
measure_dp.convergence_experiment's lattice solves and policy_simulate's
paths, sublinear._solve's coarse march and lattice oracle (all three
against measure_dp.FORK_MIN_WORK), and csvio.render_csv's rows (against
csvio.SPLIT_MIN_CELLS).  The child must not call threaded BLAS: pinned to
one CPU, OpenBLAS threads there take about 100 times as long as serial.
"""
from __future__ import annotations

import os
import pickle
import threading
from typing import Callable, Optional


def _usable_cpus() -> set:
    """The CPUs this process may run on: its affinity mask, else all."""
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no affinity masks on this platform
        return set(range(os.cpu_count() or 1))


def _current_cpu() -> Optional[int]:
    """The CPU this process runs on, from /proc/self/stat (Linux), else None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # the fields after "pid (comm)" start at the third; the 39th is the CPU
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _forks(work: float, min_work: float) -> bool:
    """Whether _run runs a child for work: the process runs one Python
    thread (a fork copies no other thread, and numpy's BLAS pool stops
    itself across a fork), two CPUs are usable, and the work is at least
    min_work."""
    return (work >= min_work and hasattr(os, "fork")
            and threading.active_count() == 1 and len(_usable_cpus()) >= 2)


def _run(work: float, min_work: float, mine: Callable, theirs: Callable,
         serial: Callable):
    """(mine(), theirs()), mine() computed here and theirs() in one forked
    child pinned off this process's CPU, or serial().

    serial() unless _forks(work, min_work).  The child pickles theirs()
    into a pipe and exits 0, or exits non-zero.  After a failed fork, an
    exception here or in the child, a non-zero exit or a truncated pipe,
    serial() runs all of the work here.  A BaseException that is not an
    Exception (KeyboardInterrupt) kills the child and is raised; the child
    is always reaped.
    """
    if not _forks(work, min_work):
        return serial()
    parent_cpu = _current_cpu()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return serial()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            # a scheduler may leave a new child on its parent's CPU
            others = _usable_cpus() - {parent_cpu}
            if parent_cpu is not None and others:
                try:
                    os.sched_setaffinity(0, others)
                except OSError:
                    pass  # the child runs wherever it is
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(theirs(), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # never return into the caller's frames in the child
            os._exit(code)
    os.close(write_end)
    both = None
    try:
        with os.fdopen(read_end, "rb") as pipe:
            both = mine(), pickle.load(pipe)
    except Exception:
        pass  # serial() runs all of the work again and raises
    finally:
        if both is None:  # the child's result is not wanted
            import signal  # only here: its import costs 0.7 ms of set-up
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if both is None or os.waitstatus_to_exitcode(status) != 0:
        return serial()
    return both
