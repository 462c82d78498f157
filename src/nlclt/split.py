"""One forked child beside the parent: the package's only use of os.fork.

_forked(work, min_work, mine, theirs) computes mine() here and theirs() in
one child process pinned off this process's CPU, when _forks allows: the
process runs one Python thread, two CPUs are usable and work is at least
min_work.  The child sends theirs(), bytes, through a pipe.  The result is
both or None: after a refused gate or any failure in either process the
caller runs all of the work itself, so its values and its exceptions are
the serial ones.

Four callers split here, each with its own threshold:
measure_dp.convergence_experiment's lattice solves and policy_simulate's
paths, sublinear._solve's coarse march and lattice oracle (all three
against measure_dp.FORK_MIN_WORK), and csvio.render_csv's rows (against
csvio.SPLIT_MIN_CELLS).  The child must not call threaded BLAS: pinned to
one CPU, OpenBLAS threads there take about 100 times as long as serial.
"""
from __future__ import annotations

import os
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
    """Whether _forked runs a child for work: the process runs one Python
    thread (a fork copies no other thread, and numpy's BLAS pool stops
    itself across a fork), two CPUs are usable, and the work is at least
    min_work."""
    return (work >= min_work and hasattr(os, "fork")
            and threading.active_count() == 1 and len(_usable_cpus()) >= 2)


def _forked(work: float, min_work: float, mine: Callable,
            theirs: Callable[[], bytes]) -> Optional[tuple]:
    """(mine(), theirs()), mine() computed here and theirs() in one forked
    child pinned off this process's CPU, or None.

    None unless _forks(work, min_work).  The child writes theirs() through
    a pipe and exits 0, or exits non-zero; mine() is returned as it is.  A
    raise here kills the child, and the child is always reaped.  On None
    the caller runs all of the work itself.
    """
    if not _forks(work, min_work):
        return None
    parent_cpu = _current_cpu()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
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
            data = theirs()
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            # never return into the caller's frames in the child
            os._exit(code)
    os.close(write_end)
    data = None
    try:
        with os.fdopen(read_end, "rb") as pipe:
            here = mine()
            data = pipe.read()
    except Exception:
        pass  # the caller runs all of the work again and raises
    finally:
        if data is None:  # the child's result is not wanted
            import signal  # only here: its import costs 0.7 ms of set-up
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if data is None or os.waitstatus_to_exitcode(status) != 0:
        return None
    return here, data
