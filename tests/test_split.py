"""The fork protocol of ``split._run``, once for all of its callers.

``ForkProtocol`` holds the checks that every caller of ``split._run``
must pass: a failed child gives the serial result, an interrupted parent
kills and reaps its child, nothing forks with a second thread, on one
usable CPU or below the caller's real threshold, and the child sends only
plain data (no type of this package).  Each caller's test class inherits it and names the caller (see ``ForkProtocol``):
``TestForkedSolves`` (test_measure_dp.py), ``TestForkedReplay``
(test_replay_identity.py), ``TestForkedMarch`` (test_forked_solve.py) and
``TestCsvSplit`` (test_cli.py).  Each of those also checks that its gate
sits at its real work count, through ``assert_forks_from``.

``TestSplitRun`` checks ``split._run`` itself on paths that no caller
reaches: a failed fork, a truncated pickle, the bits of the pickled
payload, and the CPU that the child is pinned off.
"""
import io
import math
import os
import pickle
import struct
import threading
import time

import numpy as np
import pytest

from helpers_dp import assert_no_child_left, forked  # noqa: F401 (a fixture)
from nlclt import split


@pytest.mark.fork
class ForkProtocol:
    """The protocol checks, run for the caller that a subclass names:

    - hot: (module, name) of a function that the caller runs in both
      processes, which a check makes fail in the child or interrupt in the
      parent;
    - threshold: (module, name) of the caller's min_work;
    - case(): (call, reference) at a small input.  call() runs the caller
      and gives its result in a form that compares; reference() gives the
      result it must equal, or reference is None for the caller's own
      serial path;
    - below(): the same at an input under the real threshold (a warm-up
      or a CLI default).
    """

    hot: tuple
    threshold: tuple

    @staticmethod
    def assert_same(got, want):
        assert got == want

    def expected(self, monkeypatch, case):
        call, reference = case
        if reference is not None:
            return reference()
        with monkeypatch.context() as patch:
            patch.setattr(*self.threshold, math.inf)
            return call()

    def assert_forks_from(self, monkeypatch, forked, work, case):
        """The case forks at a threshold of work and not at work + 1, with
        the expected result both ways."""
        want = self.expected(monkeypatch, case)
        for threshold, forks in ((work + 1, 0), (work, 1)):
            monkeypatch.setattr(*self.threshold, threshold)
            self.assert_same(case[0](), want)
            assert len(forked) == forks
        assert_no_child_left()

    def test_failed_child_gives_the_serial_result(self, monkeypatch, forked):
        parent, hot = os.getpid(), getattr(*self.hot)

        def child_fails(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            return hot(*args, **kwargs)

        case = self.case()
        want = self.expected(monkeypatch, case)
        monkeypatch.setattr(*self.threshold, 1)
        monkeypatch.setattr(*self.hot, child_fails)
        got = case[0]()
        assert len(forked) == 1
        assert_no_child_left()
        self.assert_same(got, want)

    def test_interrupted_parent_kills_and_reaps_the_child(self, monkeypatch,
                                                         forked):
        parent = os.getpid()

        def interrupted(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # only a kill ends the child sooner

        call, _ = self.case()
        monkeypatch.setattr(*self.threshold, 1)
        monkeypatch.setattr(*self.hot, interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            call()
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        assert_no_child_left()

    def assert_never_forks(self, monkeypatch, case):
        def fork():
            raise AssertionError("os.fork called")

        want = self.expected(monkeypatch, case)
        monkeypatch.setattr(os, "fork", fork)
        self.assert_same(case[0](), want)

    def test_not_below_fork_min_work(self, monkeypatch):
        # two usable CPUs and one thread: only the real threshold refuses
        monkeypatch.setattr(split, "_usable_cpus", lambda: {0, 1})
        self.assert_never_forks(monkeypatch, self.below())

    def test_not_with_a_second_thread(self, monkeypatch):
        monkeypatch.setattr(*self.threshold, 1)
        monkeypatch.setattr(split, "_usable_cpus", lambda: {0, 1})
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            self.assert_never_forks(monkeypatch, self.case())
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_not_on_one_usable_cpu(self, monkeypatch):
        # under `taskset -c 0` the real affinity mask has one CPU
        monkeypatch.setattr(*self.threshold, 1)
        if len(os.sched_getaffinity(0)) > 1:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self.assert_never_forks(monkeypatch, self.case())

    def test_the_child_sends_plain_data(self, monkeypatch):
        # split's contract: no type of this package crosses the pipe.  Each
        # theirs() runs here, and its pickle stands in for the child's
        sent = []

        def in_process(work, min_work, mine, theirs, serial):
            sent.append(pickle.dumps(theirs(), pickle.HIGHEST_PROTOCOL))
            return mine(), pickle.loads(sent[-1])

        case = self.case()
        want = self.expected(monkeypatch, case)
        monkeypatch.setattr(split, "_run", in_process)
        self.assert_same(case[0](), want)
        assert sent
        for payload in sent:
            assert b"nlclt" not in payload


class Unpicklable:
    def __reduce__(self):
        raise RuntimeError("cannot pickle")


def payload():
    """Values whose bits a careless transfer would change."""
    nan = struct.unpack("<d", struct.pack("<Q", 0xFFF800000000ABCD))[0]
    grid = np.arange(60, dtype=np.float64).reshape(6, 10) / 7.0
    grid[0, :4] = [-0.0, 5e-324, 2.2250738585072009e-308, nan]
    return {3: -0.0, -7: nan, 0: 5e-324, 1: 2.2250738585072009e-308,
            2: grid[::2, 1::3], 4: grid[::-1].T, 5: grid[0], 6: [nan, -0.0]}


def float_bits(value):
    """value with every float and float64 array as its bytes, recursively."""
    if isinstance(value, dict):
        return {key: (type(key), float_bits(item)) for key, item in value.items()}
    if isinstance(value, list):
        return [float_bits(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    assert type(value) is float
    return struct.pack("<d", value)


@pytest.mark.fork
class TestSplitRun:
    """split._run on paths that none of its callers reaches."""

    def test_a_refused_gate_runs_only_serial(self):
        def never():
            raise AssertionError("called")

        assert split._run(0, 1, never, never, lambda: "serial") == "serial"

    def test_a_failed_fork_runs_serial_and_closes_the_pipe(self, monkeypatch):
        pipes, pipe = [], os.pipe

        def recorded():
            ends = pipe()
            pipes.extend(ends)
            return ends

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(split, "_usable_cpus", lambda: {0, 1})
        monkeypatch.setattr(os, "pipe", recorded)
        monkeypatch.setattr(os, "fork", fork)
        assert split._run(1, 1, lambda: 1, lambda: 2, lambda: "serial") == "serial"
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_truncated_pickle_and_a_non_zero_exit_run_serial(self, monkeypatch,
                                                              forked):
        # the 1 MiB bytes object reaches the pipe before the pickler fails
        failures, statuses = [], []
        load, waitpid = pickle.load, os.waitpid

        def recorded_load(file):
            try:
                return load(file)
            except Exception as error:
                failures.append(type(error))
                # let the child exit before the parent's kill can reach it
                os.waitid(os.P_PID, forked[-1], os.WEXITED | os.WNOWAIT)
                raise

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(pickle, "load", recorded_load)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        got = split._run(1, 1, lambda: "mine",
                         lambda: [b"x" * (1 << 20), Unpicklable()],
                         lambda: "serial")
        assert got == "serial"
        assert len(forked) == 1
        assert failures in ([EOFError], [pickle.UnpicklingError])
        assert [os.waitstatus_to_exitcode(status) for status in statuses] == [1]
        assert_no_child_left()

    def test_the_payload_keeps_its_bits(self, forked):
        here, there = split._run(1, 1, payload, payload, lambda: "serial")
        assert len(forked) == 1
        assert_no_child_left()
        assert float_bits(there) == float_bits(here) == float_bits(payload())
        assert list(there) == [3, -7, 0, 1, 2, 4, 5, 6]

    def test_the_current_cpu_is_a_usable_one(self):
        assert split._current_cpu() in os.sched_getaffinity(0)

    @pytest.mark.parametrize("stat", [None, b"", b"12 (nlclt) R 1",
                                      b"12 (a) b) " + b"x " * 40],
                             ids=["unreadable", "empty", "short", "not-a-cpu"])
    def test_an_unreadable_stat_gives_no_cpu(self, monkeypatch, stat):
        def opened(path, mode):
            if stat is None:
                raise PermissionError(path)
            return io.BytesIO(stat)

        monkeypatch.setattr(split, "open", opened, raising=False)
        assert split._current_cpu() is None
