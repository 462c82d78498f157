"""The PDE solve's coarse march and lattice oracle in one forked child.

``sublinear._solve`` marches its fine grid here and, when ``split._forks``
allows, its coarse grid and its lattice oracle in one child of
``split._forked``.  This file requires every field of the
forked ``ValueGrid`` to equal the serial one byte for byte, the CLI's
criterion-6 solves to write the serial bytes, and the fork's gate and
clean-up to hold: a failed child gives the serial result, an interrupted
parent kills and reaps its child, and small solves, a second thread or one
usable CPU never fork.
"""
import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers_dp import assert_no_child_left, forked  # noqa: F401 (a fixture)
from nlclt import cli, measure_dp, split, sublinear
from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    _plan,
    _received,
    _scheme,
    _sent,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
)

# read before the forked fixture lowers it
FORK_MIN_WORK = measure_dp.FORK_MIN_WORK
FIELDS = ("x", "values", "times", "u0", "min_seen", "max_seen", "steps",
          "richardson_gap", "dt_ratio", "tree_value")


def bits(grid):
    """Each field of the ValueGrid as its bytes (None stays None)."""
    return {field: None if getattr(grid, field) is None
            else np.asarray(getattr(grid, field)).tobytes() for field in FIELDS}


def interval_pair(lo, hi):
    value = st.floats(lo, hi, allow_nan=False)
    return st.one_of(value.map(lambda a: (a, a)),
                     st.tuples(value, value).map(lambda p: (min(p), max(p))))


@st.composite
def solves(draw):
    """(solve, problem, kwargs): both faces and sides, odd and even grids,
    default or explicit (stable) time steps, with or without the oracle."""
    side = draw(st.sampled_from(["sup", "inf"]))
    if draw(st.booleans()):
        solve, gen = solve_g_heat, GVariance(
            VarianceInterval(*draw(interval_pair(0.5, 2.5))), side)
        names = ["gauss", "normal_cdf", "neg_abs", "tanh"]
    else:
        solve, gen = solve_g_expectation, GMean(
            MeanInterval(*draw(interval_pair(-1.0, 1.0))), side)
        names = ["gauss", "normal_cdf", "tanh"]
    problem = HjbProblem(gen, named_test_function(draw(st.sampled_from(names))))
    space_points = draw(st.integers(5, 121))
    time_steps = None
    if draw(st.booleans()):
        dx = 2.0 * problem.halfwidth() / (space_points - 1)
        time_steps = math.ceil(draw(st.floats(1.05, 3.0))
                               / _scheme(gen)[0](dx))
    tree_steps = draw(st.one_of(st.none(), st.integers(1, 40)))
    return solve, problem, dict(space_points=space_points,
                                time_steps=time_steps, tree_steps=tree_steps)


def run(solve, problem, kwargs):
    gen = problem.generator
    return solve(gen.interval, problem.terminal, gen.side, **kwargs)


def small_solve(**kwargs):
    problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                         named_test_function("abs"))
    kwargs = dict(dict(space_points=41, tree_steps=20), **kwargs)
    return lambda: run(solve_g_heat, problem, kwargs)


def serial(monkeypatch, solve):
    with monkeypatch.context() as patch:
        patch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)
        return solve()


class TestForkedMarch:
    """sublinear._solve's coarse march and oracle in one forked child."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(case=solves())
    def test_forked_grid_is_byte_identical(self, monkeypatch, forked, case):
        forks = len(forked)
        got = run(*case)
        assert len(forked) == forks + 1
        assert_no_child_left()
        want = serial(monkeypatch, lambda: run(*case))
        assert len(forked) == forks + 1
        assert (got.tree_value is None) == (case[2]["tree_steps"] is None)
        assert bits(got) == bits(want)

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=solves(), root=st.one_of(st.none(), st.floats()))
    def test_coarse_march_survives_the_pipe(self, case, root):
        _, problem, kwargs = case
        march, _ = _plan(problem, kwargs["space_points"], kwargs["time_steps"])
        fine, coarse = march(True), march(False)
        tree = [] if root is None else [root]
        piped = np.frombuffer(_sent(coarse, tree).tobytes(), dtype=np.float64)
        got, got_tree = _received(piped, fine)
        assert np.array(got_tree).tobytes() == np.array(tree).tobytes()
        for field, value in coarse._asdict().items():
            assert np.asarray(getattr(got, field)).tobytes() \
                == np.asarray(value).tobytes(), field
        assert got.values.shape == coarse.values.shape

    def test_failed_child_gives_the_serial_result(self, monkeypatch, forked):
        parent, march = os.getpid(), sublinear._march

        def child_fails(*args):
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            return march(*args)

        want = serial(monkeypatch, small_solve())
        monkeypatch.setattr(sublinear, "_march", child_fails)
        got = small_solve()()
        assert len(forked) == 1
        assert_no_child_left()
        assert bits(got) == bits(want)

    def test_failed_oracle_gives_the_serial_result(self, monkeypatch, forked):
        parent, oracle = os.getpid(), sublinear.tree_value_oracle

        def child_fails(*args):
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            return oracle(*args)

        want = serial(monkeypatch, small_solve())
        monkeypatch.setattr(sublinear, "tree_value_oracle", child_fails)
        got = small_solve()()
        assert len(forked) == 1
        assert_no_child_left()
        assert bits(got) == bits(want)

    def test_interrupted_parent_kills_and_reaps_the_child(self, monkeypatch,
                                                         forked):
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # only a kill ends the child sooner

        monkeypatch.setattr(sublinear, "_march", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            small_solve()()
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("tree_steps", [None, 20])
    def test_work_is_the_coarse_march_and_the_oracle(self, monkeypatch,
                                                    forked, tree_steps):
        # coarse steps x coarse points, plus oracle steps x 4001 target points
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                             named_test_function("abs"))
        _, coarse_cells = _plan(problem, 41, None)
        work = coarse_cells + (tree_steps or 0) * 4001
        solve = small_solve(tree_steps=tree_steps)
        want = serial(monkeypatch, solve)
        for threshold, forks in ((work + 1, 0), (work, 1)):
            monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", threshold)
            assert bits(solve()) == bits(want)
            assert len(forked) == forks

    def never_forks(self, monkeypatch, solve):
        def fork():
            raise AssertionError("os.fork called")

        want = serial(monkeypatch, solve)
        monkeypatch.setattr(os, "fork", fork)
        assert bits(solve()) == bits(want)

    def test_not_for_the_warm_up_solve(self, monkeypatch):
        # 201 points and 200 oracle steps: about 8e5 cell-steps in the child
        monkeypatch.setattr(split, "_usable_cpus", lambda: {0, 1})
        self.never_forks(monkeypatch,
                         small_solve(space_points=201, tree_steps=200))

    def test_not_with_a_second_thread(self, monkeypatch):
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", 1)
        monkeypatch.setattr(split, "_usable_cpus", lambda: {0, 1})
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            self.never_forks(monkeypatch, small_solve())
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_not_on_one_usable_cpu(self, monkeypatch):
        # under `taskset -c 0` the real affinity mask has one CPU
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", 1)
        if len(os.sched_getaffinity(0)) > 1:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self.never_forks(monkeypatch, small_solve())


S_SHAPE = ["--terminal", "s-shape", "--s-phi1", "tanh", "--s-theta", "0.5",
           "--s-center", "0.0", "--s-envelope", "phibar"]
CRITERION_6 = {
    "degenerate": ["g-heat", "--sigma-low", "1", "--sigma-high", "1",
                   "--terminal", "gauss_half"],
    "convex": ["g-heat", "--sigma-low", "1", "--sigma-high", "2",
               "--terminal", "abs"],
    "concave": ["g-heat", "--sigma-low", "1", "--sigma-high", "2",
                "--terminal", "neg_abs"],
    "increasing": ["g-expectation", "--mu-low", "0", "--mu-high", "0.5",
                   "--side", "sup", "--terminal", "normal_cdf"],
    "symmetric-decreasing": ["g-expectation", "--mu-low", "-0.5", "--mu-high",
                             "0.5", "--side", "sup", "--terminal", "gauss"],
    "s-shaped": ["g-heat", "--sigma-low", "1", "--sigma-high", "2", *S_SHAPE],
}


class TestForkedMarchCli:
    """The criterion-6 solves with 2000 oracle steps fork at the real
    FORK_MIN_WORK and write the serial bytes."""

    @pytest.mark.parametrize("name", sorted(CRITERION_6))
    def test_solve_writes_the_serial_bytes(self, monkeypatch, forked,
                                           tmp_path, capsys, name):
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", FORK_MIN_WORK)
        written = {}
        for way in ("forked", "serial"):
            out = tmp_path / f"{way}.csv"
            grid_out = tmp_path / f"{way}-grid.csv"
            argv = ["solve", "--problem", *CRITERION_6[name], "--tree-steps",
                    "2000", "--out", str(out)]
            if name == "convex":
                argv += ["--grid-out", str(grid_out)]
            with monkeypatch.context() as patch:
                if way == "serial":
                    patch.setattr(split, "_forks", lambda work, min_work: False)
                assert cli.main(argv) == 0
            written[way] = [path.read_bytes() for path in (out, grid_out)
                            if path.exists()]
        assert len(forked) == 1
        assert_no_child_left()
        assert capsys.readouterr().err == ""
        assert len(written["forked"]) == (2 if name == "convex" else 1)
        assert written["forked"] == written["serial"]
