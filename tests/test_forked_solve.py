"""The PDE solve's coarse march and lattice oracle in one forked child.

``sublinear._solve`` marches its fine grid here and, when ``split._forks``
allows, its coarse grid and its lattice oracle in one child of
``split._run``.  This file requires every field of the forked
``ValueGrid`` to equal the serial one byte for byte, the CLI's
criterion-6 solves to write the serial bytes, a failed oracle to give the
serial result, and the gate to sit at the coarse march's and the oracle's
cell-steps; the rest of the fork protocol comes from ``ForkProtocol``
(test_split.py).
"""
import math
import os

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
    _scheme,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
)
from test_split import ForkProtocol

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


class TestForkedMarch(ForkProtocol):
    """sublinear._solve's coarse march and oracle in one forked child."""

    hot = (sublinear, "_march")
    threshold = (measure_dp, "FORK_MIN_WORK")

    def case(self):
        return lambda: bits(small_solve()()), None

    def below(self):
        # the warm-up solve, 201 points and 200 oracle steps: about 8e5
        # cell-steps in the child
        return lambda: bits(small_solve(space_points=201, tree_steps=200)()), None

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

    @pytest.mark.parametrize("tree_steps", [None, 20])
    def test_work_is_the_coarse_march_and_the_oracle(self, monkeypatch,
                                                    forked, tree_steps):
        # coarse steps x coarse points, plus oracle steps x 4001 target points
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                             named_test_function("abs"))
        _, coarse_cells = _plan(problem, 41, None)
        work = coarse_cells + (tree_steps or 0) * 4001
        solve = small_solve(tree_steps=tree_steps)
        self.assert_forks_from(monkeypatch, forked, work,
                               (lambda: bits(solve()), None))


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
