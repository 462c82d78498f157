"""Properties of the lattice oracle on the mean generator.

`tree_value_oracle` is a call of the adversarial DP: its mean problems run
the DP's mean model at sigma = 0 with the model's own control set (the two
bounds and every whole-cell drift between them), on the problem's
half-width.  On hypothesis-drawn problems the root stays
in the terminal's range and sup reads at least inf; a degenerate interval
gives both sides one induction.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.densities import MeanInterval
from nlclt.sublinear import (
    GMean,
    HjbProblem,
    SShapeSpec,
    make_s_shaped,
    named_test_function,
    tree_value_oracle,
)


# ---------------------------------------------------------------------------
# drawn problems
# ---------------------------------------------------------------------------

def ordered_pair(value):
    """(a, b) with a <= b, equal about a third of the time."""
    return st.one_of(
        value.map(lambda a: (a, a)),
        st.tuples(value, value).map(lambda p: (min(p), max(p))),
    )


def mean_pair():
    value = st.floats(-1.0, 1.0, allow_nan=False)
    return st.one_of(
        ordered_pair(value),
        value.map(lambda a: (min(a, 0.0), 0.0)),   # mu_high = 0
        value.map(lambda a: (0.0, max(a, 0.0))),   # mu_low = 0
    )


@st.composite
def terminals(draw):
    name = draw(st.sampled_from(["gauss", "normal_cdf", "clip_linear",
                                 "s_shape"]))
    if name != "s_shape":
        return named_test_function(name)
    spec = SShapeSpec(phi1=named_test_function("tanh"),
                      c=draw(st.floats(-1.0, 1.0)),
                      theta=draw(st.floats(0.2, 1.0)))
    return make_s_shaped(spec, draw(st.sampled_from(["phi", "phibar"])))


@st.composite
def mean_problems(draw):
    gen = GMean(MeanInterval(*draw(mean_pair())))
    halfwidth = draw(st.one_of(st.none(), st.floats(0.5, 12.0)))
    return (HjbProblem(gen, draw(terminals()), halfwidth),
            draw(st.integers(1, 300)), draw(st.integers(3, 401)))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def assert_within_terminal_range(problem, steps, grid_points):
    """Every step is a convex combination of grid values, so the root lies
    in the terminal's range; sup reads at least inf.  The drawn terminals
    are monotone or peak at 0, and the grid ends lie within 2 L of 0, so
    the range is read off a sample that holds 0 and reaches past them."""
    values = {}
    for side in ("sup", "inf"):
        gen = GMean(problem.generator.interval, side=side)
        values[side] = tree_value_oracle(
            HjbProblem(gen, problem.terminal, problem.domain_halfwidth),
            steps, grid_points)
    L = problem.halfwidth()
    terminal = problem.terminal(np.linspace(-2 * L - 1.0, 2 * L + 1.0, 20001))
    slack = 1e-12 * max(1.0, float(np.abs(terminal).max()))
    for value in values.values():
        assert terminal.min() - slack <= value <= terminal.max() + slack
    assert values["sup"] >= values["inf"] - slack


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mean_problems())
def test_mean_oracle_stays_in_the_terminal_range(case):
    assert_within_terminal_range(*case)


@pytest.mark.parametrize("side", ["sup", "inf"])
@pytest.mark.parametrize("interval", [(0.0, 0.5), (-0.5, 0.0), (0.3, 0.3),
                                      (0.0, 0.0)])
def test_mean_oracle_zero_and_degenerate_bounds(side, interval):
    problem = HjbProblem(GMean(MeanInterval(*interval), side=side),
                         named_test_function("normal_cdf"))
    value = tree_value_oracle(problem, 200, 201)
    assert 0.0 <= value <= 1.0
    if interval[0] == interval[1]:
        # one control: both sides run the same induction
        other = GMean(MeanInterval(*interval),
                      side="inf" if side == "sup" else "sup")
        assert value == tree_value_oracle(
            HjbProblem(other, problem.terminal), 200, 201)
