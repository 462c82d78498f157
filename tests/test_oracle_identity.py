"""Bit-identity guard for the lattice oracle.

`tree_value_oracle` is a thin caller of the adversarial DP's lattice kernel.
On a variance interval its +-sigma/sqrt(n) moves are the DP's variance
model with Rademacher innovations, so on the same half-width it must return
the DP's root, bit for bit, on hypothesis-drawn problems.  The drift
oracle has no DP twin (the DP's mean model carries sigma > 0); it is held
to the terminal's range and to sup >= inf on the same lattice.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.errors import InvalidParams
from nlclt.measure_dp import RectangularModel, _backward_induction, _dp_grid
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    make_s_shaped,
    named_test_function,
    tree_value_oracle,
)


def dp_twin(problem, steps, grid_points):
    """(x, offsets, root) of the DP's variance model on the problem's
    half-width, or root None when a move spans the whole grid."""
    v = problem.generator.interval
    model = RectangularModel.variance_uncertain(v, steps)
    with mock.patch.object(RectangularModel, "halfwidth",
                           lambda self: problem.halfwidth()):
        x, _, offsets, _ = _dp_grid(model, grid_points)
        if np.abs(offsets).max() >= len(x) - 1:
            return x, offsets, None
        root, _, _, _ = _backward_induction(model, problem.terminal,
                                            problem.generator.side,
                                            grid_points, False)
    return x, offsets, root


def assert_same_as_dp(problem, steps, grid_points):
    _, _, want = dp_twin(problem, steps, grid_points)
    if want is None:
        with pytest.raises(InvalidParams, match="spans the whole grid"):
            tree_value_oracle(problem, steps, grid_points)
        return
    got = tree_value_oracle(problem, steps, grid_points)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
def terminals(draw, bounded_only):
    names = ["gauss", "normal_cdf", "clip_linear", "s_shape"]
    if not bounded_only:
        names += ["abs", "neg_abs"]
    name = draw(st.sampled_from(names))
    if name != "s_shape":
        return named_test_function(name)
    spec = SShapeSpec(phi1=named_test_function("tanh"),
                      c=draw(st.floats(-1.0, 1.0)),
                      theta=draw(st.floats(0.2, 1.0)))
    return make_s_shaped(spec, draw(st.sampled_from(["phi", "phibar"])))


@st.composite
def variance_problems(draw):
    grid_points = draw(st.integers(3, 401))
    steps = draw(st.integers(1, 300))
    side = draw(st.sampled_from(["sup", "inf"]))
    # integer-related, rational or irrational scale ratios, or free draws
    lo, hi = draw(st.one_of(
        ordered_pair(st.floats(0.2, 2.5)),
        st.tuples(st.sampled_from([0.5, 1.0, 1.3]),
                  st.sampled_from([1.0, 2.0, 1.5, 2.0 ** 0.5])).map(
                      lambda p: (p[0], p[0] * p[1]))))
    halfwidth = draw(st.one_of(st.none(), st.floats(0.05, 20.0)))
    return (HjbProblem(GVariance(VarianceInterval(lo, hi), side=side),
                       draw(terminals(bounded_only=False)), halfwidth),
            steps, grid_points)


@st.composite
def whole_cell_problems(draw):
    """Spacing, step count and scales that are exact in binary, so every
    move is a whole number of target cells and the lattice is exact."""
    grid_points = 2 * draw(st.integers(1, 200)) + 1
    h = 2.0 ** -draw(st.integers(0, 3))
    root = 2 ** draw(st.integers(0, 4))          # steps = 1, 4, ..., 256
    side = draw(st.sampled_from(["sup", "inf"]))
    cells = st.integers(1, 6).map(lambda k: k * h * root)
    lo, hi = draw(ordered_pair(cells))
    return (HjbProblem(GVariance(VarianceInterval(lo, hi), side=side),
                       draw(terminals(bounded_only=False)),
                       h * (grid_points - 1) / 2),
            root * root, grid_points)


@st.composite
def mean_problems(draw):
    gen = GMean(MeanInterval(*draw(mean_pair())))
    halfwidth = draw(st.one_of(st.none(), st.floats(0.5, 12.0)))
    return (HjbProblem(gen, draw(terminals(bounded_only=True)), halfwidth),
            draw(st.integers(1, 300)), draw(st.integers(3, 401)))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(variance_problems())
def test_padded_oracle_is_bit_identical(case):
    assert_same_as_dp(*case)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(whole_cell_problems())
def test_padded_oracle_is_bit_identical_on_whole_cell_moves(case):
    assert_same_as_dp(*case)


def test_whole_cell_moves_are_drawn():
    """The whole-cell strategy keeps the target grid and reaches exact
    shifts of one and two cells."""
    problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                         named_test_function("abs"), 4.0)
    x, offsets, _ = dp_twin(problem, 4, 17)
    assert len(x) == 17
    assert offsets.tolist() == [[-1.0, 1.0], [-2.0, 2.0]]
    assert_same_as_dp(problem, 4, 17)


def assert_within_terminal_range(problem, steps, grid_points):
    """Every step is a convex combination of grid values, so the root lies
    in the terminal's range; sup reads at least inf.  The drawn terminals
    are monotone or peak at 0, and the grid ends lie within 2 L of 0, so
    the range is read off a sample that holds 0 and reaches past them."""
    values = {}
    for side in ("sup", "inf"):
        gen = GMean(problem.generator.interval, side=side)
        try:
            values[side] = tree_value_oracle(
                HjbProblem(gen, problem.terminal, problem.domain_halfwidth),
                steps, grid_points)
        except InvalidParams as err:
            assert "spans the whole grid" in str(err)
            return
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
