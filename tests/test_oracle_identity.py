"""Bit-identity guard for the lattice oracle.

`tree_value_oracle` keeps its values in one padded buffer and reads every
grid shift as a view of it.  This file keeps a frozen copy of the earlier
oracle, which built each shifted copy (and its linear edge extrapolation)
afresh, and requires the same returned float, bit for bit, on
hypothesis-drawn problems.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.errors import InvalidParams
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    make_s_shaped,
    named_test_function,
    tree_value_oracle,
)


# ---------------------------------------------------------------------------
# frozen allocating reference
# ---------------------------------------------------------------------------

def ref_shift_interp(v, offset_cells):
    m = math.floor(offset_cells)
    w = offset_cells - m

    def integer_shift(v, m):
        n = len(v)
        out = np.empty_like(v)
        if m == 0:
            return v.copy()
        if m > 0:
            out[:n - m] = v[m:]
            out[n - m:] = v[-1] + (v[-1] - v[-2]) * np.arange(1, m + 1)
        else:
            out[-m:] = v[:m]
            out[:-m] = v[0] + (v[0] - v[1]) * np.arange(-m, 0, -1)
        return out

    if w == 0.0:
        return integer_shift(v, m)
    return (1.0 - w) * integer_shift(v, m) + w * integer_shift(v, m + 1)


def ref_moves(problem, steps, grid_points):
    L = problem.halfwidth()
    x = np.linspace(-L, L, grid_points)
    h = x[1] - x[0]
    gen = problem.generator
    if isinstance(gen, GVariance):
        rtn = math.sqrt(steps)
        return x, [(sig / rtn / h, -(sig / rtn / h))
                   for sig in (gen.interval.sigma_low, gen.interval.sigma_high)]
    rtn = 1.0 / math.sqrt(steps)
    return x, [((mu / steps + rtn) / h, (mu / steps - rtn) / h)
               for mu in (gen.interval.mu_low, gen.interval.mu_high)]


def ref_oracle(problem, steps, grid_points):
    x, moves = ref_moves(problem, steps, grid_points)
    v = problem.terminal(x)
    opt = np.maximum if problem.generator.side == "sup" else np.minimum
    for _ in range(steps):
        best = None
        for up, dn in moves:
            c = 0.5 * (ref_shift_interp(v, up) + ref_shift_interp(v, dn))
            best = c if best is None else opt(best, c)
        v = best
    return float(v[grid_points // 2])


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
def generic_problems(draw):
    grid_points = draw(st.integers(3, 401))
    steps = draw(st.integers(1, 300))
    side = draw(st.sampled_from(["sup", "inf"]))
    if draw(st.booleans()):
        lo, hi = draw(ordered_pair(st.floats(0.2, 2.5)))
        gen = GVariance(VarianceInterval(lo, hi), side=side)
        terminal = draw(terminals(bounded_only=False))
    else:
        gen = GMean(MeanInterval(*draw(mean_pair())), side=side)
        terminal = draw(terminals(bounded_only=True))
    return HjbProblem(gen, terminal), steps, grid_points


@st.composite
def integer_offset_problems(draw):
    """Spacing, step count and controls that are exact in binary, so every
    move is a whole number of cells (w == 0) or half a cell."""
    grid_points = 2 * draw(st.integers(1, 200)) + 1
    h = 2.0 ** -draw(st.integers(0, 3))
    root = 2 ** draw(st.integers(0, 4))          # steps = 1, 4, ..., 256
    steps = root * root
    side = draw(st.sampled_from(["sup", "inf"]))
    halfwidth = h * (grid_points - 1) / 2
    if draw(st.booleans()):
        cells = st.integers(1, 6).map(lambda k: k * h * root)
        lo, hi = draw(ordered_pair(cells))
        gen = GVariance(VarianceInterval(lo, hi), side=side)
        terminal = draw(terminals(bounded_only=False))
    else:
        # mu / steps is a multiple of h / 2
        cells = st.integers(-4, 4).map(lambda k: k * h * steps / 2)
        gen = GMean(MeanInterval(*draw(ordered_pair(cells))), side=side)
        terminal = draw(terminals(bounded_only=True))
    return HjbProblem(gen, terminal, halfwidth), steps, grid_points


def assert_same_as_reference(problem, steps, grid_points):
    _, moves = ref_moves(problem, steps, grid_points)
    if max(abs(d) for pair in moves for d in pair) >= grid_points - 1:
        with pytest.raises(InvalidParams):
            tree_value_oracle(problem, steps, grid_points)
        return
    got = tree_value_oracle(problem, steps, grid_points)
    want = ref_oracle(problem, steps, grid_points)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(generic_problems())
def test_padded_oracle_is_bit_identical(case):
    assert_same_as_reference(*case)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(integer_offset_problems())
def test_padded_oracle_is_bit_identical_on_whole_cell_moves(case):
    assert_same_as_reference(*case)


def test_whole_cell_moves_are_drawn():
    """The integer-offset strategy does reach w == 0."""
    problem = HjbProblem(GVariance(VarianceInterval(0.5, 1.0)),
                         named_test_function("abs"), 4.0)
    _, moves = ref_moves(problem, 4, 17)
    assert moves == [(0.5, -0.5), (1.0, -1.0)]
    assert_same_as_reference(problem, 4, 17)


@pytest.mark.parametrize("side", ["sup", "inf"])
@pytest.mark.parametrize("interval", [(0.0, 0.5), (-0.5, 0.0), (0.3, 0.3),
                                      (0.0, 0.0)])
def test_mean_oracle_zero_and_degenerate_bounds(side, interval):
    problem = HjbProblem(GMean(MeanInterval(*interval), side=side),
                         named_test_function("normal_cdf"))
    assert_same_as_reference(problem, 200, 201)
