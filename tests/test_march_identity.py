"""Bit-identity guard for the in-place PDE marches.

The solvers advance one state vector in place through preallocated buffers.
This file keeps a frozen copy of the earlier allocating marches (a fresh
array per operation) and requires the solvers to return the same bytes on
hypothesis-drawn problems: same IEEE operations, same order, same results.
"""
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
)

CFL_SAFETY = 0.4
SNAPSHOT_EVERY_DIVISOR = 10


# ---------------------------------------------------------------------------
# frozen allocating reference
# ---------------------------------------------------------------------------

def ref_march(u0, dx, steps, dt, update):
    u = u0.astype(float).copy()
    snap_every = max(1, steps // SNAPSHOT_EVERY_DIVISOR)
    snaps = [(1.0, u.copy())]
    lo = float(u.min())
    hi = float(u.max())
    for k in range(1, steps + 1):
        u = update(u, dx, dt)
        lo = min(lo, float(u.min()))
        hi = max(hi, float(u.max()))
        if k % snap_every == 0 or k == steps:
            snaps.append(((steps - k) / steps, u.copy()))
    times = np.array([t for t, _ in snaps])
    values = np.stack([v for _, v in snaps])
    return times, values, lo, hi


def ref_second_difference(u, dx):
    d2 = np.zeros_like(u)
    d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
    return d2


def ref_steps(dt_max, time_steps):
    if time_steps is None:
        return math.ceil(1.0 / (CFL_SAFETY * dt_max))
    assert 1.0 / time_steps <= dt_max
    return time_steps


def ref_root(x, values, space_points):
    mid = space_points // 2
    if x[mid] != 0.0:
        return float(np.interp(0.0, x, values[-1]))
    return float(values[-1][mid])


def ref_g_heat(v, terminal, space_points, time_steps):
    L = HjbProblem(GVariance(v), terminal).halfwidth()
    x = np.linspace(-L, L, space_points)
    dx = x[1] - x[0]
    steps = ref_steps(dx * dx / v.sigma_high ** 2, time_steps)
    dt = 1.0 / steps
    a_pos = 0.5 * v.sigma_high ** 2
    a_neg = 0.5 * v.sigma_low ** 2

    def update(u, dx, dt):
        d2 = ref_second_difference(u, dx)
        return u + dt * np.where(d2 >= 0, a_pos * d2, a_neg * d2)

    times, values, lo, hi = ref_march(terminal(x), dx, steps, dt, update)
    return x, times, values, ref_root(x, values, space_points), lo, hi


def ref_g_expectation(m, terminal, side, space_points, time_steps):
    L = HjbProblem(GMean(m, side=side), terminal).halfwidth()
    x = np.linspace(-L, L, space_points)
    dx = x[1] - x[0]
    mu_max = max(abs(m.mu_low), abs(m.mu_high))
    steps = ref_steps(min(dx * dx, dx / mu_max) if mu_max > 0 else dx * dx,
                      time_steps)
    dt = 1.0 / steps
    hi_coef = m.mu_high if side == "sup" else m.mu_low
    lo_coef = m.mu_low if side == "sup" else m.mu_high

    def update(u, dx, dt):
        d2 = ref_second_difference(u, dx)
        d1 = np.zeros_like(u)
        d1[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        d1[0] = (u[1] - u[0]) / dx
        d1[-1] = (u[-1] - u[-2]) / dx
        drift = hi_coef * np.maximum(d1, 0.0) + lo_coef * np.minimum(d1, 0.0)
        return u + dt * (0.5 * d2 + drift)

    times, values, lo, hi = ref_march(terminal(x), dx, steps, dt, update)
    return x, times, values, ref_root(x, values, space_points), lo, hi


# ---------------------------------------------------------------------------
# drawn problems
# ---------------------------------------------------------------------------

def ordered_pair(lo, hi):
    """(a, b) with a <= b, equal about a third of the time."""
    value = st.floats(lo, hi, allow_nan=False)
    return st.one_of(
        value.map(lambda a: (a, a)),
        st.tuples(value, value).map(lambda p: (min(p), max(p))),
    )


@st.composite
def terminals(draw, bounded_only):
    names = ["gauss", "normal_cdf", "s_shape"]
    if not bounded_only:
        names.append("neg_abs")
    name = draw(st.sampled_from(names))
    if name != "s_shape":
        return named_test_function(name)
    spec = SShapeSpec(phi1=named_test_function("tanh"),
                      c=draw(st.floats(-1.0, 1.0)),
                      theta=draw(st.floats(0.2, 1.0)))
    return make_s_shaped(spec, draw(st.sampled_from(["phi", "phibar"])))


@st.composite
def time_steps(draw, dt_max):
    """None (the CFL default) or an explicit step count that is stable."""
    if draw(st.booleans()):
        return None
    return math.ceil(draw(st.floats(1.05, 3.0)) / dt_max)


def spacing(problem, space_points):
    L = problem.halfwidth()
    x = np.linspace(-L, L, space_points)
    return x[1] - x[0]


@st.composite
def problems(draw):
    space_points = draw(st.integers(5, 301))
    if draw(st.booleans()):
        sigma_low, sigma_high = draw(ordered_pair(0.5, 2.5))
        v = VarianceInterval(sigma_low, sigma_high)
        terminal = draw(terminals(bounded_only=False))
        dx = spacing(HjbProblem(GVariance(v), terminal), space_points)
        steps = draw(time_steps(dx * dx / sigma_high ** 2))
        return ("g_heat", v, terminal, None, space_points, steps)
    mu_low, mu_high = draw(ordered_pair(-1.0, 1.0))
    m = MeanInterval(mu_low, mu_high)
    side = draw(st.sampled_from(["sup", "inf"]))
    terminal = draw(terminals(bounded_only=True))
    dx = spacing(HjbProblem(GMean(m, side=side), terminal), space_points)
    mu_max = max(abs(mu_low), abs(mu_high))
    dt_max = min(dx * dx, dx / mu_max) if mu_max > 0 else dx * dx
    steps = draw(time_steps(dt_max))
    return ("g_expectation", m, terminal, side, space_points, steps)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_in_place_march_is_bit_identical(problem):
    kind, interval, terminal, side, space_points, steps = problem
    if kind == "g_heat":
        grid = solve_g_heat(interval, terminal, space_points, steps)
        ref = ref_g_heat(interval, terminal, space_points, steps)
    else:
        grid = solve_g_expectation(interval, terminal, side, space_points, steps)
        ref = ref_g_expectation(interval, terminal, side, space_points, steps)
    x, times, values, u0, lo, hi = ref
    assert grid.x.tobytes() == x.tobytes()
    assert grid.times.tobytes() == times.tobytes()
    assert grid.values.shape == values.shape
    assert grid.values.tobytes() == values.tobytes()
    assert (grid.u0, grid.min_seen, grid.max_seen) == (u0, lo, hi)
