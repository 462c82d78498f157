"""Bit-identity guard for the PDE marches and their two-grid combination.

The solvers march through preallocated buffers, writing the interior of
each step into the next row of a small block and reducing the running
min/max once per block.  This file keeps a frozen allocating copy of the
marches (a fresh array per operation, np.diff for the differences) and
requires each single-grid march, fine and coarse, to return the same bytes
on hypothesis-drawn problems: same IEEE operations, same order, same
results.  It also requires the solvers' layers to be the fine layers plus a
third of the interpolated fine-minus-coarse difference, bit for bit.

The legacy references keep the earlier step formulas, which divided the
differences by dx^2 and multiplied the rate by dt; the folded stencil must
stay within rounding of them.  The marches must also keep the discrete
comparison principle of a monotone scheme.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlclt.densities import MeanInterval, VarianceInterval
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    _plan,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
)

CFL_SAFETY = 0.9
SNAPSHOT_EVERY_DIVISOR = 10


# ---------------------------------------------------------------------------
# frozen allocating reference
# ---------------------------------------------------------------------------

def ref_march(u0, dx, steps, dt, update, snap_every):
    u = u0.astype(float).copy()
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


def legacy_second_difference(u, dx):
    d2 = np.zeros_like(u)
    d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
    return d2


def ref_grids(problem, space_points, time_steps, dt_bound):
    """(x, dx, steps, snap_every) of the fine and of the coarse march: the
    coarse one on x[::2] at 2 * dx takes the CFL count of its own grid, or a
    quarter of an explicit count (at least its grid's bound), and the fine
    one 4x as many; both store at the same times.  An explicit count keeps
    the diffusion's bound on x, which is dt_bound's when |mu| * dx <= 1."""
    L = problem.halfwidth()
    x = np.linspace(-L, L, space_points)
    dx = x[1] - x[0]
    if time_steps is None:
        coarse = math.ceil(1.0 / (CFL_SAFETY * dt_bound(2.0 * dx)))
    else:
        assert 1.0 / time_steps <= diffusion_bound(problem)(dx)
        coarse = max(math.ceil(time_steps / 4), math.ceil(1.0 / dt_bound(2.0 * dx)))
    every = max(1, coarse // SNAPSHOT_EVERY_DIVISOR)
    return [(x, dx, 4 * coarse, 4 * every), (x[::2].copy(), 2.0 * dx, coarse, every)]


def ref_root(x, layer):
    mid = len(x) // 2
    if x[mid] != 0.0:
        return float(np.interp(0.0, x, layer))
    return float(layer[mid])


def heat_dt_bound(v):
    return lambda dx: dx * dx / v.sigma_high ** 2


def mean_dt_bound(m):
    mu_max = max(abs(m.mu_low), abs(m.mu_high))
    return lambda dx: dx * dx if mu_max * dx <= 1.0 else 1.0 / (mu_max * mu_max)


def diffusion_bound(problem):
    """The largest step an explicit count may take on the reported grid."""
    if isinstance(problem.generator, GVariance):
        return heat_dt_bound(problem.generator.interval)
    return lambda dx: dx * dx


def ref_marches(problem, space_points, time_steps, dt_bound, update):
    """(x, steps, times, values, lo, hi) of the fine and the coarse march."""
    return [(x, steps) + ref_march(problem.terminal(x), dx, steps, 1.0 / steps,
                                   update, every)
            for x, dx, steps, every in ref_grids(problem, space_points, time_steps,
                                                 dt_bound)]


def ref_g_heat(v, terminal, side, space_points, time_steps):
    """ref_marches of the G-heat problem."""
    problem = HjbProblem(GVariance(v, side), terminal)
    a_pos = 0.5 * v.sigma_high ** 2
    a_neg = 0.5 * v.sigma_low ** 2
    pick = np.maximum if side == "sup" else np.minimum

    def update(u, dx, dt):
        c_pos = a_pos * dt / (dx * dx)
        c_neg = a_neg * dt / (dx * dx)
        s = np.diff(u, 2)
        out = u.copy()
        out[1:-1] = u[1:-1] + pick(c_neg * s, c_pos * s)
        return out

    return ref_marches(problem, space_points, time_steps, heat_dt_bound(v), update)


def ref_g_expectation(m, terminal, side, space_points, time_steps):
    """ref_marches of the drift problem."""
    problem = HjbProblem(GMean(m, side=side), terminal)
    pick = np.maximum if side == "sup" else np.minimum

    def update(u, dx, dt):
        c_d = dt / (2.0 * dx * dx)
        c_hi = m.mu_high * (dt / (2.0 * dx))
        c_lo = m.mu_low * (dt / (2.0 * dx))
        f = np.diff(u)
        s = np.diff(f)
        g = f[1:] + f[:-1]
        out = u.copy()  # the end values stay put
        out[1:-1] = u[1:-1] + (c_d * s + pick(c_hi * g, c_lo * g))
        return out

    return ref_marches(problem, space_points, time_steps, mean_dt_bound(m), update)


def legacy_g_heat(v, terminal, side, space_points, time_steps):
    """ref_g_heat with the earlier step formulas."""
    problem = HjbProblem(GVariance(v, side), terminal)
    a_convex, a_concave = (0.5 * v.sigma_high ** 2, 0.5 * v.sigma_low ** 2)
    if side == "inf":
        a_convex, a_concave = a_concave, a_convex

    def update(u, dx, dt):
        d2 = legacy_second_difference(u, dx)
        return u + dt * np.where(d2 >= 0, a_convex * d2, a_concave * d2)

    return ref_marches(problem, space_points, time_steps, heat_dt_bound(v), update)


def legacy_g_expectation(m, terminal, side, space_points, time_steps):
    """ref_g_expectation with the earlier step formulas."""
    problem = HjbProblem(GMean(m, side=side), terminal)
    hi_coef = m.mu_high if side == "sup" else m.mu_low
    lo_coef = m.mu_low if side == "sup" else m.mu_high

    def update(u, dx, dt):
        d2 = legacy_second_difference(u, dx)
        d1 = np.zeros_like(u)  # 0 at both ends: the end values stay put
        d1[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        drift = hi_coef * np.maximum(d1, 0.0) + lo_coef * np.minimum(d1, 0.0)
        return u + dt * (0.5 * d2 + drift)

    return ref_marches(problem, space_points, time_steps, mean_dt_bound(m), update)


def ref_combination(fine, coarse):
    """(values, u0, min_seen, max_seen, richardson_gap) of the two marches."""
    x, _, _, fine_values, fine_lo, fine_hi = fine
    xc, _, _, coarse_values, _, _ = coarse
    values = np.stack([f + np.interp(x, xc, f[::2] - c, right=0.0) / 3.0
                       for f, c in zip(fine_values, coarse_values)])
    u0 = ref_root(x, values[-1])
    return (values, u0, min(fine_lo, float(values.min())),
            max(fine_hi, float(values.max())),
            u0 - ref_root(x, fine_values[-1]))


def solver_problem(kind, interval, terminal, side):
    if kind == "g_heat":
        return HjbProblem(GVariance(interval, side=side), terminal)
    return HjbProblem(GMean(interval, side=side), terminal)


def reference(kind, interval, terminal, side, space_points, steps):
    if kind == "g_heat":
        return ref_g_heat(interval, terminal, side, space_points, steps)
    return ref_g_expectation(interval, terminal, side, space_points, steps)


def legacy(kind, interval, terminal, side, space_points, steps):
    if kind == "g_heat":
        return legacy_g_heat(interval, terminal, side, space_points, steps)
    return legacy_g_expectation(interval, terminal, side, space_points, steps)


def marches(problem, space_points, time_steps):
    """The fine and the coarse march of the problem, as sublinear._solve
    runs them."""
    march, _ = _plan(problem, space_points, time_steps)
    return march(True), march(False)


def assert_marches_bit_identical(kind, interval, terminal, side, space_points,
                                 steps):
    both = marches(solver_problem(kind, interval, terminal, side),
                   space_points, steps)
    refs = reference(kind, interval, terminal, side, space_points, steps)
    for march, (x, n, times, values, lo, hi) in zip(both, refs):
        assert march.x.tobytes() == x.tobytes()
        assert march.steps == n
        assert march.times.tobytes() == times.tobytes()
        assert march.values.shape == values.shape
        assert march.values.tobytes() == values.tobytes()
        assert (march.lo, march.hi) == (lo, hi)


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
    side = draw(st.sampled_from(["sup", "inf"]))
    if draw(st.booleans()):
        sigma_low, sigma_high = draw(ordered_pair(0.5, 2.5))
        v = VarianceInterval(sigma_low, sigma_high)
        terminal = draw(terminals(bounded_only=False))
        dx = spacing(HjbProblem(GVariance(v), terminal), space_points)
        steps = draw(time_steps(heat_dt_bound(v)(dx)))
        return ("g_heat", v, terminal, side, space_points, steps)
    m = MeanInterval(*draw(ordered_pair(-1.0, 1.0)))
    terminal = draw(terminals(bounded_only=True))
    problem = HjbProblem(GMean(m, side=side), terminal)
    steps = draw(time_steps(diffusion_bound(problem)(spacing(problem, space_points))))
    return ("g_expectation", m, terminal, side, space_points, steps)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_in_place_march_is_bit_identical(problem):
    assert_marches_bit_identical(*problem)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_two_grid_combination_is_bit_identical(problem):
    kind, interval, terminal, side, space_points, steps = problem
    solve = solve_g_heat if kind == "g_heat" else solve_g_expectation
    grid = solve(interval, terminal, side, space_points=space_points,
                 time_steps=steps)
    fine, coarse = reference(kind, interval, terminal, side, space_points, steps)
    values, u0, lo, hi, gap = ref_combination(fine, coarse)
    assert grid.x.tobytes() == fine[0].tobytes()
    assert grid.times.tobytes() == fine[2].tobytes() == coarse[2].tobytes()
    assert grid.values.tobytes() == values.tobytes()
    assert (grid.u0, grid.min_seen, grid.max_seen) == (u0, lo, hi)
    assert (grid.steps, grid.richardson_gap) == (fine[1], gap)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_folded_stencil_stays_within_rounding_of_the_legacy_steps(problem):
    # measured: at most 2.2e-16 relative on these draws, 4.4e-16 on the six
    # criterion-6 problems
    kind, interval, terminal, side, space_points, steps = problem
    both = marches(solver_problem(kind, interval, terminal, side),
                   space_points, steps)
    for march, (x, n, times, values, _, _) in zip(
            both, legacy(kind, interval, terminal, side, space_points, steps)):
        assert march.steps == n and march.times.tobytes() == times.tobytes()
        tol = 1e-13 * max(1.0, float(np.abs(values[0]).max()))
        assert np.max(np.abs(march.values - values)) <= tol


# ---------------------------------------------------------------------------
# discrete comparison principle
# ---------------------------------------------------------------------------

def march_excess(upper, lower):
    """The most the stored layers of the march pair `lower` exceed those of
    `upper`, fine and coarse, in units of 1e-14 * max(1, max|terminal|)."""
    excess = []
    for up, low in zip(upper, lower):
        assert (up.steps, up.values.shape) == (low.steps, low.values.shape)
        scale = 1e-14 * max(1.0, float(np.abs(up.values[0]).max()))
        excess.append(float(np.max(low.values - up.values)) / scale)
    return max(excess)


# The marches are monotone schemes while the drift's coarse cell Peclet
# number |mu| * 2 * dx is at most 1, so a larger generator gives larger
# layers, step by step, up to rounding.

@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_g_heat_dominates_the_heat_solve_at_sigma_high(data):
    sigma_low, sigma_high = data.draw(ordered_pair(0.5, 2.5))
    v = VarianceInterval(sigma_low, sigma_high)
    terminal = data.draw(terminals(bounded_only=False))
    space_points = data.draw(st.integers(5, 201))
    problem = HjbProblem(GVariance(v), terminal)
    steps = data.draw(time_steps(heat_dt_bound(v)(spacing(problem, space_points))))
    heat = HjbProblem(GVariance(VarianceInterval(sigma_high, sigma_high)), terminal)
    assert march_excess(marches(problem, space_points, steps),
                        marches(heat, space_points, steps)) <= 1.0


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_drift_sup_dominates_inf_below_peclet_one(data):
    # the domain is fixed first, so that mu can be drawn as a fraction of
    # 1 / (2 dx)
    halfwidth = data.draw(st.floats(2.0, 12.0))
    space_points = data.draw(st.integers(5, 201))
    dx = 2.0 * halfwidth / (space_points - 1)
    low, high = data.draw(ordered_pair(-1.0, 1.0))
    m = MeanInterval(low / (2.0 * dx), high / (2.0 * dx))
    terminal = data.draw(terminals(bounded_only=True))
    steps = data.draw(time_steps(dx * dx))
    sup, inf = (marches(HjbProblem(GMean(m, side), terminal, halfwidth),
                        space_points, steps) for side in ("sup", "inf"))
    assert march_excess(sup, inf) <= 1.0


# ---------------------------------------------------------------------------
# explicit zero paths and block boundaries
# ---------------------------------------------------------------------------

# step counts around the 16-step bound block and the snapshot layers: the
# fine march takes 4 * ceil(steps / 4) of them, the coarse march a quarter
# (64 and 68 put the coarse march at 16 and 17)
EXPLICIT_STEPS = [1, 15, 16, 17, 33, 64, 68, 100]


def stable_points(problem, dt_max_of, steps, most=201):
    """The most odd grid sizes (<= most) at which `steps` steps are accepted."""
    for space_points in range(most, 4, -2):
        if 1.0 / steps <= dt_max_of(spacing(problem, space_points)):
            return space_points
    return 5


def heat_case(sigma_low, sigma_high, name, side="sup"):
    return ("g_heat", VarianceInterval(sigma_low, sigma_high),
            named_test_function(name), side)


def mean_case(mu_low, mu_high, name, side):
    return ("g_expectation", MeanInterval(mu_low, mu_high),
            named_test_function(name), side)


ZERO_PATH_CASES = {
    # -0.0 at the centre of -|x|
    "neg_abs": heat_case(1.0, 2.0, "neg_abs"),
    "neg_abs_inf": heat_case(1.0, 2.0, "neg_abs", "inf"),
    # flat tails beyond |x| = 10, where d1 = d2 = 0 exactly
    "clip_linear_heat": heat_case(1.5, 2.0, "clip_linear"),
    "clip_linear_sup": mean_case(-2.0, 3.0, "clip_linear", "sup"),
    "clip_linear_inf": mean_case(-2.0, 3.0, "clip_linear", "inf"),
    # the two control products are equal
    "sigma_equal": heat_case(1.5, 1.5, "clip_linear"),
    "mu_equal": mean_case(2.0, 2.0, "clip_linear", "sup"),
    # a zero mean bound
    "mu_low_zero_sup": mean_case(0.0, 2.5, "clip_linear", "sup"),
    "mu_low_zero_inf": mean_case(0.0, 2.5, "normal_cdf", "inf"),
    "mu_high_zero_sup": mean_case(-2.5, 0.0, "normal_cdf", "sup"),
    "mu_high_zero_inf": mean_case(-2.5, 0.0, "clip_linear", "inf"),
    "mu_both_zero": mean_case(0.0, 0.0, "clip_linear", "sup"),
}


@pytest.mark.parametrize("steps", EXPLICIT_STEPS)
@pytest.mark.parametrize("case", sorted(ZERO_PATH_CASES))
def test_zero_paths_and_block_ends_are_bit_identical(case, steps):
    kind, interval, terminal, side = ZERO_PATH_CASES[case]
    problem = solver_problem(kind, interval, terminal, side)
    space_points = stable_points(problem, diffusion_bound(problem), steps)
    assert_marches_bit_identical(kind, interval, terminal, side, space_points,
                                 steps)


def test_zero_paths_reach_exact_zeros():
    """The explicit grids do hold the zeros they are named for: -0.0 at the
    centre of -|x|, and flat clip_linear tails beyond |x| = 10."""
    problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                         named_test_function("neg_abs"))
    x = np.linspace(-problem.halfwidth(), problem.halfwidth(), 65)
    centre = problem.terminal(x)[32]
    assert x[32] == 0.0 and centre == 0.0 and np.signbit(centre)
    problem = HjbProblem(GMean(MeanInterval(-2.0, 3.0)),
                         named_test_function("clip_linear"))
    x = np.linspace(-problem.halfwidth(), problem.halfwidth(), 105)
    assert np.count_nonzero(np.diff(problem.terminal(x), 2) == 0.0) > 20
