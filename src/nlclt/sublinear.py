"""Terminal-value solvers for the sublinear limit functionals.

The G-heat equation gives the upper expectation of a payoff of a
variance-uncertain limit; the semilinear drift equation gives the
mean-uncertain value (the backward-equation value solved through its
equivalent parabolic form).  A recombining-lattice backward induction with
+-1 innovations provides an independent cross-check of both solvers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import MeanInterval, VarianceInterval
from .errors import InvalidParams, InvalidTheta, UnstableResolution

CFL_SAFETY = 0.4
DEFAULT_SPACE_POINTS = 2001
# Not a cap: a march stores its terminal layer, every
# (steps // (MAX_VALUE_SNAPSHOTS - 1))-th layer and its last layer.  From 100
# steps up that is 11 layers when 10 divides the step count and 12 otherwise
# (a default 2001-point solve stores 12); fewer steps store more layers.
MAX_VALUE_SNAPSHOTS = 11


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """Declared qualitative shape of a payoff around its center."""

    center: float = 0.0
    symmetric: bool = False
    monotone_right: Optional[str] = None   # "increasing" | "decreasing"
    convexity_right: Optional[str] = None  # "concave" | "convex"


@dataclass(frozen=True)
class SShapeMeta:
    """Construction record of an S-shaped payoff (used to pick its
    explicit limit density)."""

    envelope: str           # "phi" | "phibar"
    theta: float
    center: float
    phi1_convexity: Optional[str]


@dataclass(frozen=True)
class TestFunction:
    """Evaluable payoff with growth class and optional shape metadata."""

    __test__ = False  # not a pytest class despite the name

    rule: Callable
    growth: str  # "bounded_with_limits" | "linear_growth"
    shape: Optional[Shape] = None
    limits: Optional[tuple] = None  # declared (phi(-inf), phi(+inf))
    s_shape: Optional[SShapeMeta] = None
    name: str = ""

    def __post_init__(self):
        if self.growth not in ("bounded_with_limits", "linear_growth"):
            raise InvalidParams(f"unknown growth class {self.growth!r}")

    def __call__(self, x):
        out = np.asarray(self.rule(np.asarray(x, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out

    def audit(self) -> list:
        """Check declared limits and symmetry; returns violation strings."""
        problems = []
        if self.growth == "bounded_with_limits" and self.limits is not None:
            low, high = self.limits
            if abs(self(-1e6) - low) > 1e-9:
                problems.append("left limit differs from declared value")
            if abs(self(1e6) - high) > 1e-9:
                problems.append("right limit differs from declared value")
        if self.shape is not None and self.shape.symmetric:
            c = self.shape.center
            xs = np.linspace(0.0, 6.0, 241)
            if np.max(np.abs(self(c + xs) - self(c - xs))) > 1e-12:
                problems.append("declared symmetry fails on the audit grid")
        return problems


def named_test_function(name: str) -> TestFunction:
    """Registry of payoffs used by the CLI and the acceptance problems."""
    if name == "gauss":
        return TestFunction(
            rule=lambda y: np.exp(-y * y), growth="bounded_with_limits",
            shape=Shape(center=0.0, symmetric=True, monotone_right="decreasing"),
            limits=(0.0, 0.0), name="gauss")
    if name == "gauss_half":
        return TestFunction(
            rule=lambda y: np.exp(-0.5 * y * y), growth="bounded_with_limits",
            shape=Shape(center=0.0, symmetric=True, monotone_right="decreasing"),
            limits=(0.0, 0.0), name="gauss_half")
    if name == "normal_cdf":
        from .numerics import std_normal_cdf_arr
        return TestFunction(
            rule=std_normal_cdf_arr, growth="bounded_with_limits",
            shape=Shape(center=0.0, monotone_right="increasing"),
            limits=(0.0, 1.0), name="normal_cdf")
    if name == "abs":
        return TestFunction(
            rule=np.abs, growth="linear_growth",
            shape=Shape(center=0.0, symmetric=True, monotone_right="increasing",
                        convexity_right="convex"),
            name="abs")
    if name == "neg_abs":
        return TestFunction(
            rule=lambda y: -np.abs(y), growth="linear_growth",
            shape=Shape(center=0.0, symmetric=True, monotone_right="decreasing",
                        convexity_right="concave"),
            name="neg_abs")
    if name == "tanh":
        return TestFunction(
            rule=np.tanh, growth="bounded_with_limits",
            shape=Shape(center=0.0, monotone_right="increasing",
                        convexity_right="concave"),
            limits=(-1.0, 1.0), name="tanh")
    if name == "clip_linear":
        return TestFunction(
            rule=lambda y: np.clip(y, -10.0, 10.0), growth="bounded_with_limits",
            shape=Shape(center=0.0, monotone_right="increasing"),
            limits=(-10.0, 10.0), name="clip_linear")
    raise InvalidParams(f"unknown test function {name!r}")


@dataclass(frozen=True)
class SShapeSpec:
    """Right branch phi1, junction c, and scale ratio theta = sig_lo/sig_hi."""

    phi1: TestFunction
    c: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise InvalidTheta(f"theta must lie in (0, 1], got {self.theta}")


def make_s_shaped(spec: SShapeSpec, envelope: str) -> TestFunction:
    """Glue phi1 on [c, inf) to its theta-scaled point reflection on (-inf, c).

    envelope "phi" compresses the left branch by theta, "phibar" stretches
    it by 1/theta; both are continuous and C1 at the junction.
    """
    if envelope not in ("phi", "phibar"):
        raise InvalidParams(f"unknown envelope {envelope!r}")
    phi1, c, theta = spec.phi1, spec.c, spec.theta
    ratio = theta if envelope == "phi" else 1.0 / theta
    phi1_c = float(phi1(c))

    def rule(x):
        x = np.asarray(x, dtype=float)
        reflected = -(x - c) / ratio + c
        left = -ratio * phi1.rule(reflected) + (1.0 + ratio) * phi1_c
        return np.where(x >= c, phi1.rule(x), left)

    limits = None
    if phi1.limits is not None:
        right_lim = phi1.limits[1]
        limits = (-ratio * right_lim + (1.0 + ratio) * phi1_c, right_lim)
    convexity = phi1.shape.convexity_right if phi1.shape else None
    return TestFunction(
        rule=rule, growth="bounded_with_limits",
        shape=Shape(center=c, symmetric=(theta == 1.0 and envelope == "phi"),
                    monotone_right=phi1.shape.monotone_right if phi1.shape else None,
                    convexity_right=convexity),
        limits=limits,
        s_shape=SShapeMeta(envelope=envelope, theta=theta, center=c,
                           phi1_convexity=convexity),
        name=f"s_{envelope}_{phi1.name}")


# ---------------------------------------------------------------------------
# generators and problems
# ---------------------------------------------------------------------------

def compute_G(a: float, v: VarianceInterval) -> float:
    """Sublinear envelope of a/2 * conditional second moment."""
    if a >= 0:  # ties take the + branch
        return 0.5 * v.sigma_high ** 2 * a
    return 0.5 * v.sigma_low ** 2 * a


@dataclass(frozen=True)
class GVariance:
    interval: VarianceInterval
    side: str = "sup"

    def __post_init__(self):
        if self.side not in ("sup", "inf"):
            raise InvalidParams(f"unknown side {self.side!r}")


@dataclass(frozen=True)
class GMean:
    interval: MeanInterval
    side: str = "sup"

    def __post_init__(self):
        if self.side not in ("sup", "inf"):
            raise InvalidParams(f"unknown side {self.side!r}")


@dataclass(frozen=True)
class HjbProblem:
    """Terminal-value nonlinear parabolic problem on [-L, L] x [0, 1]."""

    generator: object  # GVariance | GMean
    terminal: TestFunction
    domain_halfwidth: Optional[float] = None

    def halfwidth(self) -> float:
        if self.domain_halfwidth is not None:
            return self.domain_halfwidth
        center = abs(self.terminal.shape.center) if self.terminal.shape else 0.0
        if isinstance(self.generator, GVariance):
            return center + 8.0 * self.generator.interval.sigma_high
        m = self.generator.interval
        return center + 8.0 + abs(m.mu_high) + abs(m.mu_low)


@dataclass(frozen=True)
class ValueGrid:
    """Stored snapshots of the time-stepped solution plus its root value."""

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray         # shape (len(times), len(x)); times descending from 1
    u0: float                  # u(0, 0)
    min_seen: float            # global over all marched steps
    max_seen: float

    def rows(self):
        for t, layer in zip(self.times, self.values):
            for xi, ui in zip(self.x, layer):
                yield t, xi, ui


def _march(u0: np.ndarray, steps: int, step: Callable) -> tuple:
    """Explicit backward march from t = 1 to t = 0 through `steps` calls of
    `step(u)`, each of which advances the one state vector u in place.

    Stores the terminal layer, every (steps // (MAX_VALUE_SNAPSHOTS - 1))-th
    layer and the last layer, which is 11 or 12 layers from 100 steps up
    (see MAX_VALUE_SNAPSHOTS).  Returns the layer times (1.0 down to 0.0),
    the layers, and the least and greatest value over every marched step.
    """
    u = u0.astype(float)
    snap_every = max(1, steps // (MAX_VALUE_SNAPSHOTS - 1))
    ends = list(range(snap_every, steps + 1, snap_every))
    if ends[-1] != steps:
        ends.append(steps)
    times = np.empty(len(ends) + 1)
    values = np.empty((len(ends) + 1, len(u)))
    times[0] = 1.0
    values[0] = u
    run_lo = u.copy()
    run_hi = u.copy()
    done = 0
    for layer, end in enumerate(ends, start=1):
        for _ in range(end - done):
            step(u)
            np.minimum(run_lo, u, out=run_lo)
            np.maximum(run_hi, u, out=run_hi)
        done = end
        times[layer] = (steps - end) / steps
        values[layer] = u
    return times, values, float(run_lo.min()), float(run_hi.max())


def _second_difference_into(u: np.ndarray, dx2: float, d2: np.ndarray) -> None:
    """Write (u[i+1] - 2 u[i] + u[i-1]) / dx2 into the interior of d2.

    The ends of d2 are left as they are; the callers keep them at 0, a
    vanishing second difference at the boundary (linear extrapolation).
    """
    inner = d2[1:-1]
    np.multiply(u[1:-1], 2.0, out=inner)
    np.subtract(u[2:], inner, out=inner)
    np.add(inner, u[:-2], out=inner)
    np.divide(inner, dx2, out=inner)


def _solve(problem: HjbProblem, space_points: int, time_steps: Optional[int],
           dt_bound: Callable, make_step: Callable) -> ValueGrid:
    """Grid, step count, march and root value shared by both solvers.

    dt_bound(dx) is the largest stable time step; make_step(n, dx, dt)
    returns the in-place one-step update on n grid points.
    """
    if space_points < 3:
        raise InvalidParams(f"space_points must be >= 3, got {space_points}")
    if time_steps is not None and time_steps < 1:
        raise InvalidParams(f"time_steps must be >= 1, got {time_steps}")
    L = problem.halfwidth()
    x = np.linspace(-L, L, space_points)
    dx = x[1] - x[0]
    dt_max = dt_bound(dx)
    if time_steps is None:
        steps = math.ceil(1.0 / (CFL_SAFETY * dt_max))
    else:
        steps = time_steps
        if 1.0 / steps > dt_max:
            raise UnstableResolution(
                f"dt = {1.0 / steps:.3e} exceeds the stability bound "
                f"{dt_max:.3e}; increase time_steps")
    step = make_step(space_points, dx, 1.0 / steps)
    times, values, lo, hi = _march(problem.terminal(x), steps, step)
    mid = space_points // 2
    u0 = float(np.interp(0.0, x, values[-1])) if x[mid] != 0.0 else float(values[-1][mid])
    return ValueGrid(x=x, times=times, values=values, u0=u0,
                     min_seen=lo, max_seen=hi)


def solve_g_heat(v: VarianceInterval, terminal: TestFunction,
                 space_points: int = DEFAULT_SPACE_POINTS,
                 time_steps: Optional[int] = None,
                 domain_halfwidth: Optional[float] = None) -> ValueGrid:
    """March the G-heat equation back from t = 1; u(0,0) is the upper
    expectation of the terminal under the variance interval."""
    problem = HjbProblem(GVariance(v), terminal, domain_halfwidth)
    sig_max2 = v.sigma_high ** 2
    a_pos = 0.5 * sig_max2
    a_neg = 0.5 * v.sigma_low ** 2

    def make_step(n, dx, dt):
        dx2 = dx * dx
        d2 = np.zeros(n)
        rate = np.empty(n)
        rate_pos = np.empty(n)
        convex = np.empty(n, dtype=bool)

        def step(u):
            # u += dt * G(d2): np.where(d2 >= 0, a_pos * d2, a_neg * d2)
            _second_difference_into(u, dx2, d2)
            np.multiply(d2, a_neg, out=rate)
            np.multiply(d2, a_pos, out=rate_pos)
            np.greater_equal(d2, 0.0, out=convex)
            np.copyto(rate, rate_pos, where=convex)
            np.multiply(rate, dt, out=rate)
            np.add(u, rate, out=u)
        return step

    return _solve(problem, space_points, time_steps,
                  lambda dx: dx * dx / sig_max2, make_step)


def solve_g_expectation(m: MeanInterval, terminal: TestFunction, side: str,
                        space_points: int = DEFAULT_SPACE_POINTS,
                        time_steps: Optional[int] = None,
                        domain_halfwidth: Optional[float] = None) -> ValueGrid:
    """March the semilinear drift equation back from t = 1; u(0,0) is the
    mean-uncertain value of the terminal payoff at unit diffusion.

    Bounded terminals only; the drift term is max (sup) or min (inf) of
    mu * gradient over the mean interval.
    """
    if side not in ("sup", "inf"):
        raise InvalidParams(f"unknown side {side!r}")
    if terminal.growth != "bounded_with_limits":
        raise InvalidParams("mean-uncertain solve needs a bounded terminal")
    problem = HjbProblem(GMean(m, side=side), terminal, domain_halfwidth)
    mu_max = max(abs(m.mu_low), abs(m.mu_high))
    hi_coef = m.mu_high if side == "sup" else m.mu_low
    lo_coef = m.mu_low if side == "sup" else m.mu_high

    def dt_bound(dx):
        return min(dx * dx, dx / mu_max) if mu_max > 0 else dx * dx

    def make_step(n, dx, dt):
        dx2 = dx * dx
        two_dx = 2.0 * dx
        d2 = np.zeros(n)
        d1 = np.empty(n)
        drift = np.empty(n)
        down = np.empty(n)
        rate = np.empty(n)

        def step(u):
            # u += dt * (0.5 * d2 + (hi * max(d1, 0) + lo * min(d1, 0)))
            _second_difference_into(u, dx2, d2)
            np.subtract(u[2:], u[:-2], out=d1[1:-1])
            np.divide(d1[1:-1], two_dx, out=d1[1:-1])
            d1[0] = (u[1] - u[0]) / dx
            d1[-1] = (u[-1] - u[-2]) / dx
            np.maximum(d1, 0.0, out=drift)
            np.multiply(drift, hi_coef, out=drift)
            np.minimum(d1, 0.0, out=down)
            np.multiply(down, lo_coef, out=down)
            np.add(drift, down, out=drift)
            np.multiply(d2, 0.5, out=rate)
            np.add(rate, drift, out=rate)
            np.multiply(rate, dt, out=rate)
            np.add(u, rate, out=u)
        return step

    return _solve(problem, space_points, time_steps, dt_bound, make_step)


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def _shift_interp(v: np.ndarray, offset_cells: float) -> np.ndarray:
    """Values of v displaced by a real number of grid cells, with linear
    interpolation off integer displacements and linear extrapolation at
    the edges."""
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


def tree_value_oracle(problem: HjbProblem, steps: int,
                      grid_points: int = 4001) -> float:
    """Backward induction on a recombining lattice with +-1 innovations.

    At each step the adversary takes whichever extreme control (scale or
    drift) optimizes the one-step expectation of the continuation value.
    Serves as the solver-independent cross-check of the PDE values.
    """
    if steps < 1:
        raise InvalidParams("steps must be >= 1")
    L = problem.halfwidth()
    x = np.linspace(-L, L, grid_points)
    h = x[1] - x[0]
    v = problem.terminal(x)
    gen = problem.generator
    if isinstance(gen, GVariance):
        opt = np.maximum if gen.side == "sup" else np.minimum
        controls = (gen.interval.sigma_low, gen.interval.sigma_high)
        rtn = math.sqrt(steps)
        for _ in range(steps):
            best = None
            for sig in controls:
                d = sig / rtn / h
                c = 0.5 * (_shift_interp(v, d) + _shift_interp(v, -d))
                best = c if best is None else opt(best, c)
            v = best
    elif isinstance(gen, GMean):
        opt = np.maximum if gen.side == "sup" else np.minimum
        controls = (gen.interval.mu_low, gen.interval.mu_high)
        rtn = 1.0 / math.sqrt(steps)
        for _ in range(steps):
            best = None
            for mu in controls:
                up = (mu / steps + rtn) / h
                dn = (mu / steps - rtn) / h
                c = 0.5 * (_shift_interp(v, up) + _shift_interp(v, dn))
                best = c if best is None else opt(best, c)
            v = best
    else:
        raise InvalidParams(f"unknown generator {type(gen).__name__}")
    return float(v[grid_points // 2])
