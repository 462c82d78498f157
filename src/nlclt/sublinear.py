"""Terminal-value solvers for the sublinear limit functionals.

Both limits solve u_t + G(u_x, u_xx) = 0, with G(p, a) = pick over mu of
mu * p + pick over sigma of sigma^2 * a / 2 on a rectangle of means and
volatilities.  The G-heat equation, its variance face (mu = 0), gives the
upper or the lower expectation of a variance-uncertain limit; the drift
equation, its mean face (sigma = 1), the mean-uncertain value.  One explicit
scheme marches either face on its grid and every other point of it, and a
solve reports the two-grid Richardson extrapolation.  The lattice oracle
checks both faces against the adversarial DP: a call of measure_dp's
backward induction with +-1 innovations on the problem's domain.  A solve
asked for the oracle may run the coarse march and the oracle in one forked
child while the fine march runs here, through measure_dp._forked, whose
third caller it is (see _solve); every value keeps its bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .densities import MeanInterval, VarianceInterval
from .errors import InvalidParams, InvalidTheta, UnstableResolution
from .numerics import side_extremum

# The coarse march's step is at most this fraction of its grid's stability
# bound, and the fine march's is a quarter of it at half the spacing.  On
# either face of the one scheme the diffusion coefficient
# c = sigma^2 / 2 * dt / dx^2 is then at most 0.45 <= 0.5, and while the
# drift's bound is dx^2 (|mu| * 2 * dx <= 1 on the coarse grid) the centre
# weight 1 - 2 * c of a drift step (sigma = 1) is at least 0.1 > 0, so the
# scheme stays monotone.  Past that the drift's bound is 1 / mu^2: stable,
# but not monotone.
CFL_SAFETY = 0.9
# Largest |mu| * 2 * dx (the cell Peclet number of the coarse grid) a drift
# solve accepts.  Past 1 the step is bound by 1 / mu^2, so the march takes
# (|mu| * 2 * dx)^2 times the steps the diffusion alone would need; this
# caps that at 1024x (|mu| up to ~122 at the default grid; a 3-point grid
# with |mu| <= 1 reaches 20).
MAX_DRIFT_PECLET = 32.0
DEFAULT_SPACE_POINTS = 2001
# Not a cap: a solve stores its terminal layer, every
# (coarse steps // (MAX_VALUE_SNAPSHOTS - 1))-th coarse step and the last.
# From 100 coarse steps up that is 11 layers when 10 divides the coarse step
# count and 12 otherwise (a default 2001-point solve stores 12); fewer steps
# store more layers.
MAX_VALUE_SNAPSHOTS = 11
# Steps a march takes between two reductions of its running min/max: a
# block of 16 rows at 2001 points is 256 KiB, and stays in cache.
MARCH_BLOCK_STEPS = 16


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
    return TestFunction(
        rule=rule, growth="bounded_with_limits",
        shape=Shape(center=c, symmetric=(theta == 1.0 and envelope == "phi"),
                    monotone_right=phi1.shape.monotone_right if phi1.shape else None,
                    convexity_right=phi1.shape.convexity_right if phi1.shape else None),
        limits=limits,
        s_shape=SShapeMeta(envelope=envelope, theta=theta),
        name=f"s_{envelope}_{phi1.name}")


# ---------------------------------------------------------------------------
# generators and problems
# ---------------------------------------------------------------------------

# Each generator is a face of the rectangle of G: ((sigma, sigma'), (mu, mu')),
# each pair in the order the step picks between its two products.

@dataclass(frozen=True)
class GVariance:
    interval: VarianceInterval
    side: str = "sup"

    def __post_init__(self):
        side_extremum(self.side)

    @property
    def face(self) -> tuple:  # sigma over the interval, mu = 0
        return (self.interval.sigma_low, self.interval.sigma_high), (0.0, 0.0)


@dataclass(frozen=True)
class GMean:
    interval: MeanInterval
    side: str = "sup"

    def __post_init__(self):
        side_extremum(self.side)

    @property
    def face(self) -> tuple:  # mu over the interval, sigma = 1
        return (1.0, 1.0), (self.interval.mu_high, self.interval.mu_low)


@dataclass(frozen=True)
class HjbProblem:
    """Terminal-value nonlinear parabolic problem on [-L, L] x [0, 1]."""

    generator: object  # GVariance | GMean
    terminal: TestFunction
    domain_halfwidth: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.generator, (GVariance, GMean)):
            raise InvalidParams(
                f"unknown generator {type(self.generator).__name__}")
        if self.domain_halfwidth is not None and not (
                0.0 < self.domain_halfwidth < math.inf):
            raise InvalidParams(f"domain_halfwidth must be finite and > 0, "
                                f"got {self.domain_halfwidth}")

    def halfwidth(self) -> float:
        if self.domain_halfwidth is not None:
            return self.domain_halfwidth
        center = abs(self.terminal.shape.center) if self.terminal.shape else 0.0
        return default_halfwidth(self.generator.interval, center)


def default_halfwidth(interval, center: float = 0.0) -> float:
    """Domain half-width: center (a distance from 0) plus 8 sigma_high of a
    VarianceInterval, or 8 + |mu_high| + |mu_low| of a MeanInterval."""
    if isinstance(interval, VarianceInterval):
        return center + 8.0 * interval.sigma_high
    return center + 8.0 + abs(interval.mu_high) + abs(interval.mu_low)


@dataclass(frozen=True)
class ValueGrid:
    """Stored layers of the two-grid extrapolated solution plus its root value.

    The solution is marched twice: on x at spacing dx, and on x[::2] at
    spacing 2*dx with a quarter of the steps, so that dt/dx^2 is the same on
    both grids.  Each stored layer is the fine layer plus a third of its
    difference from the coarse layer, interpolated linearly onto x
    (Richardson extrapolation: the dx^2 and dt error terms cancel).
    `solve --grid-out` writes each stored layer as one CSV block: its time,
    x and the layer as columns.  A solve asked for tree_steps also holds
    the lattice oracle's root.  The coarse march and the oracle may run in
    one forked child beside the fine march, with the same bits: _solve is
    the third caller of measure_dp._forked, after convergence_experiment's
    solves and policy_simulate's paths.
    """

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray         # shape (len(times), len(x)); times descending from 1
    u0: float                  # u(0, 0)
    # least and greatest value over every step of the fine march and every
    # stored, extrapolated layer
    min_seen: float
    max_seen: float
    steps: int                 # steps of the fine march
    richardson_gap: float      # u0 minus the fine march's u(0, 0)
    dt_ratio: float            # the fine march's dt over its dt_bound(dx)
    tree_value: Optional[float] = None  # tree_value_oracle's root, if asked for


class _March(NamedTuple):
    """One single-grid march: its grid, step count, stored layer times and
    layers, its least and greatest value over every marched step, and its
    dt over its scheme's dt_bound on its grid."""

    x: np.ndarray
    steps: int
    times: np.ndarray
    values: np.ndarray
    lo: float
    hi: float
    dt_ratio: float


def _march(u0: np.ndarray, steps: int, every: int, bind: Callable) -> tuple:
    """Explicit backward march from t = 1 to t = 0 through `steps` calls of
    steps bound by `bind(u, out)`: each call writes the interior of the
    state one step on from u into out (a different row).

    The steps fill the rows of a block of at most MARCH_BLOCK_STEPS rows
    after the row they start from, and the block's least and greatest values
    are reduced once per block, not once per step.  Each pair of adjacent
    rows is bound once per march, so a step only calls its ufuncs.  Stores
    the terminal layer, every `every`-th layer and the last layer.  Returns
    the layer times (1.0 down to 0.0), the layers, and the least and
    greatest value over every marched step.
    """
    ends = list(range(every, steps + 1, every))
    if ends[-1] != steps:
        ends.append(steps)
    # Every row starts as the terminal: a step writes only the interior,
    # so the end values stay the terminal's.
    block = np.empty((min(MARCH_BLOCK_STEPS, steps) + 1, len(u0)))
    block[:] = u0
    bound = [bind(u, out) for u, out in zip(block, block[1:])]
    times = np.empty(len(ends) + 1)
    values = np.empty((len(ends) + 1, len(u0)))
    times[0] = 1.0
    values[0] = block[0]
    lo = block[0].min()
    hi = block[0].max()
    done = 0
    for layer, end in enumerate(ends, start=1):
        while done < end:
            count = min(len(bound), end - done)
            for step in bound[:count]:
                step()
            marched = block[1:count + 1]
            lo = min(lo, marched.min())
            hi = max(hi, marched.max())
            block[0] = block[count]
            done += count
        times[layer] = (steps - end) / steps
        values[layer] = block[0]
    return times, values, float(lo), float(hi)


def _scheme(gen) -> tuple:
    """(diffusion_bound, dt_bound, make_step) of the march of the generator's face.

    dt_bound(dx) is the largest stable time step and diffusion_bound(dx)
    the largest the diffusion term alone allows, and make_step(n, dx, dt)
    returns bind(u, out): it binds the views of u and out a step reads and
    writes on n grid points, and returns the step from u into out as a
    call of no arguments.  make_step folds dt and the spacing into 0-d
    coefficients c = sigma^2 / 2 * dt / dx^2 and b = mu * dt / (2 dx), so
    a step makes only ufunc calls on bound arrays and writes the interior
    only:
    out[1:-1] = u[1:-1] + pick(c_lo * s, c_hi * s) + pick(b_hi * g, b_lo * g),
    with s the second and g the doubled central difference of u and pick
    the max (sup) or the min (inf).  A pick of two equal coefficients is one
    product and a zero drift adds no term: 6 array operations per G-heat
    step (4 when sigma_low = sigma_high) and 9 per drift step.
    """
    (sigma_lo, sigma_hi), (mu_hi, mu_lo) = gen.face
    mu_max = max(abs(mu_lo), abs(mu_hi))
    pick = side_extremum(gen.side)

    def diffusion_bound(dx):
        ratio = dx / sigma_hi  # neither dx^2 nor sigma_high^2 need be a float
        return ratio * ratio

    # The drift is differenced centrally: with unit diffusion the explicit
    # step is stable for dt <= dx^2 and mu^2 * dt <= 1, the smaller bound
    # where |mu| * dx > 1.  (There the neighbour weights go negative at any
    # dt, so an upwind-style dx / |mu| bound buys nothing, and it is too
    # long for the central step.)  The variance face has mu = 0.
    def dt_bound(dx):
        peclet = mu_max * dx
        if peclet > MAX_DRIFT_PECLET:
            raise UnstableResolution(
                f"|mu| * dx = {peclet:.3e} on the coarse grid (dx = {dx:.3e}) "
                f"exceeds {MAX_DRIFT_PECLET:g}; increase space_points")
        return diffusion_bound(dx) if peclet <= 1.0 else 1.0 / (mu_max * mu_max)

    def make_step(n, dx, dt):
        c_lo, c_hi = (0.5 * sigma ** 2 * dt / (dx * dx) for sigma in (sigma_lo, sigma_hi))
        b_hi, b_lo = (mu * (dt / (2.0 * dx)) for mu in (mu_hi, mu_lo))
        two_scales, two_drifts = c_lo != c_hi, b_hi != b_lo
        drifts = b_hi != 0.0 or b_lo != 0.0
        # 0-d arrays: numpy converts a Python float afresh on every call
        c_lo, c_hi, b_hi, b_lo = (np.array(v) for v in (c_lo, c_hi, b_hi, b_lo))
        subtract, multiply, add = np.subtract, np.multiply, np.add
        first, second, rate, drift = (np.empty(k) for k in (n - 1, n - 2, n - 2, n - 2))
        right, left = first[1:], first[:-1]

        # The end values are never written, so they stay at the terminal's: a
        # one-sided end difference would be downwind where the drift points
        # out of the domain, and push the end values past the terminal's range.
        def bind(u, out):
            after, before, inner, interior = u[1:], u[:-1], u[1:-1], out[1:-1]

            # out as the third positional argument, but pick's out as a
            # keyword: numpy deprecates a third positional to maximum/minimum
            def step():
                subtract(after, before, first)
                subtract(right, left, second)
                multiply(second, c_lo, rate)
                if two_scales:
                    # c_hi > c_lo >= 0: max takes c_hi * s where s >= 0, min where s <= 0
                    multiply(second, c_hi, second)
                    pick(rate, second, out=rate)
                if drifts:
                    add(right, left, second)
                    multiply(second, b_hi, drift)
                    if two_drifts:
                        multiply(second, b_lo, second)
                        pick(drift, second, out=drift)
                    add(rate, drift, rate)
                add(inner, rate, interior)
            return step
        return bind

    return diffusion_bound, dt_bound, make_step


def _root(x: np.ndarray, layer: np.ndarray) -> float:
    """The layer's value at x = 0, interpolated linearly (at a node, its
    value)."""
    return float(np.interp(0.0, x, layer))


def _plan(problem: HjbProblem, space_points: int,
          time_steps: Optional[int]) -> tuple:
    """(march, coarse_cells): march(fine) runs the fine (fine = True) or
    the coarse march of _scheme's step on the problem's generator,
    whichever face it is, as a _March record, and coarse_cells is the
    coarse march's cell-steps (its steps times its grid points).

    The fine grid is x = linspace(-L, L, space_points) with spacing dx, the
    coarse grid x[::2] with spacing 2 * dx; it ends at L only when
    space_points is odd, so the extrapolation assumes an odd grid (an even
    one's last point is left un-extrapolated).  The coarse march takes
    ceil(1 / (CFL_SAFETY * dt_bound(2 * dx))) steps, or ceil(time_steps / 4)
    for an explicit count, which must keep the diffusion's bound on x
    (raised to the coarse grid's stability bound, which only the drift's
    1 / mu^2 limit can reach), and the fine march exactly 4 times as many,
    so dt/dx^2 is the same on both.  Both store their layers at the coarse
    march's every (coarse steps // (MAX_VALUE_SNAPSHOTS - 1))-th step and
    its last.
    """
    if space_points < 3:
        raise InvalidParams(f"space_points must be >= 3, got {space_points}")
    if time_steps is not None and time_steps < 1:
        raise InvalidParams(f"time_steps must be >= 1, got {time_steps}")
    diffusion_bound, dt_bound, make_step = _scheme(problem.generator)
    L = problem.halfwidth()
    x = np.linspace(-L, L, space_points)
    dx = float(x[1] - x[0])  # a Python float: its square may be inf, not a warning
    # the step coefficients divide by the squared spacing of both grids
    if not (0.0 < dx * dx and (2.0 * dx) * (2.0 * dx) < math.inf):
        raise UnstableResolution(
            f"the grid spacing dx = {dx:.3e} squares outside the float range; "
            f"change space_points or rescale the problem")
    coarse_bound = dt_bound(2.0 * dx)
    if time_steps is None:
        # at least one step, also where the bound is past the float range
        coarse_steps = max(1, math.ceil(1.0 / (CFL_SAFETY * coarse_bound)))
    else:
        dt_max = diffusion_bound(dx)
        if 1.0 / time_steps > dt_max:
            raise UnstableResolution(
                f"dt = {1.0 / time_steps:.3e} exceeds the stability bound "
                f"{dt_max:.3e}; increase time_steps")
        coarse_steps = max(math.ceil(time_steps / 4),
                           math.ceil(1.0 / coarse_bound))
    every = max(1, coarse_steps // (MAX_VALUE_SNAPSHOTS - 1))

    def march(fine: bool) -> _March:
        grid, spacing, refine = (x, dx, 4) if fine else (x[::2].copy(), 2.0 * dx, 1)
        steps = refine * coarse_steps
        dt = 1.0 / steps
        return _March(grid, steps, *_march(
            problem.terminal(grid), steps, refine * every,
            make_step(len(grid), spacing, dt)), dt / dt_bound(spacing))

    return march, coarse_steps * len(x[::2])


def _marches(problem: HjbProblem, space_points: int,
             time_steps: Optional[int]) -> tuple:
    """The fine and the coarse march of the problem (see _plan), as two
    _March records."""
    march, _ = _plan(problem, space_points, time_steps)
    return march(True), march(False)


def _sent(coarse: _March, tree: list) -> np.ndarray:
    """The coarse march's lo, hi and dt_ratio, layer times and layers, then
    the oracle's root if there is one, as one float64 array."""
    return np.concatenate([(coarse.lo, coarse.hi, coarse.dt_ratio),
                           coarse.times, coarse.values.ravel(), tree])


def _received(sent: np.ndarray, fine: _March) -> tuple:
    """(coarse march, [oracle root] or []) from a _sent array, with the
    grid, step count and layer count the fine march fixes."""
    x = fine.x[::2]
    layers = len(fine.times)
    lo, hi, dt_ratio = sent[:3].tolist()
    end = 3 + layers * (1 + len(x))
    coarse = _March(x, fine.steps // 4, sent[3:3 + layers],
                    sent[3 + layers:end].reshape(layers, len(x)),
                    lo, hi, dt_ratio)
    return coarse, sent[end:].tolist()


def _solve(problem: HjbProblem, space_points: int, time_steps: Optional[int],
           tree_steps: Optional[int] = None) -> ValueGrid:
    """The two marches of the problem, extrapolated layer by layer, and the
    lattice oracle's root over tree_steps steps when it is asked for.

    The coarse march and the oracle need nothing from the fine march.  When
    measure_dp._forks allows for their cell-steps (the coarse march's, plus
    tree_steps times the oracle's target points), measure_dp._forked runs
    them in one child while the fine march runs here.  The child sends the
    coarse march and the oracle's root back as float64 (see _sent), so
    every value keeps its bits.  If either process fails, every march and
    the oracle run again here, so every exception is the serial one.  An
    oracle lattice that does not resolve its step is refused before any
    march (measure_dp._check_resolution).
    """
    from .measure_dp import DEFAULT_GRID_POINTS, _check_resolution, _forked, _forks

    if tree_steps is not None:
        _check_resolution(tree_steps, _oracle_lattice(
            problem, tree_steps, DEFAULT_GRID_POINTS)[1])
    march, coarse_cells = _plan(problem, space_points, time_steps)

    def oracle():
        # through the module attribute, which a tracer may wrap
        return [] if tree_steps is None else [
            tree_value_oracle(problem, tree_steps, DEFAULT_GRID_POINTS)]

    work = coarse_cells + (tree_steps or 0) * DEFAULT_GRID_POINTS
    both = _forked(lambda: march(True),
                   lambda: _sent(march(False), oracle())) \
        if _forks(work) else None
    if both is None:
        fine, coarse, tree = march(True), march(False), oracle()
    else:
        fine, sent = both
        coarse, tree = _received(sent, fine)
    x = fine.x
    fine_root = _root(x, fine.values[-1])
    values = fine.values
    # An even grid's last point lies past the coarse grid's (x[::2] ends at
    # L - dx), so it has no coarse partner and keeps the fine march's value:
    # the terminal's, as at every end point.
    for layer, coarse_layer in zip(values, coarse.values):
        layer += np.interp(x, coarse.x, layer[::2] - coarse_layer, right=0.0) / 3.0
    u0 = _root(x, values[-1])
    return ValueGrid(x=x, times=fine.times, values=values, u0=u0,
                     min_seen=min(fine.lo, float(values.min())),
                     max_seen=max(fine.hi, float(values.max())),
                     steps=fine.steps, richardson_gap=u0 - fine_root,
                     dt_ratio=fine.dt_ratio,
                     tree_value=tree[0] if tree else None)


def solve_g_heat(v: VarianceInterval, terminal: TestFunction, side: str = "sup",
                 space_points: int = DEFAULT_SPACE_POINTS,
                 time_steps: Optional[int] = None,
                 domain_halfwidth: Optional[float] = None,
                 tree_steps: Optional[int] = None) -> ValueGrid:
    """March the G-heat equation back from t = 1; u(0,0) is the upper (sup) or
    the lower (inf) expectation of the terminal under the variance interval.
    With tree_steps, tree_value is the lattice oracle's root over that many
    steps (see tree_value_oracle)."""
    return _solve(HjbProblem(GVariance(v, side), terminal, domain_halfwidth),
                  space_points, time_steps, tree_steps)


def check_mean_solve_inputs(terminal: TestFunction) -> None:
    """solve_g_expectation's precondition on its terminal (GMean checks the side)."""
    if terminal.growth != "bounded_with_limits":
        raise InvalidParams("mean-uncertain solve needs a bounded terminal")


def solve_g_expectation(m: MeanInterval, terminal: TestFunction, side: str,
                        space_points: int = DEFAULT_SPACE_POINTS,
                        time_steps: Optional[int] = None,
                        domain_halfwidth: Optional[float] = None,
                        tree_steps: Optional[int] = None) -> ValueGrid:
    """March the semilinear drift equation back from t = 1; u(0,0) is the
    mean-uncertain value of the terminal payoff at unit diffusion.

    Bounded terminals only; the drift term is max (sup) or min (inf) of
    mu * gradient over the mean interval.  With tree_steps, tree_value is
    the lattice oracle's root over that many steps (see tree_value_oracle).
    """
    check_mean_solve_inputs(terminal)
    return _solve(HjbProblem(GMean(m, side=side), terminal, domain_halfwidth),
                  space_points, time_steps, tree_steps)


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def tree_value_oracle(problem: HjbProblem, steps: int,
                      grid_points: int = 4001) -> float:
    """The adversarial DP of measure_dp with +-1 innovations over `steps`
    steps, on the problem's domain: the lattice counterpart of the PDE.

    A variance generator runs the DP's variance model (bang-bang scales);
    a mean generator runs its mean model at sigma = 0, a +-1/sqrt(steps)
    walk drifted by mu/steps, with mu from the model's exact control set
    on the lattice (the bounds and every whole-cell drift between them).
    grid_points is a target the DP's snapping may refine; values past the
    ends are held at the end values.  The lattice is solved as it is: a
    solve asked for the oracle refuses one that does not resolve the step
    (see _solve).
    """
    from . import measure_dp

    model, grid = _oracle_lattice(problem, steps, grid_points)
    root, _ = measure_dp._solve(model, problem.terminal,
                                problem.generator.side, grid)
    return root


def _oracle_lattice(problem: HjbProblem, steps: int, grid_points: int):
    """The measure_dp model of tree_value_oracle and its _dp_grid lattice."""
    from .measure_dp import RectangularModel, _dp_grid

    gen = problem.generator
    if isinstance(gen, GVariance):
        model = RectangularModel.variance_uncertain(gen.interval, steps)
    else:
        model = RectangularModel.mean_uncertain(gen.interval, 0.0, steps)
    return model, _dp_grid(model, grid_points, halfwidth=problem.halfwidth())
