"""Adversarial dynamic programming over rectangular sets of measures.

Computes sup/inf expectations of the scaled statistics at finite n by
backward induction on a statistic grid, with the adversary choosing the
conditional mean (from a small control grid) or the conditional scale
(bang-bang) at every step.  For rationally related scales the grid is
snapped so that every innovation shift lands exactly on grid points and
the induction is exact-on-grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .classical import DiscreteLaw
from .densities import (
    MeanInterval,
    VarianceInterval,
    cez_pdf,
    chen_epstein_pdf,
    select_mean_limit_params,
    select_variance_limit_params,
)
from .errors import GridTooCoarse, InvalidParams, PolicyMismatch, UnsupportedCombination
from .numerics import Grid1D, SeedSpec, generator, quad_integrate
from .sublinear import TestFunction, solve_g_expectation, solve_g_heat

MEAN_KIND = "mean_uncertain"
VARIANCE_KIND = "variance_uncertain"
MEAN_CONTROL_POINTS = 5
DEFAULT_GRID_POINTS = 4001
COARSE_GRID_POINTS = 2001
INTERP_TOLERANCE = 1e-3
SNAP_DENOMINATOR_CAP = 64
SNAP_REL_TOL = 1e-9


@dataclass(frozen=True)
class RectangularModel:
    """Discrete-time model with an adversary ranging over a rectangular set.

    mean_uncertain:     X_i = mu_i + sigma * eps_i,  mu_i in [mu_low, mu_high]
    variance_uncertain: X_i = sigma_i * eps_i,       sigma_i in {sig_low, sig_high}

    eps_i are iid draws from a finite zero-mean unit-variance innovation law.
    """

    kind: str
    n: int
    mean_interval: Optional[MeanInterval] = None
    sigma: float = 1.0
    var_interval: Optional[VarianceInterval] = None
    innovation: DiscreteLaw = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in (MEAN_KIND, VARIANCE_KIND):
            raise InvalidParams(f"unknown model kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParams("n must be a positive integer")
        if self.innovation is None:
            object.__setattr__(self, "innovation", DiscreteLaw.rademacher())
        if abs(self.innovation.mean()) > 1e-12:
            raise InvalidParams("innovation law must have zero mean")
        if abs(self.innovation.variance() - 1.0) > 1e-12:
            raise InvalidParams("innovation law must have unit variance")
        if self.kind == MEAN_KIND:
            if self.mean_interval is None:
                raise InvalidParams("mean_uncertain model needs a MeanInterval")
            if not self.sigma > 0:
                raise InvalidParams("sigma must be positive")
        else:
            if self.var_interval is None:
                raise InvalidParams("variance_uncertain model needs a VarianceInterval")

    @classmethod
    def mean_uncertain(cls, m: MeanInterval, sigma: float, n: int,
                       innovation: Optional[DiscreteLaw] = None) -> "RectangularModel":
        return cls(kind=MEAN_KIND, n=n, mean_interval=m, sigma=sigma,
                   innovation=innovation)

    @classmethod
    def variance_uncertain(cls, v: VarianceInterval, n: int,
                           innovation: Optional[DiscreteLaw] = None) -> "RectangularModel":
        return cls(kind=VARIANCE_KIND, n=n, var_interval=v, innovation=innovation)

    def halfwidth(self) -> float:
        if self.kind == VARIANCE_KIND:
            return 8.0 * self.var_interval.sigma_high
        m = self.mean_interval
        return 8.0 + abs(m.mu_high) + abs(m.mu_low)

    def controls(self) -> np.ndarray:
        """Adversary control grid: bang-bang scales, or 5 mean points."""
        if self.kind == VARIANCE_KIND:
            return np.array([self.var_interval.sigma_low,
                             self.var_interval.sigma_high])
        m = self.mean_interval
        return np.linspace(m.mu_low, m.mu_high, MEAN_CONTROL_POINTS)

    def mean_step_scale(self) -> float:
        """Coefficient of one innovation in the folded scalar statistic."""
        return self.sigma / self.n + 1.0 / math.sqrt(self.n)


@dataclass(frozen=True)
class DpState:
    """Backward-induction layer: values over the statistic grid at one step."""

    step: int
    grid: Grid1D
    values: np.ndarray


@dataclass(frozen=True)
class AdversaryPolicy:
    """Recorded argmax/argmin control index per (step, grid point)."""

    kind: str
    side: str
    n: int
    x0: float
    h: float
    control_values: tuple
    controls: np.ndarray  # int8, shape (n, points)


def _snapped_spacing(shifts: np.ndarray, halfwidth: float,
                     target_points: int) -> Optional[float]:
    """Grid spacing making every |shift| an exact integer multiple, or None.

    Requires the pairwise shift ratios to be rational with denominator at
    most SNAP_DENOMINATOR_CAP (covers every rationally related scale pair).
    """
    mags = np.unique(np.abs(shifts[shifts != 0.0]))
    if len(mags) == 0:
        return None
    unit = float(mags[0])
    denominators = []
    for d in mags:
        frac = Fraction(float(d) / unit).limit_denominator(SNAP_DENOMINATOR_CAP)
        if abs(float(d) / unit - frac) > SNAP_REL_TOL:
            return None
        denominators.append(frac.denominator)
    base = math.lcm(*denominators)
    h_target = 2.0 * halfwidth / (target_points - 1)
    mult = max(1, math.ceil(unit / (base * h_target)))
    return unit / (base * mult)


def _dp_grid(model: RectangularModel, target_points: int,
             controls: Optional[np.ndarray] = None):
    """Statistic grid and per-(control, atom) cell offsets.

    Returns (x, h, offsets[controls, atoms], exact) where exact means all
    offsets are integers (no interpolation anywhere in the induction).
    """
    L = model.halfwidth()
    if controls is None:
        controls = model.controls()
    atoms = np.asarray(model.innovation.values, dtype=float)
    if model.kind == VARIANCE_KIND:
        shifts = np.array([[sig * v / math.sqrt(model.n) for v in atoms]
                           for sig in controls])
        h = _snapped_spacing(shifts.ravel(), L, target_points)
    else:
        k = model.mean_step_scale()
        shifts = np.array([[mu / model.n + k * v for v in atoms]
                           for mu in controls])
        # snapping the innovation component keeps the dominant shift exact;
        # only the small mu/n drift is interpolated, which stops the
        # fixed-weight interpolation bias from accumulating over n steps
        h = _snapped_spacing(k * atoms, L, target_points)
    if h is None:
        h = 2.0 * L / (target_points - 1)
    half_cells = math.ceil(L / h)
    x = (np.arange(-half_cells, half_cells + 1)) * h
    offsets = shifts / h
    exact = bool(np.all(np.abs(offsets - np.round(offsets)) < 1e-9))
    if exact:
        offsets = np.round(offsets)
    return x, h, offsets, exact


def _shift_plan(offsets: np.ndarray, points: int):
    """Integer shifts and interpolation weights, one row per control.

    An offset within 1e-9 of an integer m is the exact shift m (weight
    None); otherwise it interpolates between m = floor(offset) and m + 1
    with weight offset - m.  Shifts are clamped to +-(points - 1): past that
    every cell reads the edge value anyway (bounded payoffs).
    """
    limit = points - 1
    plan = []
    for row in offsets:
        terms = []
        for off in row:
            m = math.floor(off + 0.5)
            if abs(off - m) < 1e-9:
                terms.append((max(-limit, min(limit, m)), None, None))
            else:
                m = math.floor(off)
                terms.append((max(-limit, min(limit, m)),
                              max(-limit, min(limit, m + 1)), off - m))
        plan.append(terms)
    return plan


def _backward_induction(model: RectangularModel, phi: TestFunction, side: str,
                        target_points: int, record_policy: bool,
                        controls: Optional[np.ndarray] = None):
    """Root value, grid, spacing and (optionally) the int8 policy table.

    The value vector lives in the middle of one buffer whose margins repeat
    its end values, so the clamped shift by m cells is a fixed view of that
    buffer.  Each step refreshes the margins and fills preallocated rows
    with `out=` ufuncs: per control, 0.0 + sum over atoms of
    p * ((1 - w) * A + w * B), or p * A for an exact shift.
    """
    if controls is None:
        controls = model.controls()
    x, h, offsets, _ = _dp_grid(model, target_points, controls)
    probs = np.asarray(model.innovation.probs, dtype=float)
    n = model.n
    points = len(x)
    plan = _shift_plan(offsets, points)
    pad = max(abs(m) for terms in plan for t in terms for m in t[:2]
              if m is not None)
    padded = np.empty(points + 2 * pad)
    values = padded[pad:pad + points]
    values[:] = phi(x)

    def view(m):
        return padded[pad + m:pad + m + points]

    # per control: (p, A, B, 1 - w, w) per atom, B None for an exact shift
    stencil = [[(p, view(m), None, None, None) if w is None
                else (p, view(m), view(m1), 1.0 - w, w)
                for p, (m, m1, w) in zip(probs, terms)] for terms in plan]
    stacked = np.empty((len(controls), points))
    term = np.empty(points)
    upper = np.empty(points)
    take_best = np.max if side == "sup" else np.min
    arg_best = np.argmax if side == "sup" else np.argmin
    policy = np.empty((n, points), dtype=np.int8) if record_policy else None
    for step in range(n - 1, -1, -1):
        padded[:pad] = values[0]
        padded[pad + points:] = values[-1]
        for acc, terms in zip(stacked, stencil):
            acc.fill(0.0)
            for p, lower, higher, w_lower, w in terms:
                if higher is None:
                    np.multiply(lower, p, out=term)
                else:
                    np.multiply(lower, w_lower, out=term)
                    np.multiply(higher, w, out=upper)
                    np.add(term, upper, out=term)
                    np.multiply(term, p, out=term)
                np.add(acc, term, out=acc)
        if record_policy:
            # first occurrence wins, so ties resolve to the lower control
            policy[step] = arg_best(stacked, axis=0)
        take_best(stacked, axis=0, out=values)
    root = float(values[points // 2])
    return root, x, h, policy


def _dp_root(model: RectangularModel, phi: TestFunction, side: str,
             target_points: int, check_points: Optional[int],
             record_policy: bool):
    """Root value and, when record_policy, the AdversaryPolicy (else None)."""
    if side not in ("sup", "inf"):
        raise InvalidParams(f"unknown side {side!r}")
    if phi.growth != "bounded_with_limits":
        raise InvalidParams("the adversarial DP needs a bounded payoff")
    root, x, h, policy = _backward_induction(model, phi, side, target_points,
                                             record_policy)
    if check_points is not None:
        coarse_root, _, _, _ = _backward_induction(model, phi, side,
                                                   check_points,
                                                   record_policy=False)
        if abs(root - coarse_root) > INTERP_TOLERANCE:
            raise GridTooCoarse(
                f"grid refinement changes the DP value by "
                f"{abs(root - coarse_root):.2e} > {INTERP_TOLERANCE}")
    if not record_policy:
        return root, None
    return root, AdversaryPolicy(kind=model.kind, side=side, n=model.n,
                                 x0=float(x[0]), h=h,
                                 control_values=tuple(model.controls()),
                                 controls=policy)


def sup_expectation_dp(model: RectangularModel, phi: TestFunction, side: str,
                       target_points: int = DEFAULT_GRID_POINTS,
                       check_points: Optional[int] = COARSE_GRID_POINTS):
    """Adversarial value of E[phi(statistic)] and the achieving policy.

    The policy table (int8, n x grid points) is recorded only on this path;
    convergence_experiment, which needs only values, skips it.  The
    interpolation error is estimated by re-solving on a coarser grid
    (Richardson comparison); GridTooCoarse is raised above 1e-3.  Pass
    check_points=None to skip the comparison run.
    """
    return _dp_root(model, phi, side, target_points, check_points,
                    record_policy=True)


def terminal_dp_state(model: RectangularModel, phi: TestFunction,
                      target_points: int = DEFAULT_GRID_POINTS) -> DpState:
    """The step-n layer of the induction: the payoff sampled on the grid."""
    x, _, _, _ = _dp_grid(model, target_points)
    grid = Grid1D(float(x[0]), float(x[-1]), len(x))
    return DpState(step=model.n, grid=grid, values=phi(grid.values()))


def lindeberg_condition_value(model: RectangularModel, n: int, eps: float) -> float:
    """(1/n) sum_i sup over controls of E[|X_i|^2 1{|X_i| > sqrt(n eps)}].

    Exact over the innovation support and control grid; identical across
    steps, so the average equals the per-step worst case.
    """
    if not eps > 0:
        raise InvalidParams("eps must be > 0")
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    threshold = math.sqrt(n * eps)
    atoms = np.asarray(model.innovation.values, dtype=float)
    probs = np.asarray(model.innovation.probs, dtype=float)
    worst = 0.0
    for control in model.controls():
        if model.kind == VARIANCE_KIND:
            xs = control * atoms
        else:
            xs = control + model.sigma * atoms
        mass = float(np.dot(probs, np.where(np.abs(xs) > threshold, xs * xs, 0.0)))
        worst = max(worst, mass)
    return worst


def _explicit_limit(model: RectangularModel, phi: TestFunction,
                    side: str) -> float:
    """Limit value from the explicit density when the shape qualifies,
    otherwise from the PDE solver (lower values via duality)."""
    if model.kind == MEAN_KIND:
        shape = phi.shape
        if shape is not None and shape.symmetric and shape.monotone_right:
            params = select_mean_limit_params(model.mean_interval, shape.center,
                                              shape.monotone_right, side)
            return quad_integrate(
                lambda y: phi(y) * chen_epstein_pdf(params, y),
                -math.inf, math.inf, abs_tol=1e-9).value
        return solve_g_expectation(model.mean_interval, phi, side).u0
    meta = phi.s_shape
    if meta is not None and meta.phi1_convexity is not None:
        try:
            params = select_variance_limit_params(
                model.var_interval, meta.center, meta.phi1_convexity, side,
                meta.envelope)
            return quad_integrate(
                lambda y: phi(y) * cez_pdf(params, y),
                -math.inf, math.inf, abs_tol=1e-9).value
        except UnsupportedCombination:
            pass
    if side == "sup":
        return solve_g_heat(model.var_interval, phi).u0
    negated = TestFunction(rule=lambda y: -phi.rule(y), growth=phi.growth,
                           limits=None)
    return -solve_g_heat(model.var_interval, negated).u0


def convergence_experiment(model: RectangularModel, phi: TestFunction,
                           n_schedule, side: str):
    """Finite-n DP values against the nonlinear limit.

    Returns one (n, dp_value, limit_value, gap) row per schedule entry;
    the limit is computed once.
    """
    limit = _explicit_limit(model, phi, side)
    rows = []
    for n in n_schedule:
        work = replace(model, n=int(n))
        value, _ = _dp_root(work, phi, side, DEFAULT_GRID_POINTS,
                            COARSE_GRID_POINTS, record_policy=False)
        rows.append((int(n), value, limit, abs(value - limit)))
    return rows


def policy_simulate(model: RectangularModel, policy: AdversaryPolicy,
                    phi: TestFunction, reps: int, spec: SeedSpec):
    """Monte Carlo value of the recorded adversary policy.

    Returns (estimate, standard error).  A sup-side policy is a feasible
    strategy, so its simulated value cannot exceed the DP value beyond
    noise.
    """
    if reps < 1:
        raise InvalidParams("reps must be >= 1")
    if policy.kind != model.kind or policy.n != model.n:
        raise PolicyMismatch(
            f"policy built for kind={policy.kind!r} n={policy.n} does not "
            f"match model kind={model.kind!r} n={model.n}")
    if policy.controls.shape[0] != policy.n:
        raise PolicyMismatch("policy control table does not cover every step")
    if not np.allclose(policy.control_values, model.controls()):
        raise PolicyMismatch("policy control set differs from the model's")
    gen = generator(spec)
    atoms = np.asarray(model.innovation.values, dtype=float)
    probs = np.asarray(model.innovation.probs, dtype=float)
    cvals = np.asarray(policy.control_values, dtype=float)
    points = policy.controls.shape[1]
    x = np.zeros(reps)
    rtn = math.sqrt(model.n)
    k = model.mean_step_scale() if model.kind == MEAN_KIND else 0.0
    for step in range(model.n):
        idx = np.clip(np.rint((x - policy.x0) / policy.h).astype(int),
                      0, points - 1)
        chosen = cvals[policy.controls[step][idx]]
        eps = gen.choice(atoms, size=reps, p=probs)
        if model.kind == VARIANCE_KIND:
            x = x + chosen * eps / rtn
        else:
            x = x + chosen / model.n + k * eps
    vals = phi(x)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return est, se
