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
from .numerics import Categorical, SeedSpec, generator, quad_integrate
from .sublinear import (TestFunction, _lattice_grid, _lattice_induction,
                        default_halfwidth, solve_g_expectation, solve_g_heat)

MEAN_KIND = "mean_uncertain"
VARIANCE_KIND = "variance_uncertain"
MEAN_CONTROL_POINTS = 5
DEFAULT_GRID_POINTS = 4001
COARSE_GRID_POINTS = 2001
INTERP_TOLERANCE = 1e-3


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
        return default_halfwidth(self.var_interval if self.kind == VARIANCE_KIND
                                 else self.mean_interval)

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
class AdversaryPolicy:
    """Recorded argmax/argmin control index per (step, grid point)."""

    kind: str
    side: str
    n: int
    x0: float
    h: float
    control_values: tuple
    controls: np.ndarray  # int8, shape (n, points)


def _dp_grid(model: RectangularModel, target_points: int,
             controls: Optional[np.ndarray] = None):
    """Statistic grid and cell offsets, from sublinear._lattice_grid.

    Returns (x, h, offsets[controls, atoms], drift[controls]): a step moves
    by a control's drift (mu/n, or 0 for a scale) plus its innovation move
    (k*eps or sigma*eps/sqrt(n)), and offsets are the two summed, in cells.
    The grid snaps the innovation moves to whole cells where it can; the
    mean model's small mu/n drift is then read off each step's innovation
    expectation by interpolation, which stops the fixed-weight
    interpolation bias from accumulating over n steps.
    """
    if controls is None:
        controls = model.controls()
    atoms = np.asarray(model.innovation.values, dtype=float)
    if model.kind == VARIANCE_KIND:
        drift = np.zeros(len(controls))
        moves = np.array([[sig * v / math.sqrt(model.n) for v in atoms]
                          for sig in controls])
    else:
        drift = np.asarray(controls, dtype=float) / model.n
        moves = np.tile(model.mean_step_scale() * atoms, (len(controls), 1))
    return _lattice_grid(drift, moves, model.halfwidth(), target_points)


def _backward_induction(model: RectangularModel, phi: TestFunction, side: str,
                        target_points: int, record_policy: bool,
                        controls: Optional[np.ndarray] = None):
    """Root value, grid, spacing and (optionally) the int8 policy table,
    from the lattice kernel on the model's grid and shifts."""
    x, h, offsets, drift = _dp_grid(model, target_points, controls)
    probs = np.asarray(model.innovation.probs, dtype=float)
    root, policy = _lattice_induction(phi(x), offsets, drift, probs, model.n,
                                      side, record_policy)
    return root, x, h, policy


def check_dp_inputs(phi: TestFunction, side: str) -> None:
    """The adversarial DP's preconditions on its payoff and side."""
    if side not in ("sup", "inf"):
        raise InvalidParams(f"unknown side {side!r}")
    if phi.growth != "bounded_with_limits":
        raise InvalidParams("the adversarial DP needs a bounded payoff")


def _dp_root(model: RectangularModel, phi: TestFunction, side: str,
             target_points: int, check_points: Optional[int],
             record_policy: bool):
    """Root value and, when record_policy, the AdversaryPolicy (else None)."""
    check_dp_inputs(phi, side)
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


def lindeberg_condition_value(model: RectangularModel, eps: float) -> float:
    """(1/n) sum_i sup over controls of E[|X_i|^2 1{|X_i| > sqrt(n eps)}]
    at n = model.n.

    Exact over the innovation support and control grid; identical across
    steps, so the average equals the per-step worst case.
    """
    if not eps > 0:
        raise InvalidParams("eps must be > 0")
    threshold = math.sqrt(model.n * eps)
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
    innovations = Categorical(model.innovation.probs, reps)
    atoms = np.asarray(model.innovation.values, dtype=float)
    cvals = np.asarray(policy.control_values, dtype=float)
    mean_model = model.kind == MEAN_KIND
    if mean_model:
        # x + chosen/n + k*eps adds two looked-up terms: chosen/n per
        # control and k*eps per atom, each rounded as in the sum
        cvals = cvals / model.n
        atoms = model.mean_step_scale() * atoms
    rtn = math.sqrt(model.n)
    # every step writes into these buffers
    x = np.zeros(reps)
    eps = np.empty(reps)
    chosen = np.empty(reps)
    scratch = np.empty(reps)
    cell = np.empty(reps, dtype=int)
    row = np.empty(policy.controls.shape[1])
    for step in range(model.n):
        # cell = rint((x - x0)/h) cast to int; mode="clip" in the take
        # clamps it to the grid as np.clip did
        np.subtract(x, policy.x0, out=scratch)
        np.divide(scratch, policy.h, out=scratch)
        np.rint(scratch, out=scratch)
        np.copyto(cell, scratch, casting="unsafe")
        np.take(cvals, policy.controls[step], out=row)
        np.take(row, cell, out=chosen, mode="clip")
        np.take(atoms, innovations.draw(gen), out=eps)
        if mean_model:  # (x + chosen/n) + k*eps
            np.add(x, chosen, out=x)
            np.add(x, eps, out=x)
        else:  # x + (chosen*eps)/rtn
            np.multiply(chosen, eps, out=scratch)
            np.divide(scratch, rtn, out=scratch)
            np.add(x, scratch, out=x)
    vals = phi(x)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return est, se
