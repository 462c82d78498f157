"""Martingale-difference arrays and the Levy / Brown / McLeish / Hall
condition diagnostics, including sampling from the conditional-Gaussian
mixture limit.

Every built-in model has symmetric +-sigma one-step conditional laws, so
its conditional mean is 0 by construction and truncated first moments
vanish identically.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classical import DiscreteLaw
from .errors import InvalidParams, NlcltError, require_at_least
from .numerics import SeedSpec, generator, ks_one_sample, std_normal_cdf_arr

IID_RADEMACHER = "iid_rademacher"
HALL_MIXTURE = "hall_mixture"
VAR_FEEDBACK = "var_feedback"
# fewest replications (and Hall row length) each Monte Carlo check accepts
BROWN_MIN_REPS = 100
MCLEISH_MIN_REPS = 1000
HALL_MIN_REPS = 1000
HALL_MIN_STEPS = 100


@dataclass(frozen=True)
class MdsModel:
    """Simulation model of a martingale difference sequence X_i = sigma_i * eps_i.

    kind selects how the conditional scale sigma_i evolves:
      - iid_rademacher: sigma_i = 1
      - hall_mixture:   sigma_i = eta, drawn once per path from the law eta
      - var_feedback:   sigma_i determined by the sign of the previous
                        increment (two-state Markov feedback)
    """

    kind: str
    n: int
    eta: Optional[DiscreteLaw] = None
    sigma_plus: float = 1.0
    sigma_minus: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be a positive integer")
        if self.kind not in (IID_RADEMACHER, HALL_MIXTURE, VAR_FEEDBACK):
            raise InvalidParams(f"unknown model kind {self.kind!r}")
        if self.kind == HALL_MIXTURE:
            if not isinstance(self.eta, DiscreteLaw):
                raise InvalidParams("hall mixture needs a DiscreteLaw of eta")
            if min(self.eta.values) <= 0:
                raise InvalidParams("eta values must be positive")
        if self.kind == VAR_FEEDBACK and not (self.sigma_plus > 0 and self.sigma_minus > 0):
            raise InvalidParams("feedback scales must be positive")
        # exact_s2 and the simulated b_n^2 sum n squared scales
        etas = self.eta.values if self.eta is not None else ()
        scales = etas + (self.sigma_plus, self.sigma_minus)
        if not all(math.isfinite(self.n * float(s) * float(s)) for s in scales):
            raise InvalidParams(f"n times a squared scale must be finite, got "
                                f"scales {scales} at n = {self.n}")
        # levy_condition_terms divides by a path's b_n^2: a hall path keeps
        # one eta, and a feedback path may keep its first scale, sigma_plus
        for s in {HALL_MIXTURE: etas, VAR_FEEDBACK: (self.sigma_plus,)}.get(self.kind, ()):
            if float(s) * float(s) == 0.0:
                raise InvalidParams(f"scale {s!r} squares to 0, so a path's b_n^2 can be 0")

    @classmethod
    def iid_rademacher(cls, n: int) -> "MdsModel":
        return cls(kind=IID_RADEMACHER, n=n)

    @classmethod
    def hall_mixture(cls, eta_values, eta_probs, n: int) -> "MdsModel":
        return cls(kind=HALL_MIXTURE, n=n, eta=DiscreteLaw(eta_values, eta_probs))

    @classmethod
    def var_feedback(cls, sigma_plus: float, sigma_minus: float, n: int) -> "MdsModel":
        return cls(kind=VAR_FEEDBACK, n=n, sigma_plus=sigma_plus,
                   sigma_minus=sigma_minus)

    def simulate_scales(self, reps: int, gen: np.random.Generator):
        """(sigmas, signs): conditional scales and innovation signs,
        each of shape (reps, n).  Increments are sigmas * signs."""
        signs = gen.integers(0, 2, size=(reps, self.n)) * 2 - 1
        if self.kind == IID_RADEMACHER:
            sig = np.ones((reps, self.n))
        elif self.kind == HALL_MIXTURE:
            eta = self.eta.draw(gen, reps)
            sig = np.repeat(eta[:, None], self.n, axis=1)
        else:
            sig = np.empty((reps, self.n))
            sig[:, 0] = self.sigma_plus  # initial state treated as positive
            if self.n > 1:
                sig[:, 1:] = np.where(signs[:, :-1] > 0, self.sigma_plus,
                                      self.sigma_minus)
        return sig, signs

    def exact_s2(self) -> float:
        """s_n^2 = E[S_n^2], exact from the model structure."""
        n = self.n
        if self.kind == IID_RADEMACHER:
            return float(n)
        if self.kind == HALL_MIXTURE:
            return n * self.eta.second_moment()
        mean2 = 0.5 * (self.sigma_plus ** 2 + self.sigma_minus ** 2)
        return self.sigma_plus ** 2 + (n - 1) * mean2


def levy_condition_terms(model: MdsModel, spec: SeedSpec, eps: float = 0.1):
    """The four conditional-expectation sums along one simulated path of
    model.n steps.

    Returns (tail probability sum, truncated first-moment sum / b_n,
    truncated second-moment sum / b_n^2, squared truncated first-moment
    sum / b_n^2), each computed exactly from the +-sigma_i conditional
    atoms at threshold eps * b_n.
    """
    if not eps > 0:
        raise InvalidParams("eps must be > 0")
    sig, _ = model.simulate_scales(1, generator(spec))
    sig = sig[0]
    b2 = float(np.sum(sig ** 2))
    b = math.sqrt(b2)
    threshold = eps * b
    exceeds = sig > threshold
    tail_sum = float(np.sum(exceeds))
    # conditional atoms are +-sigma_i with probability 1/2 each
    trunc_first = np.where(exceeds, 0.5 * sig + 0.5 * (-sig), 0.0)
    first_sum = float(np.sum(trunc_first)) / b
    second_sum = float(np.sum(np.where(exceeds, sig ** 2, 0.0))) / b2
    first_sq_sum = float(np.sum(trunc_first ** 2)) / b2
    return tail_sum, first_sum, second_sum, first_sq_sum


def brown_ratios(model: MdsModel, reps: int, spec: SeedSpec):
    """Monte Carlo means of (b_n^2 / s_n^2, max_i sigma_i^2 / s_n^2) at
    n = model.n."""
    require_at_least("reps", reps, BROWN_MIN_REPS)
    sig, _ = model.simulate_scales(reps, generator(spec))
    s2 = model.exact_s2()
    sig2 = sig ** 2
    b2 = sig2.sum(axis=1)
    mx = sig2.max(axis=1)
    return float(np.mean(b2 / s2)), float(np.mean(mx / s2))


def mcleish_product_mean(model: MdsModel, t: float, reps: int, spec: SeedSpec):
    """Monte Carlo estimate of E[prod_i (1 + i t X_{n,i})] for the array
    with k_n = model.n columns scaled by 1/sqrt(k_n).

    Returns (complex estimate, scalar standard error), or raises
    NlcltError when either is not finite.  At t = 0 the product is
    identically 1 with zero variance.
    """
    require_at_least("reps", reps, MCLEISH_MIN_REPS)
    if not math.isfinite(t):
        raise InvalidParams("t must be finite")
    if t == 0.0:
        return 1.0 + 0.0j, 0.0
    k_n = model.n
    sig, signs = model.simulate_scales(reps, generator(spec))
    x = sig * signs / math.sqrt(k_n)
    # a product past the float range is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.prod(1.0 + 1j * t * x, axis=1)
        est = complex(prod.mean())
        se = math.sqrt((prod.real.var(ddof=1) + prod.imag.var(ddof=1)) / reps)
    if not (cmath.isfinite(est) and math.isfinite(se)):
        raise NlcltError(
            f"the McLeish product at n = {k_n}, t = {t:g} leaves the float "
            f"range: its mean is {est} with standard error {se}")
    return est, se


def mcleish_exact_by_enumeration(model: MdsModel, t: float) -> complex:
    """Brute-force E[T_n] over the full outcome tree (small k_n only)."""
    k_n = model.n
    if k_n > 16:
        raise InvalidParams("enumeration oracle limited to k_n <= 16")
    sign_patterns = np.array(
        [[1 if (m >> i) & 1 else -1 for i in range(k_n)]
         for m in range(2 ** k_n)], dtype=float)
    scale = 1.0 / math.sqrt(k_n)

    def tree_mean(sigma_rows, probs):
        total = 0.0 + 0.0j
        for sig_row, p_sig in zip(sigma_rows, probs):
            prods = np.prod(1.0 + 1j * t * sig_row * sign_patterns * scale, axis=1)
            total += p_sig * prods.mean()
        return total

    if model.kind == IID_RADEMACHER:
        return tree_mean([np.ones(k_n)], [1.0])
    if model.kind == HALL_MIXTURE:
        rows = [np.full(k_n, eta) for eta in model.eta.values]
        return tree_mean(rows, model.eta.probs)
    raise InvalidParams("enumeration oracle supports iid and hall kinds")


@dataclass(frozen=True)
class MixtureLimit:
    """Finite law of the mixing factor T in the conditional-Gaussian limit."""

    law: DiscreteLaw

    def __post_init__(self):
        if min(self.law.values) < 0:
            raise InvalidParams("mixing values must be non-negative")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t, p in zip(self.law.values, self.law.probs):
            if t > 0:
                out = out + p * std_normal_cdf_arr(x / t)
            else:
                out = out + p * (x >= 0)
        return out

    def second_moment(self) -> float:
        return self.law.second_moment()


def hall_mixture_sampler(limit: MixtureLimit, reps: int,
                         spec: SeedSpec) -> np.ndarray:
    """reps independent draws of T' * N(0,1) with T' distributed as limit."""
    if reps < 0:
        raise InvalidParams("reps must be >= 0")
    if reps == 0:
        return np.empty(0)
    gen = generator(spec)
    t = limit.law.draw(gen, reps)
    z = gen.standard_normal(reps)
    return t * z


def hall_limit(eta_values, eta_probs, k_n: int, reps: int) -> MixtureLimit:
    """The mixture limit of hall_convergence_check, after its checks on
    the row length and the replications."""
    require_at_least("k_n", k_n, HALL_MIN_STEPS)
    require_at_least("reps", reps, HALL_MIN_REPS)
    return MixtureLimit(DiscreteLaw(eta_values, eta_probs))


def hall_convergence_check(eta_values, eta_probs, k_n: int, reps: int,
                           spec: SeedSpec) -> float:
    """KS distance of S_n = eta * sum(xi_i)/sqrt(k_n) to its mixture limit.

    The row sum of squares is eta^2 exactly by construction, so the limit
    CDF is the closed-form mixture sum_j p_j Phi(x / eta_j).
    """
    limit = hall_limit(eta_values, eta_probs, k_n, reps)
    gen = generator(spec)
    eta = limit.law.draw(gen, reps)
    # sum of k_n iid signs through a single binomial draw per row
    heads = gen.binomial(k_n, 0.5, size=reps)
    s = eta * (2.0 * heads - k_n) / math.sqrt(k_n)
    return ks_one_sample(s, limit.cdf)
