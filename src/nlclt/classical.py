"""Classical CLT chain: exact binomial limits, Laplace's explicit
approximation, and the Lyapunov / Lindeberg / Feller condition statistics.

All moment computations for discrete laws enumerate the support exactly;
nothing on the condition side is sampled.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, require_at_least
from .numerics import (Categorical, SeedSpec, generator, ks_one_sample,
                       std_normal_cdf, std_normal_cdf_arr)

# fewest replications simulate_clt_distance accepts
CLT_MIN_REPS = 100


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite-support law given by atom values and probabilities.

    The one owner of a finite law's rules: 1-d values and probabilities of
    matching, non-zero length, every entry finite, probabilities
    non-negative and summing (math.fsum) to 1 within 1e-12.  Both are kept
    as tuples of floats.
    """

    values: tuple
    probs: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.ndim != 1 or p.ndim != 1 or len(v) != len(p) or len(v) == 0:
            raise InvalidParams("law needs matching non-empty values/probs")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise InvalidParams("law values and probabilities must be finite")
        if np.any(p < 0):
            raise InvalidParams("probabilities must be non-negative")
        if abs(math.fsum(p.tolist()) - 1.0) > 1e-12:
            raise InvalidParams("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "values", tuple(v.tolist()))
        object.__setattr__(self, "probs", tuple(p.tolist()))

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteLaw":
        if not 0.0 < p < 1.0:
            raise InvalidParams("bernoulli needs p in (0,1)")
        return cls(values=(0.0, 1.0), probs=(1.0 - p, p))

    @classmethod
    def rademacher(cls) -> "DiscreteLaw":
        return cls(values=(-1.0, 1.0), probs=(0.5, 0.5))

    def _arrays(self):
        return (np.asarray(self.values, dtype=float),
                np.asarray(self.probs, dtype=float))

    def mean(self) -> float:
        v, p = self._arrays()
        return float(np.dot(p, v))

    def variance(self) -> float:
        v, p = self._arrays()
        mu = self.mean()
        return float(np.dot(p, (v - mu) ** 2))

    def abs_central_moment(self, order: float) -> float:
        v, p = self._arrays()
        mu = self.mean()
        return float(np.dot(p, np.abs(v - mu) ** order))

    def truncated_central_second(self, threshold: float) -> float:
        """E[(X - mu)^2 1{|X - mu| > threshold}], exact over the support."""
        v, p = self._arrays()
        d = v - self.mean()
        keep = np.abs(d) > threshold
        return float(np.dot(p[keep], d[keep] ** 2))

    def second_moment(self) -> float:
        """E[X^2], compensated over the atoms."""
        return math.fsum(p * v * v for v, p in zip(self.values, self.probs))

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """size iid draws, draw for draw ``gen.choice(values, size, p=probs)``."""
        return np.asarray(self.values)[Categorical(self.probs, size).draw(gen)]

    def sample_sums(self, n: int, reps: int, gen: np.random.Generator) -> np.ndarray:
        """reps independent copies of S_n via multinomial atom counts."""
        v, p = self._arrays()
        counts = gen.multinomial(n, p, size=reps)
        return counts @ v


@dataclass(frozen=True)
class IidModel:
    """Iid sequence drawn from a finite-support law, with a declared
    2+delta moment order for the Lyapunov statistic."""

    law: DiscreteLaw
    delta: float = 1.0

    def __post_init__(self):
        if not self.delta > 0:
            raise InvalidParams("delta must be > 0")


@dataclass(frozen=True)
class LaplaceParams:
    """Inputs of the explicit normal approximation to the binomial."""

    n: int
    p: float
    z: float
    a: float
    x: float = field(init=False)
    x_prime: float = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be a positive integer")
        if not 0.0 < self.p < 1.0:
            raise InvalidParams("p must lie in (0,1)")
        if not abs(self.z) < 1:
            raise InvalidParams("|z| must be < 1")
        if self.a < 0:
            raise InvalidParams("a must be non-negative")
        object.__setattr__(self, "x", self.n * self.p + self.z)
        object.__setattr__(self, "x_prime", self.n * (1.0 - self.p) - self.z)
        if not (self.x > 0 and self.x_prime > 0):
            raise InvalidParams("need x = np + z > 0 and x' = n(1-p) - z > 0")


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in x.tolist()])


def _binomial_log_pmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    return (math.lgamma(n + 1)
            - _lgamma(k + 1.0)
            - _lgamma(n - k + 1.0)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def _binomial_window_prob(n: int, p: float, k_lo: int, k_hi: int) -> float:
    """P(k_lo <= S_n <= k_hi), log-space pmf with compensated summation."""
    k_lo = max(k_lo, 0)
    k_hi = min(k_hi, n)
    if k_lo > k_hi:
        return 0.0
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    return float(math.fsum(np.exp(_binomial_log_pmf(n, p, k))))


def binomial_standardized_prob(n: int, p: float, a: float, b: float) -> float:
    """Exact P(a < (S_n - np)/sqrt(np(1-p)) <= b) by binomial summation."""
    if not 0.0 < p < 1.0:
        raise InvalidParams("p must lie in (0,1)")
    if not a < b:
        raise InvalidParams("need a < b")
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    s = math.sqrt(n * p * (1.0 - p))
    k_lo = math.floor(n * p + a * s) + 1   # strict left inequality
    k_hi = math.floor(n * p + b * s)
    return _binomial_window_prob(n, p, k_lo, k_hi)


def laplace_approx(lp: LaplaceParams) -> float:
    """The explicit normal-plus-correction approximation to
    P(|S_n - np - z| <= a); the Phi(0) term is kept literally."""
    xx = lp.x * lp.x_prime
    rn = math.sqrt(lp.n)
    main = 2.0 * (std_normal_cdf(lp.a * rn / math.sqrt(xx)) - std_normal_cdf(0.0))
    corr = rn / math.sqrt(2.0 * math.pi * xx) * math.exp(-lp.a * lp.a * lp.n / (2.0 * xx))
    return main + corr


def laplace_exact(lp: LaplaceParams) -> float:
    """Exact P(|S_n - np - z| <= a) by binomial summation."""
    center = lp.n * lp.p + lp.z
    k_lo = math.ceil(center - lp.a)
    k_hi = math.floor(center + lp.a)
    return _binomial_window_prob(lp.n, lp.p, k_lo, k_hi)


def lyapunov_statistic(model: IidModel, n: int) -> float:
    """Lyapunov ratio for n iid copies: E|X-mu|^{2+d} / (sigma^{2+d} n^{d/2}).

    Evaluated as written while the moment, the denominator and the ratio
    are normal floats; otherwise (a large d or n, a tiny variance) summed
    over the atoms in logs by _lyapunov_in_logs.
    """
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    sigma2 = model.law.variance()
    if sigma2 == 0:
        raise InvalidParams("law has zero variance")
    d = model.delta
    tiny = sys.float_info.min
    try:
        with np.errstate(over="raise", under="raise"):
            m = model.law.abs_central_moment(2.0 + d)
        scale = sigma2 ** (1.0 + d / 2.0) * n ** (d / 2.0)
    except (FloatingPointError, OverflowError):
        m = scale = 0.0
    if m >= tiny and tiny <= scale < math.inf and tiny <= m / scale < math.inf:
        return m / scale
    return _lyapunov_in_logs(model.law, sigma2, d, n)


def _lyapunov_in_logs(law: DiscreteLaw, sigma2: float, d: float, n: int) -> float:
    """The Lyapunov ratio as the sum over atoms of
    exp(log p + 2 log z + d (log z - log(n) / 2)), z = |x - mu| / sigma, so
    that no factor over- or underflows on its own: 0.0 where the ratio
    underflows, InvalidParams where it exceeds the largest float."""
    mu = law.mean()
    half_log_n = 0.5 * math.log(n)
    exponents = []
    for x, p in zip(law.values, law.probs):
        if p > 0 and x != mu:
            log_z = math.log(abs(x - mu)) - 0.5 * math.log(sigma2)
            exponents.append(math.log(p) + 2.0 * log_z + d * (log_z - half_log_n))
    log_ratio = float(np.logaddexp.reduce(exponents))
    try:
        if log_ratio < math.inf:
            return math.exp(log_ratio)
    except OverflowError:
        pass
    raise InvalidParams(f"the Lyapunov ratio at n = {n}, delta = {d:g} "
                        f"exceeds the largest float")


def lindeberg_statistic(model: IidModel, n: int, eps: float) -> float:
    """Truncated-second-moment ratio at threshold eps * sqrt(B_n), exact."""
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    if not eps > 0:
        raise InvalidParams("eps must be > 0")
    sigma2 = model.law.variance()
    if sigma2 == 0:
        return 0.0
    threshold = eps * math.sqrt(n * sigma2)
    return model.law.truncated_central_second(threshold) / sigma2


def feller_ratio(variances) -> float:
    """max_i sigma_i^2 / sum_i sigma_i^2 over a non-empty list."""
    v = np.asarray(variances, dtype=float)
    if v.size == 0:
        raise InvalidParams("need at least one variance")
    if np.any(v <= 0):
        raise InvalidParams("variances must be positive")
    return float(v.max() / v.sum())


def simulate_clt_distance(model: IidModel, n: int, reps: int,
                          spec: SeedSpec) -> float:
    """KS distance of the standardized empirical law of S_n to Phi."""
    require_at_least("reps", reps, CLT_MIN_REPS)
    if n < 1:
        raise InvalidParams("n must be a positive integer")
    gen = generator(spec)
    sums = model.law.sample_sums(n, reps, gen)
    mu = model.law.mean()
    sigma = math.sqrt(model.law.variance())
    standardized = (sums - n * mu) / (sigma * math.sqrt(n))
    return ks_one_sample(standardized, std_normal_cdf_arr)
