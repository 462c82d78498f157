"""Shared numerical primitives.

Standard-normal functions, deterministic counter-based random streams,
adaptive Gauss-Kronrod quadrature and 1-D grids.  Everything here is pure
and safe to call from any number of workers.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParams, NonConvergence

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [lo, hi] with at least two points."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParams("grid endpoints must be finite")
        if not self.lo < self.hi:
            raise InvalidParams(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise InvalidParams(f"grid needs >= 2 points, got {self.points}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an absolute error estimate."""

    value: float
    err_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SeedSpec:
    """Key of a counter-based random stream.

    Distinct (seed, stream) pairs index statistically independent Philox
    streams; identical pairs reproduce identical sequences byte for byte.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise InvalidParams("seed must be an unsigned 64-bit integer")
        if self.stream < 0:
            raise InvalidParams("stream must be non-negative")


def generator(spec: SeedSpec) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=[spec.seed, spec.stream]))


def rademacher_stream(spec: SeedSpec, n: int) -> np.ndarray:
    """Deterministic sequence of n independent +-1 signs."""
    if n < 0:
        raise InvalidParams("n must be >= 0")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return generator(spec).integers(0, 2, size=n) * 2 - 1


# ---------------------------------------------------------------------------
# standard normal functions
# ---------------------------------------------------------------------------

def std_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function, abs error <= 1e-14.

    Total on the extended reals: +-inf map to 1 and 0.
    """
    if math.isnan(x):
        raise InvalidParams("std_normal_cdf requires a non-NaN argument")
    return 0.5 * math.erfc(-x / SQRT2)


def std_normal_pdf(x):
    """Standard normal density, vectorized over numpy arrays."""
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x).

    Direct product below the exp overflow knee, asymptotic series above;
    the series truncation error is below 1e-16 for x >= 26.
    """
    if x < 26.0:
        return math.exp(x * x) * math.erfc(x)
    # erfcx(x) ~ 1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2x^2)^k
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 1.0
    total = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * inv2x2
        total += term
        if abs(term) < 1e-18:
            break
    return total / (x * math.sqrt(math.pi))


_phi_vec = np.vectorize(std_normal_cdf, otypes=[float])
_erfcx_vec = np.vectorize(erfcx, otypes=[float])


def std_normal_cdf_arr(x) -> np.ndarray:
    """Elementwise Phi over an array."""
    return _phi_vec(np.asarray(x, dtype=float))


def erfcx_arr(x) -> np.ndarray:
    return _erfcx_vec(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    -0.9914553711208126392068547, -0.9491079123427585245261897,
    -0.8648644233597690727897128, -0.7415311855993944398638648,
    -0.5860872354676911302941448, -0.4058451513773971669066064,
    -0.2077849550078984676006894, 0.0,
    0.2077849550078984676006894, 0.4058451513773971669066064,
    0.5860872354676911302941448, 0.7415311855993944398638648,
    0.8648644233597690727897128, 0.9491079123427585245261897,
    0.9914553711208126392068547,
])
_WGK = np.array([
    0.0229353220105292249637320, 0.0630920926299785532907007,
    0.1047900103222501838398763, 0.1406532597155259187451896,
    0.1690047266392679028265834, 0.1903505780647854099132564,
    0.2044329400752988924141620, 0.2094821410847278280129992,
    0.2044329400752988924141620, 0.1903505780647854099132564,
    0.1690047266392679028265834, 0.1406532597155259187451896,
    0.1047900103222501838398763, 0.0630920926299785532907007,
    0.0229353220105292249637320,
])
_WG = np.array([
    0.1294849661688696932706114, 0.2797053914892766679014678,
    0.3818300505051189449503698, 0.4179591836734693877551020,
    0.3818300505051189449503698, 0.2797053914892766679014678,
    0.1294849661688696932706114,
])


def _eval_nodes(f: Callable, xs: np.ndarray) -> np.ndarray:
    ys = f(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != xs.shape:
        ys = np.array([float(f(float(x))) for x in xs])
    return ys


def _gk15(f: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = _eval_nodes(f, mid + half * _XGK)
    k15 = half * float(np.dot(_WGK, ys))
    g7 = half * float(np.dot(_WG, ys[1::2]))
    return k15, abs(k15 - g7)


def _truncation_point(f: Callable, start: float, direction: float, cutoff: float,
                      envelope: Callable | None) -> float:
    """Walk outward until the integrand (or its declared envelope) is negligible.

    All integrands in scope are Gaussian-dominated, so probing a few points
    per candidate radius is a sound tail bound.
    """
    probe = envelope if envelope is not None else f
    t = max(8.0, abs(start) + 8.0)
    while t < 1e8:
        pts = start + direction * t * np.array([0.75, 0.9, 1.0])
        vals = np.abs(_eval_nodes(probe, pts))
        if np.all(vals < cutoff):
            return start + direction * t
        t *= 1.5
    return start + direction * t


def quad_integrate(f: Callable, lo: float, hi: float, abs_tol: float = 1e-10,
                   max_evals: int = 2_000_000,
                   envelope: Callable | None = None) -> QuadResult:
    """Adaptive bisection with a 15-point Kronrod rule per panel.

    Infinite endpoints are truncated where the integrand's envelope falls
    below abs_tol/100.  Raises NonConvergence (carrying the best estimate)
    if the evaluation budget runs out before the tolerance is met.
    """
    if not abs_tol > 0:
        raise InvalidParams("abs_tol must be > 0")
    if not lo < hi:
        raise InvalidParams(f"integration needs lo < hi, got [{lo}, {hi}]")
    cutoff = abs_tol / 100.0
    if math.isinf(lo) and math.isinf(hi):
        lo = _truncation_point(f, 0.0, -1.0, cutoff, envelope)
        hi = _truncation_point(f, 0.0, +1.0, cutoff, envelope)
    elif math.isinf(lo):
        lo = _truncation_point(f, hi, -1.0, cutoff, envelope)
    elif math.isinf(hi):
        hi = _truncation_point(f, lo, +1.0, cutoff, envelope)

    evals = 0
    value, err = _gk15(f, lo, hi)
    evals += 15
    # heap of (-panel_error, a, b, value, error); split the worst panel first
    heap = [(-err, lo, hi, value, err)]
    total_val = value
    total_err = err
    while total_err > abs_tol and evals + 30 <= max_evals:
        neg, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1))
        heapq.heappush(heap, (-e2, m, b, v2, e2))
    # re-accumulate to shed the incremental-update rounding
    total_val = math.fsum(item[3] for item in heap)
    total_err = math.fsum(item[4] for item in heap)
    if total_err > abs_tol:
        raise NonConvergence(
            f"quadrature budget of {max_evals} evaluations exhausted "
            f"(err {total_err:.3e} > tol {abs_tol:.3e})",
            estimate=total_val, err_estimate=total_err, evaluations=evals)
    return QuadResult(value=total_val, err_estimate=total_err, evaluations=evals)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics
# ---------------------------------------------------------------------------

def ks_one_sample(sample: Sequence[float], cdf: Callable) -> float:
    """One-sample KS distance of an empirical sample to an exact CDF."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    if n == 0:
        raise InvalidParams("KS statistic needs a non-empty sample")
    fvals = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - fvals, fvals - (i - 1) / n)))

