"""Explicit nonlinear normal densities and limit-parameter selection.

Two closed-form limit densities arise in the nonlinear CLTs: one for mean
uncertainty (parameter alpha may take any sign) and one for variance
uncertainty (both scale parameters strictly positive).  The selection rules
map an uncertainty interval plus the test function's shape on the right of
its center to the density parameters of the matching sup/inf limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParams, UnsupportedCombination
from .numerics import (
    Grid1D,
    INV_SQRT_2PI,
    SQRT2,
    erfcx_arr,
    quad_integrate,
    side_extremum,
    std_normal_cdf_arr,
)

MEAN_FAMILY = "chen_epstein"
VARIANCE_FAMILY = "cez"


@dataclass(frozen=True)
class DensityParams:
    alpha: float
    beta: float
    c: float


@dataclass(frozen=True)
class MeanInterval:
    """Interval of attainable conditional means [mu_low, mu_high]."""

    mu_low: float
    mu_high: float

    def __post_init__(self):
        if not (math.isfinite(self.mu_low) and math.isfinite(self.mu_high)):
            raise InvalidParams(
                f"mean interval needs finite bounds, got "
                f"[{self.mu_low}, {self.mu_high}]")
        if not self.mu_low <= self.mu_high:
            raise InvalidParams(
                f"mean interval needs mu_low <= mu_high, got "
                f"[{self.mu_low}, {self.mu_high}]")
        # the Lindeberg masses and the mean model's steps square the bounds
        if not (math.isfinite(self.mu_low * self.mu_low)
                and math.isfinite(self.mu_high * self.mu_high)):
            raise InvalidParams(
                f"mean interval needs finite squared bounds, got "
                f"[{self.mu_low}, {self.mu_high}]")

    @property
    def half_width(self) -> float:
        return 0.5 * (self.mu_high - self.mu_low)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.mu_high + self.mu_low)


@dataclass(frozen=True)
class VarianceInterval:
    """Interval of attainable conditional standard deviations."""

    sigma_low: float
    sigma_high: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_low) and math.isfinite(self.sigma_high)):
            raise InvalidParams(
                f"variance interval needs finite bounds, got "
                f"[{self.sigma_low}, {self.sigma_high}]")
        if not 0 < self.sigma_low <= self.sigma_high:
            raise InvalidParams(
                f"variance interval needs 0 < sigma_low <= sigma_high, got "
                f"[{self.sigma_low}, {self.sigma_high}]")
        # the G-heat coefficients and the Lindeberg masses square the bounds
        if not math.isfinite(self.sigma_high * self.sigma_high):
            raise InvalidParams(
                f"variance interval needs a finite sigma_high^2, got "
                f"sigma_high = {self.sigma_high}")

    @property
    def theta(self) -> float:
        return self.sigma_low / self.sigma_high


def chen_epstein_pdf(p: DensityParams, y):
    """Mean-uncertainty limit density f^{alpha,beta,c}, vectorized in y.

    For alpha = 0 this is exactly the unit-variance normal density centered
    at beta.  The second term is evaluated through the scaled complementary
    error function so that large |y| neither overflows nor loses the
    cancellation between the growing exponential and the shrinking tail.
    """
    y = np.asarray(y, dtype=float)
    alpha, beta, c = p.alpha, p.beta, p.c
    t = np.abs(y - c)
    a = abs(c - beta)
    first = INV_SQRT_2PI * np.exp(
        -0.5 * ((y - beta) ** 2 - 2.0 * alpha * (t - a) + alpha * alpha))
    z = a + t + alpha
    # alpha * exp(2 alpha t) * Phi(-z); for z >= 0 rewrite through erfcx
    safe = z >= 0
    zs = np.where(safe, z, 0.0)
    # an array even for scalar y, so that the z < 0 entries can be replaced
    second = np.asarray(
        0.5 * alpha * erfcx_arr(zs / SQRT2) * np.exp(2.0 * alpha * t - 0.5 * zs * zs))
    if not safe.all():
        # the direct form, evaluated only where it is used
        neg = ~safe
        second[neg] = alpha * np.exp(2.0 * alpha * t[neg]) * std_normal_cdf_arr(-z[neg])
    out = first - second
    return float(out) if out.ndim == 0 else out


def _check_cez_scales(p: DensityParams) -> None:
    if not (p.alpha > 0 and p.beta > 0):
        raise InvalidParams(
            f"cez density needs alpha > 0 and beta > 0, got "
            f"({p.alpha}, {p.beta})")


def cez_pdf(p: DensityParams, y):
    """Variance-uncertainty limit density q^{alpha,beta,c}, vectorized in y.

    The piecewise scale is sigma(y) = alpha on [c, inf) and beta on
    (-inf, c); the sign factor uses sgn(0) = +1 to match the right-closed
    indicator.  Degenerates to the N(0, sigma^2) density when
    alpha = beta = sigma.
    """
    _check_cez_scales(p)
    y = np.asarray(y, dtype=float)
    alpha, beta, c = p.alpha, p.beta, p.c
    right = y >= c
    sig_y = np.where(right, alpha, beta)
    sig_0 = alpha if 0.0 >= c else beta
    sgn = np.where(right, 1.0, -1.0)
    base = c / sig_0
    # u and v enter only squared, and exp(-t*t/2) is already 0.0 past
    # t ~ 38.6: capping |u| and v at 40 keeps the squares finite
    u = np.minimum(np.abs(base + (y - c) / sig_y), 40.0)
    v = np.minimum(abs(base) + np.abs(y - c) / sig_y, 40.0)
    coef = (beta - alpha) / (beta + alpha)
    out = (INV_SQRT_2PI / sig_y) * (np.exp(-0.5 * u * u)
                                    + coef * sgn * np.exp(-0.5 * v * v))
    return float(out) if out.ndim == 0 else out


def select_mean_limit_params(m: MeanInterval, c: float, monotone_on_right: str,
                             side: str) -> DensityParams:
    """Density parameters of the explicit mean-uncertainty limit.

    beta is always the interval midpoint; the sign of alpha encodes which
    of the four (monotonicity, side) limits applies.
    """
    if monotone_on_right not in ("increasing", "decreasing"):
        raise InvalidParams(f"unknown monotonicity {monotone_on_right!r}")
    side_extremum(side)
    half = m.half_width
    positive = (monotone_on_right == "increasing") == (side == "sup")
    return DensityParams(alpha=half if positive else -half,
                         beta=m.midpoint, c=c)


_VARIANCE_CASES = {
    # (convexity_on_right, side, envelope) -> low scale goes first?
    ("concave", "sup", "phibar"): True,
    ("concave", "inf", "phi"): False,
    ("convex", "sup", "phi"): False,
    ("convex", "inf", "phibar"): True,
}


def select_variance_limit_params(v: VarianceInterval, c: float,
                                 convexity_on_right: str, side: str,
                                 envelope: str) -> DensityParams:
    """Density parameters of the explicit variance-uncertainty limit.

    Only the four (convexity, side, envelope) combinations stated by the
    theorem are meaningful; anything else raises UnsupportedCombination.
    """
    if convexity_on_right not in ("concave", "convex"):
        raise InvalidParams(f"unknown convexity {convexity_on_right!r}")
    side_extremum(side)
    if envelope not in ("phi", "phibar"):
        raise InvalidParams(f"unknown envelope {envelope!r}")
    key = (convexity_on_right, side, envelope)
    if key not in _VARIANCE_CASES:
        raise UnsupportedCombination(
            f"no explicit limit for convexity={convexity_on_right}, "
            f"side={side}, envelope={envelope}")
    if _VARIANCE_CASES[key]:
        return DensityParams(alpha=v.sigma_low, beta=v.sigma_high, c=c)
    return DensityParams(alpha=v.sigma_high, beta=v.sigma_low, c=c)


def density_pdf(family: str, p: DensityParams):
    """Bind one of the two density families to its parameters."""
    if family == MEAN_FAMILY:
        return lambda y: chen_epstein_pdf(p, y)
    if family == VARIANCE_FAMILY:
        _check_cez_scales(p)
        return lambda y: cez_pdf(p, y)
    raise InvalidParams(f"unknown density family {family!r}")


def check_curve_scale(family: str, p: DensityParams, grid: Grid1D) -> None:
    """Refuse a chen_epstein curve whose squares leave the float range.

    With S = |alpha| + |beta| + 2|c| + max(|lo|, |hi|), every square and
    product that chen_epstein_pdf forms on the grid is at most 2 S^2 in
    size, and both of its exponents are <= 0; so a finite (2 S)^2 keeps
    the curve finite.
    """
    if family != MEAN_FAMILY:
        return
    s = abs(p.alpha) + abs(p.beta) + 2.0 * abs(p.c) + max(abs(grid.lo), abs(grid.hi))
    if not math.isfinite((2.0 * s) * (2.0 * s)):
        raise InvalidParams(
            f"chen-epstein curve needs a finite (2 S)^2, S = |alpha| + |beta| "
            f"+ 2|c| + max(|lo|, |hi|), got S = {s:.3e}")


def emit_density_curve(p: DensityParams, family: str, grid: Grid1D) -> np.ndarray:
    """Table of (y, density) rows over the grid, one row per grid point."""
    pdf = density_pdf(family, p)
    check_curve_scale(family, p, grid)
    y = grid.values()
    return np.column_stack([y, pdf(y)])


# Past this many widths from its centre a Gaussian piece of either density
# is below e^-200 of its peak: negligible even against a payoff of linear
# growth.
CUT_WIDTHS = 20.0


def _pieces(family: str, p: DensityParams) -> list:
    """(centre, width) of each Gaussian piece of the density.

    chen_epstein: a spike at c about 1/|alpha| wide, and unit-wide pieces
    centred at c -+ |a + alpha|, c -+ |alpha - a| and c -+ a, a = |c - beta|.
    cez: scale alpha right of c and beta left of c, each centred at c and at
    c - sigma * c / sigma_0, where the exponent of exp(-u^2/2) vanishes.
    """
    alpha, beta, c = p.alpha, p.beta, p.c
    if family == MEAN_FAMILY:
        a = abs(c - beta)
        return [(c, 1.0 / max(1.0, abs(alpha)))] + [
            (c + sign * m, 1.0)
            for m in (abs(a + alpha), abs(alpha - a), a) for sign in (-1.0, 1.0)]
    sig_0 = alpha if 0.0 >= c else beta
    return [(centre, sigma) for sigma in (alpha, beta)
            for centre in (c, c - sigma * c / sig_0)]


def density_integral(family: str, p: DensityParams,
                     weight: Optional[Callable] = None,
                     abs_tol: float = 1e-9) -> float:
    """Integral of weight(y) * density(y) over the real line (of the density
    alone without a weight).

    Each Gaussian piece of the density (see _pieces) spans CUT_WIDTHS
    widths either side of its centre; a weight adds a unit-wide piece at c
    for the payoff's own features.  Overlapping spans of one width merge,
    and the line is cut at each centre (c among them) and at the ends of
    each span, so that no panel spans two scales.  Each piece between two cuts is
    integrated with adaptive quadrature at an equal share of abs_tol; past
    the outer cuts the integrand is negligible.
    """
    pdf = density_pdf(family, p)
    pieces = _pieces(family, p)
    if weight is not None:
        pieces.append((p.c, 1.0))

        def integrand(y):
            return weight(y) * pdf(y)
    else:
        integrand = pdf
    cuts = {m for m, _ in pieces}
    spans = sorted((w, m - CUT_WIDTHS * w, m + CUT_WIDTHS * w) for m, w in pieces)
    width, lo, hi = spans[0]
    for w, a, b in spans[1:]:
        if w == width and a <= hi:
            hi = max(hi, b)
        else:
            cuts.update((lo, hi))
            width, lo, hi = w, a, b
    cuts.update((lo, hi))
    cuts = sorted(cuts)
    share = abs_tol / (len(cuts) - 1)
    return math.fsum(quad_integrate(integrand, lo, hi, abs_tol=share).value
                     for lo, hi in zip(cuts, cuts[1:]))


def density_normalization(family: str, p: DensityParams,
                          abs_tol: float = 1e-9) -> float:
    """Integral of the density over the real line (see density_integral)."""
    return density_integral(family, p, abs_tol=abs_tol)


def count_local_maxima(curve: np.ndarray) -> int:
    """Strict interior local maxima of a sampled (y, density) curve."""
    d = np.diff(curve[:, 1])
    rising = d > 0
    falling = d < 0
    return int(np.sum(rising[:-1] & falling[1:]))
