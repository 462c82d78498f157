"""Shared numerical primitives.

Standard-normal functions, deterministic counter-based random streams,
adaptive Gauss-Kronrod quadrature and 1-D grids.  Everything here is pure
and safe to call from any number of workers.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
        if not math.isfinite(self.hi - self.lo):
            raise InvalidParams(f"grid needs a finite span hi - lo, "
                                f"got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise InvalidParams(f"grid needs >= 2 points, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


_EXTREMA = {"sup": np.maximum, "inf": np.minimum}
SIDES = tuple(_EXTREMA)


def side_extremum(side: str) -> np.ufunc:
    """The pointwise extremum over the controls that every kernel of the
    upper ("sup") or lower ("inf") expectation takes; InvalidParams for any
    other side."""
    if side in SIDES:
        return _EXTREMA[side]
    raise InvalidParams(f"unknown side {side!r}")


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
        if not (0 <= self.stream < 2**64):
            raise InvalidParams("stream must be an unsigned 64-bit integer")


def generator(spec: SeedSpec) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    The key is built as uint64 words: a Python list would pass seeds of
    2**63 and above through float64, merging neighbouring seeds.
    """
    key = np.array([spec.seed, spec.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def skip_uniforms(gen: np.random.Generator, k: int) -> None:
    """Move a generator() past k doubles of gen.random() without drawing
    them all, leaving the same state (buffer included) as drawing them.

    Philox is counter-based: one counter step makes a block of 4 words,
    and gen.random() takes one word per double.  The skip uses up the
    words left in the current block, advances the counter past whole
    blocks in O(1), and draws the last 1 to 4 words, which refills the
    buffer as drawing would (advance clears it).  So a second process can
    skip to its share of a stream and draw exactly the serial bits; the
    policy replay's two halves do.
    """
    if k == 0:
        return
    bits = gen.bit_generator
    left = 4 - bits.state["buffer_pos"]  # words still in the block
    if k > left:
        gen.random(left)
        blocks = (k - left - 1) // 4
        bits.advance(blocks)
        k -= left + 4 * blocks
    gen.random(k)


class Categorical:
    """Atom indices of a finite law, draw for draw those of ``Generator.choice``.

    ``gen.choice(a, size, p=probs)`` builds ``cdf = probs.cumsum()``,
    divides it by ``cdf[-1]``, draws ``u = gen.random(size)`` and returns
    ``a[cdf.searchsorted(u, side="right")]``.  As ``u < 1 = cdf[-1]``, that
    index is the number of inner edges ``cdf[:-1]`` that u reaches.  This
    class builds the edges once from probabilities that
    ``classical.DiscreteLaw`` has checked, then each ``draw`` fills
    preallocated buffers of ``size``: the same indices from the same
    uniforms, leaving the generator in the same state.
    """

    def __init__(self, probs, size: int):
        cdf = np.asarray(probs, dtype=float).cumsum()
        cdf /= cdf[-1]
        self._edges = cdf[:-1].tolist()
        self._uniforms = np.empty(size)
        self._reached = np.empty(size, dtype=bool)
        self._index = np.empty(size, dtype=np.intp)

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        """Fresh atom indices, in a buffer the next draw overwrites."""
        gen.random(out=self._uniforms)
        self._index.fill(0)
        for edge in self._edges:
            np.greater_equal(self._uniforms, edge, out=self._reached)
            self._index += self._reached
        return self._index


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
    """Scaled complementary error function exp(x^2) * erfc(x) at one point:
    the value of erfcx_arr."""
    return float(erfcx_arr(x))


def std_normal_cdf_arr(x) -> np.ndarray:
    """Elementwise Phi(x) = erfc(-x / sqrt 2) / 2 over an array, abs error
    <= 1e-14.  NaN raises InvalidParams, as in std_normal_cdf."""
    out = _blockwise(_phi_block, np.asarray(x, dtype=float))
    # the kernel maps NaN, and only NaN, to NaN; the values lie in [0, 1]
    if math.isnan(out.sum()):
        raise InvalidParams("std_normal_cdf_arr requires non-NaN arguments")
    return out


def erfcx_arr(x) -> np.ndarray:
    """Elementwise erfcx(x) = exp(x^2) * erfc(x) over an array, relative
    error <= 1e-13.  NaN maps to NaN; below about -26.6 the value overflows
    to inf."""
    return _blockwise(_erfcx_block, np.asarray(x, dtype=float))


# The array kernel: erfc by the rational approximations of fdlibm's s_erf.c
# (FreeBSD msun; glibc's erfc, which math.erfc calls, derives from the same
# code), with its notice:
#
# ====================================================
# Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
#
# Developed at SunPro, a Sun Microsystems, Inc. business.
# Permission to use, copy, modify, and distribute this
# software is freely granted, provided that this notice
# is preserved.
# ====================================================
#
# Coefficients are listed from the constant term up; tests/test_normal_native.py
# checks each against its IEEE hex word.
_ERX = 8.45062911510467529297e-01
# |x| < 0.84375: erfc(x) = 1 - x - x * PP/QQ(x^2)
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
       -2.84817495755985104766e-02, -5.77027029648944159157e-03,
       -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
       5.08130628187576562776e-03, 1.32494738004321644526e-04,
       -3.96022827877536812320e-06)
# 0.84375 <= |x| < 1.25: erfc(x) = 1 - erx - PA/QA(|x| - 1) for x > 0
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
       -3.72207876035701323847e-01, 3.18346619901161753674e-01,
       -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
       7.18286544141962662868e-02, 1.26171219808761642112e-01,
       1.36370839120290507362e-02, 1.19844998467991074170e-02)
# 1.25 <= |x| < 1/0.35: erfc(x) = exp(-x^2 - 0.5625 + RA/SA(1/x^2)) / x for x > 0
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
       -1.05586262253232909814e+01, -6.23753324503260060396e+01,
       -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
       4.34565877475229228821e+02, 6.45387271733267880336e+02,
       4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
# 1/0.35 <= |x| < 28: the same with RB/SB; erfc underflows to 0 above 27.3
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
       -1.77579549177547519889e+01, -1.60636384855821916062e+02,
       -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
       1.53672958608443695994e+03, 3.19985821950859553908e+03,
       2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
# fdlibm splits its ranges on the high 32 bits of x, so its 1/0.35 is the
# double with the low word cleared
_X35 = float.fromhex("0x1.6db6dp+1")

# x >= 28: erfcx(x) = sum_k (-1)^k (2k-1)!! / (2x^2)^k / (x sqrt(pi)); the
# k = 8 term is below 6e-20 of the sum there, so it stops at k = 7.
_SERIES = tuple((-1) ** k * math.prod(range(1, 2 * k, 2)) / 2.0 ** k
                for k in range(8))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _reversed(coeffs, degree):
    """Coefficients of s^degree * c(1/s): R/S(1/x^2) as a ratio of
    polynomials in s = x^2, the same value in the variable of the other
    pieces."""
    return tuple(reversed(coeffs + (0.0,) * (degree + 1 - len(coeffs))))


def _nextup(v: float) -> float:
    return math.nextafter(v, math.inf)


# The pieces P/Q(s) of the kernel, as (P, Q, s = |t| - 1 rather than t^2)
_NEAR_ZERO = (_PP, _QQ, False)
_NEAR_ONE = (_PA, _QA, True)
_TAIL_A = (_reversed(_RA, 8), _reversed(_SA, 8), False)
_TAIL_B = (_reversed(_RB, 7), _reversed(_SB, 7), False)
_SERIES_PIECE = (_reversed(_SERIES, 7), _reversed((1.0,), 7), False)

# erfc(t) over the signed argument: each interval (from its lower edge up)
# has a piece and the constants of fdlibm's last step, reproduced operation
# for operation:
#     erfc(t) = K - (U*w + V),  U = Ua*a + U0,  V = Ua*a + V0,  a = |t|,
# with w = P/Q, or, where a >= 1.25, w = exp(-z^2 - 0.5625) *
# exp((z - a)(z + a) + P/Q) / a for z = a with its low word cleared.
# Negative edges sit one ulp up: fdlibm's ranges are closed below in |t|.
# Above 27.3 the exponential underflows and erfc is 0 (2 below -27.3).
_ERFC_INTERVALS = (
    # lower edge         piece        K            Ua    U0    V0
    (-math.inf,          _TAIL_B,     2.0,         0.0,  1.0,  0.0),
    (_nextup(-_X35),     _TAIL_A,     2.0,         0.0,  1.0,  0.0),
    (_nextup(-1.25),     _NEAR_ONE,   1.0,         0.0, -1.0, -_ERX),
    (_nextup(-0.84375),  _NEAR_ZERO,  1.0,        -1.0,  0.0,  0.0),
    (0.0,                _NEAR_ZERO,  1.0,         1.0,  0.0,  0.0),
    (0.25,               _NEAR_ZERO,  0.5,         1.0,  0.0, -0.5),
    (0.84375,            _NEAR_ONE,   1.0 - _ERX,  0.0,  1.0,  0.0),
    (1.25,               _TAIL_A,     0.0,         0.0, -1.0,  0.0),
    (_X35,               _TAIL_B,     0.0,         0.0, -1.0,  0.0),
)
# erfcx(a) for a = |x|: the same last step gives f, which is erfc(a) below
# 1.25, P/Q - 0.5625 up to 28 and the series sum above; then
#     erfcx(a) = exp(Ea*a^2 + Ef*f) * (Mf*f + M1) / (Da*a + D1),
# i.e. exp(a^2) erfc(a), then exp(P/Q - 0.5625) / a (fdlibm's erfc times
# exp(a^2), exactly, so no exp(a^2) is formed), then f / (a sqrt(pi)).
_ERFCX_INTERVALS = (
    # lower edge  piece          K            Ua   U0    V0    Ea   Ef   Mf              M1   Da   D1
    (0.0,      _NEAR_ZERO,    1.0,         1.0, 0.0,  0.0,  1.0, 0.0, 1.0,            0.0, 0.0, 1.0),
    (0.25,     _NEAR_ZERO,    0.5,         1.0, 0.0, -0.5,  1.0, 0.0, 1.0,            0.0, 0.0, 1.0),
    (0.84375,  _NEAR_ONE,     1.0 - _ERX,  0.0, 1.0,  0.0,  1.0, 0.0, 1.0,            0.0, 0.0, 1.0),
    (1.25,     _TAIL_A,      -0.5625,      0.0, -1.0, 0.0,  0.0, 1.0, 0.0,            1.0, 1.0, 0.0),
    (_X35,     _TAIL_B,      -0.5625,      0.0, -1.0, 0.0,  0.0, 1.0, 0.0,            1.0, 1.0, 0.0),
    (28.0,     _SERIES_PIECE, 0.0,         0.0, -1.0, 0.0,  0.0, 0.0, _INV_SQRT_PI,   0.0, 1.0, 0.0),
)
# rows of the gathered table after the 20 polynomial rows
_UA, _U0, _V0, _K, _EA, _EF, _MF, _M1, _DA, _D1 = range(20, 30)


class _Kernel(NamedTuple):
    edges: np.ndarray   # lower edges as a column, then NaN
    table: np.ndarray   # one column per interval
    near_one: tuple     # the two intervals with s = |t| - 1 (one twice for |x|)


def _kernel(intervals, scale: float = 1.0) -> _Kernel:
    """Rows 4k..4k+3 of the table hold P_2k, Q_2k, P_2k+1, Q_2k+1
    (k = 0..4), for Horner's rule in s^2 on the even and odd parts; then
    Ua, U0, V0, K times scale (a power of two, so the last step yields
    scale * erfc exactly); then any further constants."""
    def coeff(c, k):
        return c[k] if k < len(c) else 0.0
    rows = [[coeff(row[1][j], 2 * k + odd) for row in intervals]
            for k in range(5) for odd in (0, 1) for j in (0, 1)]
    rows += [[scale * row[i] for row in intervals] for i in (3, 4, 5, 2)]
    rows += [[row[i] for row in intervals] for i in range(6, len(intervals[0]))]
    # t >= edge flips once, at the element's interval; NaN, false in every
    # row, falls in none
    edges = np.array([row[0] for row in intervals] + [math.nan])[:, None]
    near_one = [i for i, row in enumerate(intervals) if row[1][2]]
    return _Kernel(edges, np.array(rows), (near_one[0], near_one[-1]))


_PHI = _kernel(_ERFC_INTERVALS, 0.5)
_ERFCX = _kernel(_ERFCX_INTERVALS)
_LOW_WORD = np.uint64(0xFFFFFFFF00000000)
# Constants as 0-d arrays: numpy converts a Python float afresh on every
# call, a large share of a call on the 15-point arrays of a quadrature panel
_ONE, _MINUS_SQRT2, _EXP_SHIFT, _EXP_FROM, _ERFC_CLIP, _SERIES_CLIP = (
    np.array(v) for v in (1.0, -SQRT2, -0.5625, 1.25, 28.0, 2.0 ** 32))

# elements per kernel pass: bounds the kernel's temporaries (about 50 arrays
# of this length, 3 MB) whatever the input size
_BLOCK = 8192


def _blockwise(kernel, x: np.ndarray) -> np.ndarray:
    """kernel over x, one flat block of at most _BLOCK elements at a time."""
    flat = x.reshape(-1)
    if flat.size <= _BLOCK:
        return kernel(flat).reshape(x.shape)
    out = np.empty(flat.size)
    for i in range(0, flat.size, _BLOCK):
        out[i:i + _BLOCK] = kernel(flat[i:i + _BLOCK])
    return out.reshape(x.shape)


def _pieces(kernel: _Kernel, t: np.ndarray, a: np.ndarray):
    """Per-element interval constants and the ratio P/Q(s).

    Returns (c, q): c[i] holds row i of the table for each element's
    interval (a product with a 0/1 indicator matrix, so every entry is
    exact), and q = P/Q.  P and Q are evaluated side by side, as
    E(s^2) + s * O(s^2) with Horner's rule on the even and odd parts.
    Every step is elementwise, so an element's value does not depend on
    its block.
    """
    n = t.size
    ge = np.greater_equal(t, kernel.edges)
    inside = ge[:-1] ^ ge[1:]
    c = kernel.table @ inside.astype(np.float64)
    s = a * a
    i, j = kernel.near_one
    np.subtract(a, _ONE, out=s, where=inside[i] | inside[j])
    s4 = np.concatenate((s, s, s, s))
    u4 = s4 * s4
    coeffs = c[:20].reshape(5, 4 * n)
    acc = coeffs[4]
    for k in range(3, -1, -1):
        acc *= u4
        acc += coeffs[k]
    pq = acc[:2 * n]
    odd = acc[2 * n:]
    odd *= s4[:2 * n]
    pq += odd
    return c, pq[:n] / pq[n:]


def _last_step(a: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """K - (U*w + V) with U = Ua*a + U0, V = Ua*a + V0."""
    u = c[_UA] * a
    v = u + c[_V0]
    u += c[_U0]
    u *= w
    u += v
    return c[_K] - u


def _phi_block(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(t) / 2 for t = -x / sqrt 2 (the halving is in the table)."""
    t = x / _MINUS_SQRT2
    a = np.minimum(np.abs(t), _ERFC_CLIP)
    c, q = _pieces(_PHI, t, a)
    z = (a.view(np.uint64) & _LOW_WORD).view(np.float64)
    head = _EXP_SHIFT - z * z   # exact: z has 21 significant bits
    tail = (z - a) * (z + a)
    tail += q
    head = np.exp(head)
    head *= np.exp(tail)
    np.divide(head, a, out=q, where=a >= _EXP_FROM)
    return _last_step(a, q, c)


def _erfcx_block(x: np.ndarray) -> np.ndarray:
    """erfcx(|x|) by the pieces above; erfcx(x) = 2 exp(x^2) - erfcx(-x)
    for x < 0."""
    a = np.abs(x)
    clipped = np.minimum(a, _SERIES_CLIP)   # the series sums to 1 beyond
    c, q = _pieces(_ERFCX, clipped, clipped)
    f = _last_step(clipped, q, c)
    e = c[_EA] * (clipped * clipped)
    e += c[_EF] * f
    out = np.exp(e)
    f *= c[_MF]
    f += c[_M1]
    out *= f
    d = c[_DA] * a
    d += c[_D1]
    out /= d
    negative = np.signbit(x)   # -0.0 too: 2 exp(0) - erfcx(0) is 1 as well
    if negative.any():
        with np.errstate(over="ignore"):   # exp(x^2) = inf is the value
            reflected = 2.0 * np.exp(x * x)
        np.subtract(reflected, out, out=out, where=negative)
    return out


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


def _gk15(f: Callable, *edges: float) -> list:
    """(value, error) of the 15-point Kronrod rule on each panel between
    consecutive edges, from one call of f on all the panels' nodes (the
    integrands are elementwise, so each node's value is the same as from a
    call per panel)."""
    panels = [(0.5 * (b - a), 0.5 * (a + b)) for a, b in zip(edges, edges[1:])]
    ys = _eval_nodes(f, np.concatenate([mid + half * _XGK for half, mid in panels]))
    rules = []
    for i, (half, _) in enumerate(panels):
        panel = ys[15 * i:15 * (i + 1)]
        k15 = half * float(np.dot(_WGK, panel))
        g7 = half * float(np.dot(_WG, panel[1::2]))
        rules.append((k15, abs(k15 - g7)))
    return rules


def _truncation_point(f: Callable, start: float, direction: float,
                      cutoff: float) -> float:
    """Walk outward until the integrand is negligible.

    All integrands in scope are Gaussian-dominated, so probing a few points
    per candidate radius is a sound tail bound.
    """
    t = max(8.0, abs(start) + 8.0)
    while t < 1e8:
        pts = start + direction * t * np.array([0.75, 0.9, 1.0])
        vals = np.abs(_eval_nodes(f, pts))
        if np.all(vals < cutoff):
            return start + direction * t
        t *= 1.5
    return start + direction * t


def quad_integrate(f: Callable, lo: float, hi: float, abs_tol: float = 1e-10,
                   max_evals: int = 2_000_000) -> QuadResult:
    """Adaptive bisection with a 15-point Kronrod rule per panel.

    Infinite endpoints are truncated where the integrand falls below
    abs_tol/100.  Raises NonConvergence (carrying the best estimate)
    if the evaluation budget runs out before the tolerance is met.
    """
    if not abs_tol > 0:
        raise InvalidParams("abs_tol must be > 0")
    if not lo < hi:
        raise InvalidParams(f"integration needs lo < hi, got [{lo}, {hi}]")
    cutoff = abs_tol / 100.0
    if math.isinf(lo) and math.isinf(hi):
        lo = _truncation_point(f, 0.0, -1.0, cutoff)
        hi = _truncation_point(f, 0.0, +1.0, cutoff)
    elif math.isinf(lo):
        lo = _truncation_point(f, hi, -1.0, cutoff)
    elif math.isinf(hi):
        hi = _truncation_point(f, lo, +1.0, cutoff)

    evals = 0
    (value, err), = _gk15(f, lo, hi)
    evals += 15
    # heap of (-panel_error, a, b, value, error); split the worst panel first
    heap = [(-err, lo, hi, value, err)]
    total_val = value
    total_err = err
    while total_err > abs_tol and evals + 30 <= max_evals:
        neg, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _gk15(f, a, m, b)
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

