import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlclt.densities import (
    DensityParams,
    MeanInterval,
    VarianceInterval,
    cez_pdf,
    chen_epstein_pdf,
    count_local_maxima,
    density_integral,
    density_normalization,
    emit_density_curve,
    select_mean_limit_params,
    select_variance_limit_params,
)
from nlclt.errors import InvalidParams, UnsupportedCombination
from nlclt.numerics import (
    INV_SQRT_2PI,
    SQRT2,
    Grid1D,
    erfcx_arr,
    std_normal_cdf_arr,
    std_normal_pdf,
)

# point values from 40-digit mpmath evaluations of the closed forms,
# frozen before the build
F_M05_00_AT_0 = 0.697796557401306029593532746901
F_P1_00_AT_0 = 0.0833154705876862983830627385676
F_M1_00_AT_0 = 1.08331547058768629838306273857
F_P05_00_AT_0 = 0.197796557401306029593532746901
F_P1_00_AT_12 = 0.237782539735167787420937347004
F_2_1_M1_AT_07 = 0.0283162808641243220040170843985
Q_1_2_0_AT_1 = 0.322627632692191133063773590581
Q_1_2_0_AT_M1 = 0.117355108921433159258226813866
Q_2_1_03_AT_05 = 0.122756713434441102581376540975

# fixed parameter lattices for the reproducible property sweep
MEAN_LATTICE = [(a, b, c)
                for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
                for b in (-1.0, 0.0, 1.0)
                for c in (-1.0, 0.0, 1.0)]
VAR_LATTICE = [(a, b, c)
               for a in (0.5, 1.0, 2.0)
               for b in (0.5, 1.0, 2.0)
               for c in (-1.0, 0.0, 1.0)]


class TestChenEpsteinPdf:
    def test_alpha_zero_is_standard_normal(self):
        p = DensityParams(0.0, 0.0, 0.0)
        assert chen_epstein_pdf(p, 0.0) == pytest.approx(0.3989422804014327, abs=1e-13)

    @pytest.mark.parametrize("y,expected", [
        (0.0, F_M05_00_AT_0),
    ])
    def test_spike_point_value(self, y, expected):
        p = DensityParams(-0.5, 0.0, 0.0)
        assert chen_epstein_pdf(p, y) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("params,y,expected", [
        ((1.0, 0.0, 0.0), 0.0, F_P1_00_AT_0),
        ((-1.0, 0.0, 0.0), 0.0, F_M1_00_AT_0),
        ((0.5, 0.0, 0.0), 0.0, F_P05_00_AT_0),
        ((1.0, 0.0, 0.0), 1.2, F_P1_00_AT_12),
        ((2.0, 1.0, -1.0), 0.7, F_2_1_M1_AT_07),
    ])
    def test_point_values(self, params, y, expected):
        assert chen_epstein_pdf(DensityParams(*params), y) == \
            pytest.approx(expected, abs=1e-12)

    def test_far_tail_is_stable(self):
        # the naive exp(2*alpha*|y-c|) * Phi(...) product overflows out here
        p = DensityParams(2.0, 0.0, 0.0)
        assert chen_epstein_pdf(p, 12.0) == pytest.approx(6.600894833076714e-23, rel=1e-10)
        v40 = chen_epstein_pdf(p, 40.0)
        assert 0.0 <= v40 < 1e-300
        assert chen_epstein_pdf(DensityParams(-2.0, 0.0, 0.0), 12.0) == \
            pytest.approx(1.313797376304941e-43, rel=1e-10)

    def test_degeneracy_supnorm(self):
        # f^{0,beta,c} must coincide with the shifted normal everywhere
        ys = np.linspace(-8.0, 8.0, 3201)
        for beta in (-1.0, 0.0, 1.0):
            for c in (-1.0, 0.0, 1.0):
                f = chen_epstein_pdf(DensityParams(0.0, beta, c), ys)
                gap = np.max(np.abs(f - std_normal_pdf(ys - beta)))
                assert gap <= 1e-12

    @pytest.mark.parametrize("a,b,c", MEAN_LATTICE)
    def test_normalizes_on_lattice(self, a, b, c):
        total = density_normalization("chen_epstein", DensityParams(a, b, c))
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a,b,c", MEAN_LATTICE)
    def test_nonnegative_on_lattice(self, a, b, c):
        ys = np.linspace(c - 10.0, c + 10.0, 2001)
        assert np.all(chen_epstein_pdf(DensityParams(a, b, c), ys) >= -1e-15)

    def test_peak_height_strictly_decreasing_in_alpha(self):
        heights = [chen_epstein_pdf(DensityParams(a, 0.0, 0.0), 0.0)
                   for a in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert all(x > y for x, y in zip(heights, heights[1:]))


class TestCezPdf:
    def test_equal_scales_is_normal(self):
        assert cez_pdf(DensityParams(1.0, 1.0, 0.0), 0.0) == \
            pytest.approx(0.3989422804014327, abs=1e-13)

    @pytest.mark.parametrize("params,y,expected", [
        ((1.0, 2.0, 0.0), 1.0, Q_1_2_0_AT_1),
        ((1.0, 2.0, 0.0), -1.0, Q_1_2_0_AT_M1),
        ((2.0, 1.0, 0.3), 0.5, Q_2_1_03_AT_05),
    ])
    def test_point_values(self, params, y, expected):
        assert cez_pdf(DensityParams(*params), y) == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonpositive_scales(self):
        for bad in [(-1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 0.0)]:
            with pytest.raises(InvalidParams):
                cez_pdf(DensityParams(*bad), 0.0)

    def test_degeneracy_supnorm(self):
        ys = np.linspace(-8.0, 8.0, 3201)
        for sigma in (0.5, 1.0, 2.0):
            for c in (-1.0, 0.0, 1.0):
                q = cez_pdf(DensityParams(sigma, sigma, c), ys)
                ref = std_normal_pdf(ys / sigma) / sigma
                assert np.max(np.abs(q - ref)) <= 1e-12

    @pytest.mark.parametrize("a,b,c", VAR_LATTICE)
    def test_normalizes_on_lattice(self, a, b, c):
        total = density_normalization("cez", DensityParams(a, b, c))
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a,b,c", VAR_LATTICE)
    def test_nonnegative_on_lattice(self, a, b, c):
        ys = np.linspace(c - 8.0 * b, c + 8.0 * a, 2001)
        assert np.all(cez_pdf(DensityParams(a, b, c), ys) >= -1e-15)


class TestParamSelection:
    def test_mean_increasing_sup(self):
        p = select_mean_limit_params(MeanInterval(-1.0, 1.0), 0.0, "increasing", "sup")
        assert p == DensityParams(1.0, 0.0, 0.0)

    def test_mean_decreasing_sup(self):
        p = select_mean_limit_params(MeanInterval(-1.0, 1.0), 0.0, "decreasing", "sup")
        assert p == DensityParams(-1.0, 0.0, 0.0)

    def test_mean_degenerate_interval(self):
        for mono in ("increasing", "decreasing"):
            for side in ("sup", "inf"):
                p = select_mean_limit_params(MeanInterval(0.7, 0.7), 2.0, mono, side)
                assert p == DensityParams(0.0, 0.7, 2.0)

    def test_sup_inf_differ_only_in_alpha_sign(self):
        m = MeanInterval(-0.25, 1.75)
        for mono in ("increasing", "decreasing"):
            up = select_mean_limit_params(m, 0.3, mono, "sup")
            lo = select_mean_limit_params(m, 0.3, mono, "inf")
            assert up.alpha == -lo.alpha
            assert (up.beta, up.c) == (lo.beta, lo.c)

    def test_variance_concave_sup_phibar(self):
        v = VarianceInterval(1.0, 2.0)
        p = select_variance_limit_params(v, 0.0, "concave", "sup", "phibar")
        assert p == DensityParams(1.0, 2.0, 0.0)

    def test_variance_convex_sup_phi(self):
        v = VarianceInterval(1.0, 2.0)
        p = select_variance_limit_params(v, 0.0, "convex", "sup", "phi")
        assert p == DensityParams(2.0, 1.0, 0.0)

    def test_variance_degenerate(self):
        v = VarianceInterval(1.5, 1.5)
        p = select_variance_limit_params(v, 0.2, "concave", "sup", "phibar")
        assert p == DensityParams(1.5, 1.5, 0.2)

    @pytest.mark.parametrize("convexity,side,envelope", [
        ("concave", "sup", "phi"),
        ("concave", "inf", "phibar"),
        ("convex", "sup", "phibar"),
        ("convex", "inf", "phi"),
    ])
    def test_uncovered_combinations_raise(self, convexity, side, envelope):
        with pytest.raises(UnsupportedCombination):
            select_variance_limit_params(VarianceInterval(1.0, 2.0), 0.0,
                                         convexity, side, envelope)


class TestCurves:
    def test_alpha_zero_curve_equals_normal(self):
        grid = Grid1D(-4.0, 4.0, 801)
        curve = emit_density_curve(DensityParams(0.0, 0.0, 0.0), "chen_epstein", grid)
        assert curve.shape == (801, 2)
        assert np.array_equal(curve[:, 1], std_normal_pdf(curve[:, 0]))

    def test_binormal_has_two_maxima(self):
        grid = Grid1D(-4.0, 4.0, 8001)  # 1e-3 spacing
        curve = emit_density_curve(DensityParams(1.0, 0.0, 0.0), "chen_epstein", grid)
        assert count_local_maxima(curve) == 2

    def test_spike_has_single_tall_peak(self):
        grid = Grid1D(-4.0, 4.0, 8001)
        curve = emit_density_curve(DensityParams(-0.5, 0.0, 0.0), "chen_epstein", grid)
        assert count_local_maxima(curve) == 1
        peak = int(np.argmax(curve[:, 1]))
        assert curve[peak, 0] == pytest.approx(0.0, abs=1e-9)
        assert curve[peak, 1] > 0.3989

    def test_curve_propagates_invalid_params(self):
        with pytest.raises(InvalidParams):
            emit_density_curve(DensityParams(-1.0, 2.0, 0.0), "cez",
                               Grid1D(-4.0, 4.0, 11))

    def test_interval_validation(self):
        with pytest.raises(InvalidParams):
            MeanInterval(1.0, -1.0)
        with pytest.raises(InvalidParams):
            VarianceInterval(2.0, 1.0)
        with pytest.raises(InvalidParams):
            VarianceInterval(0.0, 1.0)
        assert VarianceInterval(1.0, 2.0).theta == 0.5

    @pytest.mark.parametrize("lo,hi", [(1.0, np.inf), (np.inf, np.inf),
                                       (1.0, np.nan), (np.nan, 1.0)])
    def test_variance_interval_needs_finite_bounds(self, lo, hi):
        with pytest.raises(InvalidParams):
            VarianceInterval(lo, hi)

    @pytest.mark.parametrize("lo,hi", [(0.0, np.inf), (-np.inf, 0.0),
                                       (-np.inf, np.inf), (np.nan, 0.0),
                                       # finite, but the squares overflow
                                       (0.0, 1e160), (-1e160, 0.0)])
    def test_mean_interval_needs_finite_bounds(self, lo, hi):
        with pytest.raises(InvalidParams):
            MeanInterval(lo, hi)


# ---------------------------------------------------------------------------
# Phi(-z) only where z < 0: same bytes as evaluating it everywhere
# ---------------------------------------------------------------------------

def ref_chen_epstein_pdf(p, y):
    """The density with the direct term evaluated on every element."""
    y = np.asarray(y, dtype=float)
    alpha, beta, c = p.alpha, p.beta, p.c
    t = np.abs(y - c)
    a = abs(c - beta)
    first = INV_SQRT_2PI * np.exp(
        -0.5 * ((y - beta) ** 2 - 2.0 * alpha * (t - a) + alpha * alpha))
    z = a + t + alpha
    safe = z >= 0
    zs = np.where(safe, z, 0.0)
    tail = 0.5 * alpha * erfcx_arr(zs / SQRT2) * np.exp(2.0 * alpha * t - 0.5 * zs * zs)
    direct = alpha * np.exp(2.0 * alpha * t) * std_normal_cdf_arr(-z)
    out = first - np.where(safe, tail, direct)
    return float(out) if out.ndim == 0 else out


PARAM = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(PARAM, PARAM, PARAM,
       st.lists(st.floats(-40.0, 40.0, allow_nan=False), min_size=1, max_size=40))
def test_chen_epstein_direct_term_only_where_used(alpha, beta, c, ys):
    p = DensityParams(alpha, beta, c)
    y = np.array(ys + [c, beta, c - alpha, np.inf, -np.inf])
    with np.errstate(all="ignore"):
        assert chen_epstein_pdf(p, y).tobytes() == ref_chen_epstein_pdf(p, y).tobytes()
        for v in (ys[0], c - 1.0, c + 1.0):
            got, ref = chen_epstein_pdf(p, v), ref_chen_epstein_pdf(p, v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()


# ---------------------------------------------------------------------------
# one density integral: the line is cut where each piece of the density lives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,params", [
    ("chen_epstein", (50.0, 0.0, 0.0)),
    ("chen_epstein", (-50.0, 0.0, 0.0)),
    ("chen_epstein", (-200.0, 0.0, 0.0)),
    ("chen_epstein", (249.9, 250.1, 0.0)),
    ("chen_epstein", (-249.9, 250.1, 0.0)),
    ("chen_epstein", (-2.0, 30.0, 0.0)),
    ("cez", (1e-3, 1.0, 0.0)),
    ("cez", (1.0, 1e-4, 0.0)),
    ("cez", (1e3, 1.0, 0.0)),
    ("cez", (3.0, 0.01, -4.0)),
])
def test_normalizes_when_scales_are_far_apart(family, params):
    assert abs(density_normalization(family, DensityParams(*params)) - 1.0) <= 1e-9


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


MEAN_ALPHA = st.just(0.0) | st.builds(lambda sign, size: sign * size,
                                      st.sampled_from([-1.0, 1.0]),
                                      log_uniform(1e-2, 1e3))
LOCATION = st.floats(-50.0, 50.0, allow_nan=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(MEAN_ALPHA, LOCATION, LOCATION)
def test_chen_epstein_normalizes(alpha, beta, c):
    total = density_normalization("chen_epstein", DensityParams(alpha, beta, c))
    assert abs(total - 1.0) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_uniform(1e-4, 1e4), log_uniform(1e-4, 1e4), LOCATION)
def test_cez_normalizes(alpha, beta, c):
    assert abs(density_normalization("cez", DensityParams(alpha, beta, c)) - 1.0) <= 1e-9


def test_weighted_integral_is_a_moment():
    # q^{alpha,beta,0} has half-normal halves of masses beta / (alpha + beta)
    # right and alpha / (alpha + beta) left, so E[Y^2] = alpha * beta
    alpha, beta = 0.01, 3.0
    got = density_integral("cez", DensityParams(alpha, beta, 0.0), lambda y: y * y)
    assert got == pytest.approx(alpha * beta, abs=1e-9)


def test_integral_refuses_nonpositive_cez_scales():
    with pytest.raises(InvalidParams):
        density_integral("cez", DensityParams(0.0, 1.0, 0.0))
