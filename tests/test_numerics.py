import math

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlclt.densities import MEAN_FAMILY, VARIANCE_FAMILY, DensityParams, density_pdf
from nlclt.errors import InvalidParams, NonConvergence
from nlclt.numerics import (
    _WG,
    _WGK,
    _XGK,
    Grid1D,
    SeedSpec,
    erfcx,
    generator,
    ks_one_sample,
    quad_integrate,
    std_normal_cdf,
    std_normal_pdf,
)

# reference values from 40-digit mpmath evaluations, frozen before the build
PHI_196 = 0.975002104851779565863415730959
INV_SQRT_2PI = 0.398942280401432677939946059934
SQRT_PI = 1.77245385090551602729816748334


class TestStdNormal:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_limits(self):
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_cdf(math.inf) == 1.0

    def test_cdf_high_precision_point(self):
        assert abs(std_normal_cdf(1.96) - PHI_196) <= 1e-14

    def test_cdf_monotone(self):
        xs = np.linspace(-12, 12, 4001)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_cdf_reflection(self):
        for x in np.linspace(-10, 10, 201):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    def test_pdf_at_zero(self):
        assert abs(std_normal_pdf(0.0) - INV_SQRT_2PI) <= 1e-16

    def test_pdf_even_and_positive(self):
        xs = np.linspace(0.0, 20.0, 401)
        assert np.all(std_normal_pdf(xs) == std_normal_pdf(-xs))
        assert np.all(std_normal_pdf(xs) > 0)

    def test_pdf_normalizes(self):
        res = quad_integrate(std_normal_pdf, -8.0, 8.0, abs_tol=1e-13)
        assert abs(res.value - 1.0) <= 1e-12

    def test_erfcx_matches_direct_product(self):
        for x in [0.0, 0.5, 3.0, 10.0, 25.0]:
            assert erfcx(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-13)

    def test_erfcx_both_branches_vs_oracle(self):
        # 40-digit reference values straddling the branch switch, plus deep tail
        assert erfcx(25.999999) == pytest.approx(0.02168358568331780481593236, rel=1e-12)
        assert erfcx(26.000001) == pytest.approx(0.0216835840178080723330702, rel=1e-12)
        assert erfcx(40.0) == pytest.approx(0.01410033598337781362474129, rel=1e-13)


class TestQuadrature:
    def test_constant(self):
        res = quad_integrate(lambda x: np.ones_like(x), 0.0, 1.0, abs_tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.evaluations >= 1
        assert res.err_estimate >= 0

    def test_gaussian_real_line(self):
        res = quad_integrate(lambda x: np.exp(-x * x), -math.inf, math.inf,
                             abs_tol=1e-12)
        assert abs(res.value - SQRT_PI) <= 1e-11

    def test_normal_pdf_window(self):
        res = quad_integrate(std_normal_pdf, -8.0, 8.0, abs_tol=1e-11)
        assert abs(res.value - 1.0) <= 1e-10

    def test_error_bound_is_honest(self):
        res = quad_integrate(lambda x: np.sin(x) ** 2, 0.0, 10.0, abs_tol=1e-10)
        exact = 5.0 - math.sin(20.0) / 4.0
        assert abs(res.value - exact) <= max(res.err_estimate, 1e-13)

    def test_additivity(self):
        f = lambda x: np.exp(-x) * np.cos(3 * x)
        r_ab = quad_integrate(f, 0.0, 1.3, abs_tol=1e-12)
        r_bc = quad_integrate(f, 1.3, 4.0, abs_tol=1e-12)
        r_ac = quad_integrate(f, 0.0, 4.0, abs_tol=1e-12)
        combined = r_ab.err_estimate + r_bc.err_estimate + r_ac.err_estimate
        assert abs(r_ab.value + r_bc.value - r_ac.value) <= combined + 1e-14

    def test_budget_exhaustion_raises(self):
        rough = lambda x: np.cos(5000.0 * x)
        with pytest.raises(NonConvergence) as exc:
            quad_integrate(rough, 0.0, 10.0, abs_tol=1e-14, max_evals=300)
        assert exc.value.err_estimate > 1e-14
        assert math.isfinite(exc.value.estimate)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParams):
            quad_integrate(np.cos, 1.0, 0.0)
        with pytest.raises(InvalidParams):
            quad_integrate(np.cos, 0.0, 1.0, abs_tol=-1.0)


def frozen_gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _XGK
    ys = np.asarray(f(xs), dtype=float)
    k15 = half * float(np.dot(_WGK, ys))
    g7 = half * float(np.dot(_WG, ys[1::2]))
    return k15, abs(k15 - g7)


def frozen_two_call_quad(f, lo, hi, abs_tol):
    """quad_integrate on finite bounds as it was with one kernel call per
    half of a split panel: (value, err_estimate, evaluations)."""
    value, err = frozen_gk15(f, lo, hi)
    evals = 15
    heap = [(-err, lo, hi, value, err)]
    total_err = err
    while total_err > abs_tol and evals + 30 <= 2_000_000:
        neg, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = frozen_gk15(f, a, m)
        v2, e2 = frozen_gk15(f, m, b)
        evals += 30
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, m, v1, e1))
        heapq.heappush(heap, (-e2, m, b, v2, e2))
    return (math.fsum(item[3] for item in heap),
            math.fsum(item[4] for item in heap), evals)


@st.composite
def density_halves(draw):
    """(family, params, lo, hi): one half-line panel of the normalization."""
    family = draw(st.sampled_from([MEAN_FAMILY, VARIANCE_FAMILY]))
    low = -2.0 if family == MEAN_FAMILY else 0.25
    p = DensityParams(draw(st.floats(low, 2.0)), draw(st.floats(low, 2.0)),
                      draw(st.floats(-1.0, 1.0)))
    spread = 8.0 * (1.0 + abs(p.alpha) + abs(p.beta) + abs(p.c))
    lo, hi = (p.c - spread, p.c) if draw(st.booleans()) else (p.c, p.c + spread)
    return family, p, lo, hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(density_halves())
def test_split_panel_in_one_call_is_byte_identical(case):
    family, p, lo, hi = case
    pdf = density_pdf(family, p)
    res = quad_integrate(pdf, lo, hi, abs_tol=5e-10)
    value, err, evals = frozen_two_call_quad(pdf, lo, hi, 5e-10)
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    assert np.float64(res.err_estimate).tobytes() == np.float64(err).tobytes()
    assert res.evaluations == evals


class TestGrid:
    def test_spacing_positive(self):
        g = Grid1D(-4.0, 4.0, 801)
        assert len(g.values()) == 801

    @pytest.mark.parametrize("lo,hi,points", [(1.0, 0.0, 10), (0.0, 1.0, 1),
                                              (0.0, 0.0, 5)])
    def test_rejects_bad_grids(self, lo, hi, points):
        with pytest.raises(InvalidParams):
            Grid1D(lo, hi, points)

    def test_rejects_a_span_that_overflows(self):
        with pytest.raises(InvalidParams, match="finite span"):
            Grid1D(-1e308, 1e308, 3)
        assert np.all(np.isfinite(Grid1D(-1e300, 1e300, 3).values()))


class TestRandomStreams:
    def test_generator_reproducible(self):
        g1 = generator(SeedSpec(7, 2)).standard_normal(64)
        g2 = generator(SeedSpec(7, 2)).standard_normal(64)
        assert g1.tobytes() == g2.tobytes()

    def test_every_64_bit_seed_is_its_own_key(self):
        # seeds of 2**63 and above must not pass through float64
        for seed in (2**63 - 1, 2**63, 12345678901234567890, 2**64 - 2, 2**64 - 1):
            for stream in (0, 2**64 - 1):
                gen = generator(SeedSpec(seed, stream))
                assert gen.bit_generator.state["state"]["key"].tolist() == [seed, stream]
        assert generator(SeedSpec(2**64 - 1)).random(4).tobytes() != \
            generator(SeedSpec(2**64 - 2)).random(4).tobytes()
        # small keys are unchanged: the same stream as a plain key list
        ref = np.random.Generator(np.random.Philox(key=[7, 2])).random(8)
        assert generator(SeedSpec(7, 2)).random(8).tobytes() == ref.tobytes()

    def test_seed_spec_validation(self):
        with pytest.raises(InvalidParams):
            SeedSpec(-1, 0)
        with pytest.raises(InvalidParams):
            SeedSpec(0, -2)
        with pytest.raises(InvalidParams):
            SeedSpec(2**64, 0)
        with pytest.raises(InvalidParams):
            SeedSpec(0, 2**64)


def test_ks_against_exact_uniform():
    # sample = exact quantiles of U(0,1) -> KS = 1/(2n) + o(1)
    n = 1000
    sample = (np.arange(1, n + 1) - 0.5) / n
    d = ks_one_sample(sample, lambda x: np.clip(x, 0, 1))
    assert d == pytest.approx(0.5 / n, abs=1e-12)
