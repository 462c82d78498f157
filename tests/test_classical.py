import math

import numpy as np
import pytest

from nlclt.classical import (
    DiscreteLaw,
    IidModel,
    LaplaceParams,
    _lyapunov_in_logs,
    binomial_standardized_prob,
    feller_ratio,
    laplace_approx,
    laplace_exact,
    lindeberg_statistic,
    lyapunov_statistic,
    simulate_clt_distance,
)
from nlclt.errors import InvalidParams
from nlclt.numerics import SeedSpec, std_normal_cdf

# frozen oracle values (exact rational / 40-digit mpmath, pre-build)
EXACT_ATOM_100_50 = 0.07958923738717876149812705   # C(100,50) / 2^100
LAPLACE_AT_0 = 0.07978845608028653558798921        # 10 / (50 sqrt(2 pi))
BERN03_ABS3 = 0.1218                               # p(1-p)(p^2 + (1-p)^2)


class TestBinomialProb:
    def test_two_point_support(self):
        assert binomial_standardized_prob(1, 0.5, -2.0, 2.0) == pytest.approx(1.0)

    def test_large_n_matches_phi(self):
        p = binomial_standardized_prob(10_000, 0.5, -1.96, 1.96)
        target = std_normal_cdf(1.96) - std_normal_cdf(-1.96)
        assert abs(p - target) <= 0.006

    def test_near_degenerate_law(self):
        # p close to 1 concentrates all mass on S = n
        prob = binomial_standardized_prob(10, 0.999, -0.5, 0.5)
        assert prob == pytest.approx(0.999 ** 10, abs=1e-12)

    @pytest.mark.parametrize("T", [1.0, 2.0, 3.0])
    def test_gap_to_phi_shrinks_along_n_ladder(self, T):
        target = std_normal_cdf(T) - std_normal_cdf(-T)
        gaps = []
        for n in (100, 1000, 10_000):
            got = binomial_standardized_prob(n, 0.5, -T, T)
            gap = abs(got - target)
            assert gap <= 1.0 / math.sqrt(n * 0.25)
            gaps.append(gap)
        assert gaps[2] < gaps[0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParams):
            binomial_standardized_prob(10, 1.5, -1, 1)
        with pytest.raises(InvalidParams):
            binomial_standardized_prob(10, 0.5, 1.0, 1.0)


class TestLaplace:
    def test_point_atom_case(self):
        lp = LaplaceParams(n=100, p=0.5, z=0.0, a=0.0)
        assert laplace_approx(lp) == pytest.approx(LAPLACE_AT_0, abs=1e-14)
        assert laplace_exact(lp) == pytest.approx(EXACT_ATOM_100_50, abs=1e-14)
        assert abs(laplace_approx(lp) - laplace_exact(lp)) <= 5e-4

    def test_wider_window(self):
        lp = LaplaceParams(n=100, p=0.5, z=0.0, a=5.0)
        assert abs(laplace_approx(lp) - laplace_exact(lp)) <= 5e-3

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("a", [0.0, 2.0, 5.0, 10.0])
    def test_acceptance_lattice(self, n, a):
        lp = LaplaceParams(n=n, p=0.5, z=0.0, a=a)
        assert abs(laplace_approx(lp) - laplace_exact(lp)) <= 1e-2

    def test_full_mass_limit(self):
        lp = LaplaceParams(n=100, p=0.5, z=0.0, a=100.0)
        assert laplace_approx(lp) >= 1.0 - 1e-6
        assert laplace_exact(lp) == pytest.approx(1.0, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            LaplaceParams(n=100, p=0.5, z=1.5, a=1.0)
        with pytest.raises(InvalidParams):
            LaplaceParams(n=100, p=0.5, z=0.0, a=-1.0)
        with pytest.raises(InvalidParams):
            LaplaceParams(n=1, p=0.01, z=-0.5, a=0.0)  # x = 0.01 - 0.5 < 0


class TestConditionStatistics:
    def test_lyapunov_rademacher_is_inverse_sqrt_n(self):
        model = IidModel(DiscreteLaw.rademacher(), delta=1.0)
        for n in (100, 10_000):
            assert lyapunov_statistic(model, n) == 1.0 / math.sqrt(n)

    def test_lyapunov_scaling(self):
        model = IidModel(DiscreteLaw.rademacher(), delta=1.0)
        assert lyapunov_statistic(model, 400) == \
            pytest.approx(0.5 * lyapunov_statistic(model, 100), rel=1e-14)

    def test_lyapunov_bernoulli_exact_moments(self):
        model = IidModel(DiscreteLaw.bernoulli(0.3), delta=1.0)
        sigma = math.sqrt(0.3 * 0.7)
        expected = BERN03_ABS3 / (sigma ** 3 * math.sqrt(400))
        assert lyapunov_statistic(model, 400) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("law,delta", [
        (DiscreteLaw.bernoulli(0.3), 1.0), (DiscreteLaw.bernoulli(0.05), 2.5),
        (DiscreteLaw((-3.0, 0.5, 2.0), (0.2, 0.5, 0.3)), 0.5)])
    def test_lyapunov_in_logs_matches_the_direct_ratio(self, law, delta):
        # the form past the float range, checked where both forms are exact
        for n in (1, 100, 1600):
            direct = lyapunov_statistic(IidModel(law, delta), n)
            assert _lyapunov_in_logs(law, law.variance(), delta, n) == \
                pytest.approx(direct, rel=1e-13)

    def test_lyapunov_rejects_degenerate(self):
        law = DiscreteLaw(values=(2.0,), probs=(1.0,))
        with pytest.raises(InvalidParams):
            lyapunov_statistic(IidModel(law), 10)

    def test_lindeberg_bounded_law_vanishes(self):
        model = IidModel(DiscreteLaw.rademacher())
        # eps * sqrt(n) > 1 empties the indicator for |X| = 1
        assert lindeberg_statistic(model, 400, eps=0.1) == 0.0

    def test_lindeberg_full_indicator(self):
        model = IidModel(DiscreteLaw.rademacher())
        assert lindeberg_statistic(model, 1, eps=0.5) == 1.0

    def test_lindeberg_three_point_law(self):
        law = DiscreteLaw(values=(-2.0, 0.0, 2.0), probs=(0.25, 0.5, 0.25))
        model = IidModel(law)
        # support enumeration oracle: threshold 0.1*sqrt(100*2) = sqrt(2),
        # atoms +-2 exceed it, so E[X^2 1] = 4 * 0.5 and the ratio is 1
        assert lindeberg_statistic(model, 100, eps=0.1) == pytest.approx(1.0)

    def test_lindeberg_monotone_in_eps_and_n(self):
        law = DiscreteLaw(values=(-3.0, 0.0, 3.0), probs=(0.2, 0.6, 0.2))
        model = IidModel(law)
        stats_eps = [lindeberg_statistic(model, 16, e) for e in (0.2, 0.5, 0.8, 1.2)]
        assert all(a >= b for a, b in zip(stats_eps, stats_eps[1:]))
        stats_n = [lindeberg_statistic(model, n, 0.5) for n in (4, 16, 64, 256)]
        assert all(a >= b for a, b in zip(stats_n, stats_n[1:]))

    def test_feller(self):
        assert feller_ratio([1.0, 1.0, 1.0, 1.0]) == 0.25
        assert feller_ratio([1.0]) == 1.0
        sigmas = [float(i) for i in range(1, 101)]
        assert feller_ratio(sigmas) == pytest.approx(100.0 / 5050.0, rel=1e-14)
        with pytest.raises(InvalidParams):
            feller_ratio([])


class TestCltSimulation:
    def test_rademacher_close_to_normal(self):
        model = IidModel(DiscreteLaw.rademacher())
        d = simulate_clt_distance(model, 10_000, 10_000, SeedSpec(42, 0))
        assert d <= 0.03

    def test_single_step_is_far_from_normal(self):
        model = IidModel(DiscreteLaw.rademacher())
        d = simulate_clt_distance(model, 1, 1000, SeedSpec(42, 0))
        assert d >= 0.3

    def test_deterministic(self):
        model = IidModel(DiscreteLaw.bernoulli(0.3))
        a = simulate_clt_distance(model, 500, 500, SeedSpec(11, 3))
        b = simulate_clt_distance(model, 500, 500, SeedSpec(11, 3))
        assert a == b

    def test_reps_floor(self):
        with pytest.raises(InvalidParams):
            simulate_clt_distance(IidModel(DiscreteLaw.rademacher()), 10, 50,
                                  SeedSpec(1, 0))


def test_law_validation():
    with pytest.raises(InvalidParams):
        DiscreteLaw(values=(1.0, 2.0), probs=(0.6, 0.5))
    with pytest.raises(InvalidParams):
        DiscreteLaw(values=(1.0,), probs=(-1.0,))
    with pytest.raises(InvalidParams):
        DiscreteLaw.bernoulli(0.0)
    with pytest.raises(InvalidParams):
        IidModel(DiscreteLaw.rademacher(), delta=0.0)


def test_law_sampling_matches_moments():
    law = DiscreteLaw(values=(-1.0, 0.0, 2.0), probs=(0.5, 0.25, 0.25))
    gen = np.random.Generator(np.random.Philox(key=[5, 0]))
    sums = law.sample_sums(50, 4000, gen)
    assert sums.mean() == pytest.approx(50 * law.mean(), abs=0.3)
    assert sums.var() == pytest.approx(50 * law.variance(), rel=0.1)


@pytest.mark.parametrize("values,probs", [
    ((0.0, 1.0), (math.nan, math.nan)),
    ((0.0, math.nan), (0.5, 0.5)),
    ((-math.inf, 1.0), (0.5, 0.5)),
    ((0.0, 1.0), (math.inf, -math.inf)),
])
def test_law_rejects_non_finite_entries(values, probs):
    with pytest.raises(InvalidParams, match="finite"):
        DiscreteLaw(values, probs)


@pytest.mark.parametrize("values,probs", [(((1.0, 2.0),), (1.0,)), (1.0, 1.0)])
def test_law_needs_1d_entries(values, probs):
    with pytest.raises(InvalidParams, match="matching non-empty"):
        DiscreteLaw(values, probs)


def test_law_keeps_float_tuples_and_second_moment():
    law = DiscreteLaw(np.array([1, 2]), [0.25, 0.75])
    assert law.values == (1.0, 2.0) and law.probs == (0.25, 0.75)
    assert all(type(v) is float for v in law.values + law.probs)
    assert law.second_moment() == 0.25 + 0.75 * 4.0
    assert DiscreteLaw.rademacher().second_moment() == 1.0


def _parent_binomial_log_pmf(n, p, k):
    """The pmf as first written, through np.vectorize(math.lgamma)."""
    return (math.lgamma(n + 1)
            - np.vectorize(math.lgamma)(k + 1.0)
            - np.vectorize(math.lgamma)(n - k + 1.0)
            + k * math.log(p) + (n - k) * math.log1p(-p))


@pytest.mark.parametrize("n,p,lo,hi", [
    (1, 0.5, 0, 1), (10, 0.3, 0, 10), (100, 0.5, 40, 60), (101, 0.01, 0, 7),
    (10_000, 0.5, 4804, 5196), (10_000, 0.37, 3600, 3800), (10_000, 0.999, 9980, 10_000),
])
def test_binomial_log_pmf_is_bit_identical_to_vectorize(n, p, lo, hi):
    from nlclt.classical import _binomial_log_pmf
    k = np.arange(lo, hi + 1, dtype=float)
    assert _binomial_log_pmf(n, p, k).tobytes() == _parent_binomial_log_pmf(n, p, k).tobytes()
