import math

import numpy as np
import pytest

from nlclt.classical import DiscreteLaw
from nlclt.errors import InvalidParams
from nlclt.martingale import (
    MdsModel,
    MixtureLimit,
    brown_ratios,
    hall_convergence_check,
    hall_mixture_sampler,
    levy_condition_terms,
    mcleish_exact_by_enumeration,
    mcleish_product_mean,
)
from nlclt.numerics import SeedSpec, generator, std_normal_cdf


class TestLevyTerms:
    def test_bounded_increments_empty_truncation(self):
        model = MdsModel.iid_rademacher(400)
        # eps * b_n = 0.1 * 20 = 2 > 1 = |X_i|
        terms = levy_condition_terms(model, SeedSpec(1, 0))
        assert terms == (0.0, 0.0, 0.0, 0.0)

    def test_small_n_full_truncation(self):
        model = MdsModel.iid_rademacher(25)
        # eps * b_n = 0.1 * 5 = 0.5 < 1, every increment exceeds
        tail, first, second, first_sq = levy_condition_terms(model, SeedSpec(1, 0))
        assert tail == 25.0
        assert first == 0.0
        assert second == pytest.approx(1.0)
        assert first_sq == 0.0

    def test_var_feedback_reproducible(self):
        model = MdsModel.var_feedback(1.0, 3.0, 1000)
        a = levy_condition_terms(model, SeedSpec(8, 2))
        b = levy_condition_terms(model, SeedSpec(8, 2))
        assert a == b
        assert all(math.isfinite(v) for v in a)

    def test_var_feedback_matches_per_step_enumeration(self):
        # independent oracle: rebuild the sigma path from the innovation
        # stream and recompute the four sums directly
        n, spec = 64, SeedSpec(123, 5)
        model = MdsModel.var_feedback(0.5, 2.0, n)
        got = levy_condition_terms(model, spec, eps=0.1)
        signs = generator(spec).integers(0, 2, size=(1, n))[0] * 2 - 1
        sig = [0.5]
        for s in signs[:-1]:
            sig.append(0.5 if s > 0 else 2.0)
        sig = np.array(sig)
        b2 = float(np.sum(sig**2))
        thr = 0.1 * math.sqrt(b2)
        tail = float(np.sum(sig > thr))
        second = float(np.sum(np.where(sig > thr, sig**2, 0.0))) / b2
        assert got[0] == tail
        assert got[1] == 0.0
        assert got[2] == pytest.approx(second, rel=1e-14)
        assert got[3] == 0.0


class TestBrownRatios:
    def test_iid_rademacher_exact(self):
        model = MdsModel.iid_rademacher(50)
        r1, r2 = brown_ratios(model, 200, SeedSpec(3, 0))
        assert r1 == 1.0
        assert r2 == pytest.approx(1.0 / 50.0, rel=1e-14)

    def test_hall_mixture_ratio_not_concentrated(self):
        # per-path ratio has atoms 1/2.5 and 4/2.5; the mean stays 1 but
        # Brown's in-probability condition fails
        model = MdsModel.hall_mixture([1.0, 2.0], [0.5, 0.5], 100)
        sig, _ = model.simulate_scales(4000, generator(SeedSpec(4, 0)))
        ratios = (sig**2).sum(axis=1) / model.exact_s2()
        atoms = set(np.round(np.unique(ratios), 12))
        assert atoms == {round(1 / 2.5, 12), round(4 / 2.5, 12)}
        r1, _ = brown_ratios(model, 4000, SeedSpec(4, 0))
        se = math.sqrt(np.var(ratios) / len(ratios))
        assert abs(r1 - 1.0) <= 3 * se

    def test_var_feedback_matches_chain_computation(self):
        sp, sm, n = 1.0, 2.0, 30
        model = MdsModel.var_feedback(sp, sm, n)
        reps = 20_000
        r1, r2 = brown_ratios(model, reps, SeedSpec(5, 1))
        s2 = sp**2 + (n - 1) * 0.5 * (sp**2 + sm**2)
        assert model.exact_s2() == s2
        # E[b_n^2] = s_n^2 so the first ratio averages to 1
        assert r1 == pytest.approx(1.0, abs=0.01)
        # max sigma_i^2 = sigma_minus^2 unless all n-1 feedback draws pick
        # sigma_plus, which happens with probability 2^{-(n-1)}
        p_allplus = 0.5 ** (n - 1)
        exact_max = (sm**2 * (1 - p_allplus) + sp**2 * p_allplus) / s2
        assert r2 == pytest.approx(exact_max, rel=0.02)


class TestMcleish:
    def test_t_zero_is_exactly_one(self):
        model = MdsModel.iid_rademacher(100)
        est, se = mcleish_product_mean(model, 0.0, 10_000, SeedSpec(2, 0))
        assert est == 1.0 + 0.0j
        assert se == 0.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_iid_columns_mean_one(self, t):
        model = MdsModel.iid_rademacher(100)
        est, se = mcleish_product_mean(model, t, 10_000, SeedSpec(42, 0))
        assert abs(est - 1.0) <= 3 * se

    def test_hall_columns_vs_enumeration_oracle(self):
        model = MdsModel.hall_mixture([1.0, 2.0], [0.5, 0.5], 10)
        exact = mcleish_exact_by_enumeration(model, 1.0)
        assert exact == pytest.approx(1.0 + 0.0j, abs=1e-12)
        est, se = mcleish_product_mean(model, 1.0, 20_000, SeedSpec(6, 0))
        assert abs(est - exact) <= 3 * se

    def test_reps_floor(self):
        with pytest.raises(InvalidParams):
            mcleish_product_mean(MdsModel.iid_rademacher(10), 1.0, 10,
                                 SeedSpec(1, 0))


class TestHallMixture:
    def test_degenerate_mixture_is_standard_normal(self):
        limit = MixtureLimit(DiscreteLaw((1.0,), (1.0,)))
        sample = hall_mixture_sampler(limit, 10_000, SeedSpec(9, 0))
        from nlclt.numerics import ks_one_sample, std_normal_cdf_arr
        assert ks_one_sample(sample, std_normal_cdf_arr) <= 0.02

    def test_sample_variance_matches_second_moment(self):
        limit = MixtureLimit(DiscreteLaw((1.0, 2.0), (0.5, 0.5)))
        sample = hall_mixture_sampler(limit, 40_000, SeedSpec(10, 0))
        # Var(T'Z) = E[T'^2]; SE of the sample variance from 4th moments
        target = limit.second_moment()
        fourth = np.mean(sample**4)
        se = math.sqrt((fourth - target**2) / len(sample))
        assert abs(np.var(sample) - target) <= 3 * se

    def test_empty_sample(self):
        limit = MixtureLimit(DiscreteLaw((1.0,), (1.0,)))
        assert len(hall_mixture_sampler(limit, 0, SeedSpec(1, 0))) == 0

    def test_mixture_cdf_closed_form(self):
        limit = MixtureLimit(DiscreteLaw((1.0, 2.0), (0.5, 0.5)))
        xs = np.array([-1.0, 0.0, 2.0])
        expected = 0.5 * np.array([std_normal_cdf(x) for x in xs]) + \
            0.5 * np.array([std_normal_cdf(x / 2) for x in xs])
        assert np.allclose(limit.cdf(xs), expected, atol=1e-15)

    def test_mixture_validation(self):
        with pytest.raises(InvalidParams):
            MixtureLimit(DiscreteLaw((1.0, 2.0), (0.6, 0.6)))
        with pytest.raises(InvalidParams):
            MixtureLimit(DiscreteLaw((-1.0,), (1.0,)))


class TestHallConvergence:
    def test_degenerate_eta_reduces_to_clt(self):
        d = hall_convergence_check([1.0], [1.0], 10_000, 10_000, SeedSpec(42, 0))
        assert d <= 0.03

    def test_two_atom_mixture_tight(self):
        d = hall_convergence_check([1.0, 2.0], [0.5, 0.5], 10_000, 100_000,
                                   SeedSpec(42, 0))
        assert d <= 0.01

    def test_deterministic(self):
        a = hall_convergence_check([1.0, 2.0], [0.5, 0.5], 400, 2000, SeedSpec(3, 7))
        b = hall_convergence_check([1.0, 2.0], [0.5, 0.5], 400, 2000, SeedSpec(3, 7))
        assert a == b

    def test_ks_shrinks_along_kn_ladder(self):
        reps = 20_000
        ds = [hall_convergence_check([1.0, 2.0], [0.5, 0.5], kn, reps, SeedSpec(42, 0))
              for kn in (100, 1000, 10_000)]
        noise = 2 * 1.36 / math.sqrt(reps)
        assert ds[1] <= ds[0] + noise
        assert ds[2] <= ds[1] + noise
        assert ds[2] < ds[0]

    def test_preconditions(self):
        with pytest.raises(InvalidParams):
            hall_convergence_check([1.0], [1.0], 50, 2000, SeedSpec(1, 0))
        with pytest.raises(InvalidParams):
            hall_convergence_check([1.0], [1.0], 200, 10, SeedSpec(1, 0))


def test_conditional_mean_zero_randomized_audit():
    # enumerate the +-sigma conditional atoms along simulated paths; the
    # one-step conditional mean must vanish exactly for every history
    models = [
        MdsModel.iid_rademacher(8),
        MdsModel.hall_mixture([0.5, 1.5, 3.0], [0.2, 0.5, 0.3], 8),
        MdsModel.var_feedback(0.7, 1.9, 8),
    ]
    for i, model in enumerate(models):
        sig, _ = model.simulate_scales(1000, generator(SeedSpec(77, i)))
        cond_means = 0.5 * sig + 0.5 * (-sig)
        assert np.all(cond_means == 0.0)


def test_model_validation():
    with pytest.raises(InvalidParams):
        MdsModel.hall_mixture([1.0, 2.0], [0.7, 0.7], 10)
    with pytest.raises(InvalidParams):
        MdsModel.hall_mixture([], [], 10)
    with pytest.raises(InvalidParams):
        MdsModel.var_feedback(0.0, 1.0, 10)
    with pytest.raises(InvalidParams):
        MdsModel.iid_rademacher(0)


def test_hall_law_is_checked_when_the_model_is_built():
    with pytest.raises(InvalidParams, match="non-negative"):
        MdsModel.hall_mixture((1, 2), (1.5, -0.5), 10)
    with pytest.raises(InvalidParams, match="finite"):
        MdsModel.hall_mixture((1.0, math.nan), (0.5, 0.5), 10)
    with pytest.raises(InvalidParams, match="finite"):
        MdsModel.hall_mixture((1.0, 2.0), (math.nan, 1.0), 10)
    with pytest.raises(InvalidParams, match="matching non-empty"):
        MdsModel.hall_mixture((1.0, 2.0, 3.0), (0.5, 0.5), 10)
    with pytest.raises(InvalidParams, match="DiscreteLaw"):
        MdsModel(kind="hall_mixture", n=10)
    with pytest.raises(InvalidParams, match="positive"):
        MdsModel.hall_mixture((0.0, 1.0), (0.5, 0.5), 10)


def test_mixture_law_rejects_non_finite_entries():
    with pytest.raises(InvalidParams, match="finite"):
        MixtureLimit(DiscreteLaw((1.0, math.nan), (0.5, 0.5)))
    with pytest.raises(InvalidParams, match="finite"):
        MixtureLimit(DiscreteLaw((1.0, math.inf), (0.5, 0.5)))
    with pytest.raises(InvalidParams, match="matching non-empty"):
        hall_convergence_check([1.0, 2.0], [1.0], 200, 2000, SeedSpec(1, 0))
    # a point mass at 0 is a valid mixing law
    assert MixtureLimit(DiscreteLaw((0.0,), (1.0,))).second_moment() == 0.0


def test_scales_whose_squares_overflow_are_rejected():
    # 1e154 squared is 1e308: finite at n = 1, past the float range at n = 2
    assert MdsModel.var_feedback(1e154, 1.0, 1).exact_s2() == 1e308
    for n in (2, 5):
        with pytest.raises(InvalidParams, match="squared scale"):
            MdsModel.var_feedback(1e154, 1.0, n)
    with pytest.raises(InvalidParams, match="squared scale"):
        MdsModel.var_feedback(1.0, 1e300, 5)
    with pytest.raises(InvalidParams, match="squared scale"):
        MdsModel.hall_mixture([1.0, 1e200], [0.5, 0.5], 3)


def test_scales_whose_squares_underflow_to_zero_are_rejected():
    # levy_condition_terms divides by a path's b_n^2 = sum of sigma_i^2: a
    # hall path keeps one eta, a feedback path may keep sigma_plus
    for make in (lambda: MdsModel.var_feedback(1e-300, 1.0, 1),
                 lambda: MdsModel.var_feedback(1e-170, 1.0, 2),
                 lambda: MdsModel.hall_mixture([1e-300], [1.0], 2),
                 lambda: MdsModel.hall_mixture([1e-300, 1.0], [0.5, 0.5], 1)):
        with pytest.raises(InvalidParams, match="squares to 0, so a path's b_n"):
            make()
    # 1e-160 squares to a subnormal, and every feedback path starts at
    # sigma_plus = 1: each b_n^2 stays positive
    for model in (MdsModel.var_feedback(1e-160, 1.0, 2),
                  MdsModel.var_feedback(1.0, 1e-300, 2),
                  MdsModel.hall_mixture([1e-160, 1.0], [0.5, 0.5], 1)):
        for seed in range(1, 7):
            terms = levy_condition_terms(model, SeedSpec(seed, 0))
            assert all(math.isfinite(v) for v in terms)
