import math
from dataclasses import replace

import numpy as np
import pytest

from helpers_dp import (
    enumerate_adapted_policies_value,
    lattice_tree_value,
    lattice_tree_value_split,
    lattice_tree_value_two_layer,
)
from nlclt import measure_dp
from nlclt.classical import DiscreteLaw
from nlclt.densities import DensityParams, MeanInterval, VarianceInterval, chen_epstein_pdf
from nlclt.errors import GridTooCoarse, InvalidParams, PolicyMismatch
from nlclt.measure_dp import (
    RectangularModel,
    lindeberg_condition_value,
    convergence_experiment,
    policy_simulate,
    sup_expectation_dp,
    terminal_dp_state,
)
from nlclt.numerics import SeedSpec, quad_integrate, std_normal_pdf
from nlclt.sublinear import SShapeSpec, make_s_shaped, named_test_function

ONE_OVER_SQRT3 = 0.5773502691896258  # int exp(-y^2) * standard normal pdf
INT_GAUSS_F_SUP = 0.7020778530770605


def s_shaped(envelope, theta=0.5):
    return make_s_shaped(SShapeSpec(phi1=named_test_function("tanh"),
                                    c=0.0, theta=theta), envelope)


class TestSupExpectationDp:
    def test_degenerate_variance_recovers_classical_clt(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 1.0), 400)
        value, _ = sup_expectation_dp(model, named_test_function("gauss"), "sup")
        assert abs(value - ONE_OVER_SQRT3) <= 5e-3

    def test_mean_one_step_hand_computation(self):
        # n=1: the folded statistic is mu + (sigma/1 + 1/1) * eps = mu +- 2
        model = RectangularModel.mean_uncertain(MeanInterval(0.0, 0.0), 1.0, 1)
        value, _ = sup_expectation_dp(model, named_test_function("gauss"), "sup")
        assert value == pytest.approx(math.exp(-4.0), abs=1e-9)

    def test_variance_s_shape_approaches_explicit_limit(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 2000)
        value, _ = sup_expectation_dp(model, s_shaped("phibar"), "sup")
        assert abs(value - 0.0) <= 0.02

    def test_grid_too_coarse_raises(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 200)
        with pytest.raises(GridTooCoarse):
            sup_expectation_dp(model, named_test_function("gauss"), "sup",
                               target_points=41, check_points=2001)

    def test_sup_dominates_inf(self):
        phis = [named_test_function("gauss"), named_test_function("tanh"),
                s_shaped("phi"), s_shaped("phibar")]
        models = [
            RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 60),
            RectangularModel.mean_uncertain(MeanInterval(-0.4, 0.2), 1.0, 60),
        ]
        for model in models:
            for phi in phis:
                up, _ = sup_expectation_dp(model, phi, "sup", check_points=None)
                lo, _ = sup_expectation_dp(model, phi, "inf", check_points=None)
                assert up >= lo - 1e-9

    def test_monotone_in_measure_set(self):
        phi = named_test_function("gauss")
        nested_means = [MeanInterval(0.0, 0.0), MeanInterval(-0.25, 0.25),
                        MeanInterval(-0.5, 0.5)]
        sups, infs = [], []
        for m in nested_means:
            model = RectangularModel.mean_uncertain(m, 1.0, 50)
            sups.append(sup_expectation_dp(model, phi, "sup", check_points=None)[0])
            infs.append(sup_expectation_dp(model, phi, "inf", check_points=None)[0])
        assert sups[0] <= sups[1] + 1e-12 and sups[1] <= sups[2] + 1e-12
        assert infs[0] >= infs[1] - 1e-12 and infs[1] >= infs[2] - 1e-12

        nested_vars = [VarianceInterval(1.2, 1.4), VarianceInterval(1.0, 1.6),
                       VarianceInterval(0.8, 2.0)]
        sups, infs = [], []
        for v in nested_vars:
            model = RectangularModel.variance_uncertain(v, 50)
            sups.append(sup_expectation_dp(model, phi, "sup", check_points=None)[0])
            infs.append(sup_expectation_dp(model, phi, "inf", check_points=None)[0])
        assert sups[0] <= sups[1] + 1e-12 and sups[1] <= sups[2] + 1e-12
        assert infs[0] >= infs[1] - 1e-12 and infs[1] >= infs[2] - 1e-12

    def test_rejects_unbounded_payoff(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 10)
        with pytest.raises(InvalidParams):
            sup_expectation_dp(model, named_test_function("abs"), "sup")

    def test_terminal_state_matches_payoff_exactly(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 8)
        phi = named_test_function("gauss")
        state = terminal_dp_state(model, phi)
        assert state.step == 8
        assert np.array_equal(state.values, phi(state.grid.values()))


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
    @pytest.mark.parametrize("side", ["sup", "inf"])
    def test_matches_exhaustive_enumeration(self, n, side):
        phi = named_test_function("gauss")
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), n)
        dp, _ = sup_expectation_dp(model, phi, side, check_points=None)
        brute = lattice_tree_value(n, phi, side)
        assert abs(dp - brute) <= 1e-12

    def test_s_shape_also_exact(self):
        phi = s_shaped("phibar")
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 12)
        dp, _ = sup_expectation_dp(model, phi, "sup", check_points=None)
        assert abs(dp - lattice_tree_value(12, phi, "sup")) <= 1e-12


class TestRectangularityAudit:
    @pytest.mark.parametrize("n,j", [(4, 2), (8, 3), (8, 4)])
    def test_pasting_split_is_exact(self, n, j):
        phi = named_test_function("gauss")
        whole = lattice_tree_value(n, phi, "sup")
        split = lattice_tree_value_split(n, j, phi, "sup")
        assert abs(whole - split) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8])
    def test_two_layer_adversary_step_is_exact(self, n):
        phi = named_test_function("gauss")
        fused = lattice_tree_value(n, phi, "sup")
        layered = lattice_tree_value_two_layer(n, phi, "sup")
        assert abs(fused - layered) <= 1e-12

    def test_adaptive_policy_enumeration_n4(self):
        # sup over all 2^15 genuinely adapted bang-bang policies equals the
        # nested DP value: the pasting property realized by the adversary
        phi = named_test_function("gauss")
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 4)
        dp, _ = sup_expectation_dp(model, phi, "sup", check_points=None)
        enumerated = enumerate_adapted_policies_value(4, (1, 2), phi, "sup")
        assert abs(dp - enumerated) <= 1e-12


class TestBangBangAdequacy:
    # extreme controls are provably optimal exactly for the (envelope, side)
    # pairings the explicit limit covers; the unmatched pairings admit
    # interior optima of order 1e-5 at finite n
    @pytest.mark.parametrize("envelope,side", [("phibar", "sup"), ("phi", "inf")])
    def test_enriched_control_grid_changes_nothing(self, envelope, side):
        from nlclt.measure_dp import _backward_induction

        phi = s_shaped(envelope)
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 100)
        two, _, _, _ = _backward_induction(model, phi, side, 4001, False)
        rich, _, _, _ = _backward_induction(model, phi, side, 4001, False,
                                            controls=np.linspace(1.0, 2.0, 7))
        assert abs(two - rich) <= 1e-9


class TestLindebergValue:
    def test_bounded_increments_vanish(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 100)
        # sqrt(n * eps) = sqrt(10) > 2 = worst |X|
        assert lindeberg_condition_value(model, 100, 0.1) == 0.0

    def test_full_indicator_picks_worst_scale(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1)
        assert lindeberg_condition_value(model, 1, 1e-4) == 4.0

    def test_mean_uncertain_support_bound(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-1.0, 1.0), 1.0, 100)
        # |mu| + 1 <= 2 < sqrt(100 * 0.05)
        assert lindeberg_condition_value(model, 100, 0.05) == 0.0

    def test_mean_uncertain_hand_value(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-1.0, 1.0), 1.0, 1)
        # threshold sqrt(0.5); worst control mu = +-1 gives atom at +-2
        assert lindeberg_condition_value(model, 1, 0.5) == pytest.approx(2.0)


class TestConvergenceExperiment:
    def test_mean_gap_shrinks(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1)
        rows = convergence_experiment(model, named_test_function("gauss"),
                                      [50, 200], "sup")
        assert len(rows) == 2
        (n1, v1, l1, g1), (n2, v2, l2, g2) = rows
        assert (n1, n2) == (50, 200)
        assert l1 == l2 == pytest.approx(INT_GAUSS_F_SUP, abs=1e-8)
        assert g2 < g1
        assert g1 == abs(v1 - l1)

    def test_degenerate_variance_uses_pde_limit(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 1.0), 1)
        rows = convergence_experiment(model, named_test_function("gauss"),
                                      [25, 100], "sup")
        assert rows[0][2] == pytest.approx(ONE_OVER_SQRT3, abs=2e-3)
        assert rows[1][3] < rows[0][3]

    def test_grid_too_coarse_raises(self, monkeypatch):
        # the values-only path keeps the refinement check of the policy path
        monkeypatch.setattr(measure_dp, "DEFAULT_GRID_POINTS", 41)
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1)
        with pytest.raises(GridTooCoarse):
            convergence_experiment(model, named_test_function("gauss"),
                                   [200], "sup")

    @pytest.mark.parametrize("side", ["sup", "inf"])
    def test_dp_value_equals_sup_expectation_dp(self, side):
        cases = [
            (RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1),
             named_test_function("gauss")),
            (RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1),
             s_shaped("phibar" if side == "sup" else "phi")),
        ]
        for model, phi in cases:
            rows = convergence_experiment(model, phi, [10, 40], side)
            for n, value, _, _ in rows:
                ref, _ = sup_expectation_dp(replace(model, n=n), phi, side)
                assert np.float64(value).tobytes() == np.float64(ref).tobytes()


class TestPolicySimulate:
    def test_sup_policy_achieves_dp_value(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 100)
        phi = s_shaped("phibar")
        dp_value, policy = sup_expectation_dp(model, phi, "sup")
        est, se = policy_simulate(model, policy, phi, 100_000, SeedSpec(42, 0))
        assert est <= dp_value + 3 * se
        assert abs(est - dp_value) <= 3 * se

    def test_degenerate_controls_match_classical_monte_carlo(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 1.0), 64)
        phi = named_test_function("gauss")
        dp_value, policy = sup_expectation_dp(model, phi, "sup")
        est, se = policy_simulate(model, policy, phi, 50_000, SeedSpec(7, 1))
        assert abs(est - dp_value) <= 3 * se

    def test_deterministic(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-0.3, 0.3), 1.0, 32)
        phi = named_test_function("gauss")
        _, policy = sup_expectation_dp(model, phi, "sup", check_points=None)
        a = policy_simulate(model, policy, phi, 2000, SeedSpec(5, 5))
        b = policy_simulate(model, policy, phi, 2000, SeedSpec(5, 5))
        assert a == b

    def test_policy_mismatch(self):
        v = VarianceInterval(1.0, 2.0)
        phi = named_test_function("gauss")
        model_a = RectangularModel.variance_uncertain(v, 16)
        model_b = RectangularModel.variance_uncertain(v, 32)
        model_c = RectangularModel.mean_uncertain(MeanInterval(0.0, 1.0), 1.0, 16)
        _, policy = sup_expectation_dp(model_a, phi, "sup", check_points=None)
        with pytest.raises(PolicyMismatch):
            policy_simulate(model_b, policy, phi, 10, SeedSpec(1, 0))
        with pytest.raises(PolicyMismatch):
            policy_simulate(model_c, policy, phi, 10, SeedSpec(1, 0))


class TestModelValidation:
    def test_innovation_law_must_be_standardized(self):
        bad_mean = DiscreteLaw(values=(0.0, 2.0), probs=(0.5, 0.5))
        with pytest.raises(InvalidParams):
            RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 10,
                                                innovation=bad_mean)
        bad_var = DiscreteLaw(values=(-2.0, 2.0), probs=(0.5, 0.5))
        with pytest.raises(InvalidParams):
            RectangularModel.mean_uncertain(MeanInterval(0.0, 1.0), 1.0, 10,
                                            innovation=bad_var)

    def test_three_point_innovation_accepted_and_checked(self):
        # zero-mean unit-variance three-point law
        law = DiscreteLaw(values=(-math.sqrt(2.0), 0.0, math.sqrt(2.0)),
                          probs=(0.25, 0.5, 0.25))
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0),
                                                    16, innovation=law)
        value, _ = sup_expectation_dp(model, named_test_function("gauss"),
                                      "sup", check_points=None)
        assert 0.0 < value < 1.0
        # worst atom is 2*sqrt(2) = 2.83: above sqrt(16*0.1) but not sqrt(16*0.6)
        assert lindeberg_condition_value(model, 16, 0.1) == pytest.approx(4.0)
        assert lindeberg_condition_value(model, 16, 0.6) == 0.0

    def test_kind_field_validation(self):
        with pytest.raises(InvalidParams):
            RectangularModel(kind="other", n=5)
        with pytest.raises(InvalidParams):
            RectangularModel.mean_uncertain(MeanInterval(0.0, 1.0), -1.0, 5)
