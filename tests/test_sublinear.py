import math

import numpy as np
import pytest

from nlclt.densities import (
    DensityParams,
    MeanInterval,
    VarianceInterval,
    cez_pdf,
    chen_epstein_pdf,
)
from nlclt.errors import InvalidParams, InvalidTheta, UnstableResolution
from nlclt.numerics import quad_integrate, std_normal_pdf
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    Shape,
    SShapeSpec,
    TestFunction,
    compute_G,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
    tree_value_oracle,
)

# frozen 40-digit quadrature oracles (pre-build)
INT_GAUSS_F_SUP = 0.7020778530770605      # int exp(-y^2) f^{-0.5,0,0}
INT_GAUSS_F_INF = 0.4345870017235319      # int exp(-y^2) f^{+0.5,0,0}
ONE_OVER_SQRT2 = 0.7071067811865476
TWO_SQRT_2_PI = 1.5957691216057308
PHI_HALF_SQRT2 = 0.6381631950841184
SQRT_2_PI = 0.7978845608028654

FAST = dict(space_points=1201)


def tanh_s_spec(theta=0.5, c=0.0):
    return SShapeSpec(phi1=named_test_function("tanh"), c=c, theta=theta)


class TestComputeG:
    def test_values(self):
        v = VarianceInterval(1.0, 2.0)
        assert compute_G(0.0, v) == 0.0
        assert compute_G(2.0, v) == 4.0
        assert compute_G(-2.0, v) == -1.0


class TestSShapes:
    def test_theta_one_is_point_reflection(self):
        f = make_s_shaped(tanh_s_spec(theta=1.0), "phi")
        xs = np.linspace(0.01, 5.0, 100)
        # point reflection about (c, phi1(c)) = (0, 0)
        assert np.allclose(f(-xs), -f(xs), atol=1e-14)

    def test_continuity_at_junction(self):
        for envelope in ("phi", "phibar"):
            f = make_s_shaped(tanh_s_spec(theta=0.5, c=0.3), envelope)
            assert f(0.3) == pytest.approx(math.tanh(0.3), abs=1e-14)
            assert f(0.3 - 1e-12) == pytest.approx(f(0.3 + 1e-12), abs=1e-10)

    @pytest.mark.parametrize("envelope", ["phi", "phibar"])
    def test_c1_junction_by_central_differences(self, envelope):
        f = make_s_shaped(tanh_s_spec(theta=0.5), envelope)
        h = 1e-6
        left = (f(0.0) - f(-h)) / h
        right = (f(h) - f(0.0)) / h
        # both one-sided slopes equal phi1'(0) = 1
        assert left == pytest.approx(1.0, abs=1e-5)
        assert right == pytest.approx(1.0, abs=1e-5)
        assert abs(left - right) <= 1e-5

    def test_left_branch_formulas(self):
        theta = 0.5
        phi = make_s_shaped(tanh_s_spec(theta=theta), "phi")
        phibar = make_s_shaped(tanh_s_spec(theta=theta), "phibar")
        xs = np.linspace(-4.0, -0.1, 50)
        assert np.allclose(phi(xs), -theta * np.tanh(-xs / theta), atol=1e-14)
        assert np.allclose(phibar(xs), -(1 / theta) * np.tanh(-theta * xs), atol=1e-14)

    def test_invalid_theta(self):
        with pytest.raises(InvalidTheta):
            SShapeSpec(phi1=named_test_function("tanh"), c=0.0, theta=0.0)
        with pytest.raises(InvalidTheta):
            SShapeSpec(phi1=named_test_function("tanh"), c=0.0, theta=1.5)

    def test_limits_metadata(self):
        f = make_s_shaped(tanh_s_spec(theta=0.5), "phibar")
        assert f.limits == (-2.0, 1.0)
        assert f.s_shape.envelope == "phibar"
        assert f.audit() == []


class TestGHeat:
    def test_degenerate_gaussian_payoff(self):
        grid = solve_g_heat(VarianceInterval(1.0, 1.0),
                            named_test_function("gauss_half"), **FAST)
        assert grid.u0 == pytest.approx(ONE_OVER_SQRT2, abs=1e-3)

    def test_convex_linear_growth_payoff(self):
        grid = solve_g_heat(VarianceInterval(1.0, 2.0),
                            named_test_function("abs"), space_points=2001)
        assert grid.u0 == pytest.approx(TWO_SQRT_2_PI, abs=2e-3)

    def test_degenerate_matches_classical_heat(self):
        sigma = 1.5
        tf = named_test_function("gauss")
        grid = solve_g_heat(VarianceInterval(sigma, sigma), tf, **FAST)
        classical = quad_integrate(
            lambda y: tf(sigma * y) * std_normal_pdf(y), -9.0, 9.0,
            abs_tol=1e-10).value
        assert grid.u0 == pytest.approx(classical, abs=1e-3)

    def test_unstable_resolution_raises(self):
        with pytest.raises(UnstableResolution):
            solve_g_heat(VarianceInterval(1.0, 2.0),
                         named_test_function("gauss"), space_points=1001,
                         time_steps=100)

    def test_maximum_principle_tracked_globally(self):
        tf = named_test_function("gauss")
        grid = solve_g_heat(VarianceInterval(1.0, 2.0), tf, **FAST)
        assert grid.min_seen >= 0.0 - 1e-12
        assert grid.max_seen <= 1.0 + 1e-12
        assert np.all(grid.values >= grid.min_seen - 1e-15)
        assert np.all(grid.values <= grid.max_seen + 1e-15)

    def test_stable_explicit_time_steps(self):
        # 401 points on [-8, 8] give dt_max = 1.6e-3; 700 steps are stable
        grid = solve_g_heat(VarianceInterval(1.0, 1.0),
                            named_test_function("gauss_half"), space_points=401,
                            time_steps=700)
        assert grid.u0 == pytest.approx(ONE_OVER_SQRT2, abs=1e-4)
        assert len(grid.times) == 11

    @pytest.mark.parametrize("time_steps, layers", [
        (1000, 11),   # 10 divides the step count: the last step is a stored one
        (1001, 12),   # otherwise the last step adds a 12th layer
        (None, 12),   # the default 1563 CFL steps of this grid
    ])
    def test_snapshot_layers(self, time_steps, layers):
        grid = solve_g_heat(VarianceInterval(1.0, 2.0),
                            named_test_function("gauss"), space_points=401,
                            time_steps=time_steps)
        assert grid.values.shape == (layers, 401)
        assert len(grid.times) == layers
        assert grid.times[0] == 1.0
        assert grid.times[-1] == 0.0
        assert np.all(np.diff(grid.times) < 0)

    @pytest.mark.parametrize("kwargs", [
        dict(space_points=1), dict(space_points=2),
        dict(time_steps=0), dict(time_steps=-5),
    ])
    def test_bad_resolution_rejected(self, kwargs):
        with pytest.raises(InvalidParams):
            solve_g_heat(VarianceInterval(1.0, 2.0),
                         named_test_function("gauss"), **kwargs)

    def test_value_grid_rows(self):
        grid = solve_g_heat(VarianceInterval(1.0, 1.0),
                            named_test_function("gauss"), space_points=101,
                            domain_halfwidth=4.0)
        rows = list(grid.rows())
        assert len(rows) == len(grid.times) * 101
        assert rows[0][0] == 1.0
        assert rows[-1][0] == 0.0


class TestGExpectation:
    def test_degenerate_interval_is_classical(self):
        tf = named_test_function("gauss")
        grid = solve_g_expectation(MeanInterval(0.0, 0.0), tf, "sup", **FAST)
        classical = 1.0 / math.sqrt(3.0)  # int exp(-y^2) pdf(y) dy
        assert grid.u0 == pytest.approx(classical, abs=1e-3)

    def test_increasing_payoff_constant_drift(self):
        grid = solve_g_expectation(MeanInterval(0.0, 0.5),
                                   named_test_function("normal_cdf"), "sup",
                                   **FAST)
        assert grid.u0 == pytest.approx(PHI_HALF_SQRT2, abs=2e-3)

    def test_symmetric_decreasing_matches_explicit_density(self):
        tf = named_test_function("gauss")
        sup = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, "sup", **FAST)
        inf = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, "inf", **FAST)
        assert sup.u0 == pytest.approx(INT_GAUSS_F_SUP, abs=1e-2)
        assert inf.u0 == pytest.approx(INT_GAUSS_F_INF, abs=1e-2)

    def test_rejects_linear_growth_terminal(self):
        with pytest.raises(InvalidParams):
            solve_g_expectation(MeanInterval(0.0, 0.5),
                                named_test_function("abs"), "sup")

    def test_unstable_resolution_raises(self):
        with pytest.raises(UnstableResolution):
            solve_g_expectation(MeanInterval(-0.5, 0.5),
                                named_test_function("gauss"),
                                "sup", space_points=2001, time_steps=1000)

    def test_stable_explicit_time_steps(self):
        # 401 points on [-8.5, 8.5] give dt_max = 1.8e-3; 600 steps are stable
        grid = solve_g_expectation(MeanInterval(0.0, 0.5),
                                   named_test_function("normal_cdf"), "sup",
                                   space_points=401, time_steps=600)
        assert grid.u0 == pytest.approx(PHI_HALF_SQRT2, abs=2e-4)
        assert len(grid.times) == 11

    @pytest.mark.parametrize("side", ["sup", "inf"])
    def test_maximum_principle_tracked_globally(self, side):
        tf = named_test_function("gauss")
        grid = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, side, **FAST)
        assert grid.min_seen >= 0.0 - 1e-12
        assert grid.max_seen <= 1.0 + 1e-12
        assert np.all(grid.values >= grid.min_seen)
        assert np.all(grid.values <= grid.max_seen)

    @pytest.mark.xfail(strict=True, reason=(
        "the one-sided end differences are downwind where the drift points "
        "out of the domain, so the end values leave the terminal's range"))
    @pytest.mark.parametrize("side", ["sup", "inf"])
    @pytest.mark.parametrize("name", ["normal_cdf", "tanh"])
    def test_maximum_principle_at_the_ends(self, name, side):
        tf = named_test_function(name)
        low, high = tf.limits
        grid = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, side, **FAST)
        assert grid.min_seen >= low - 1e-12
        assert grid.max_seen <= high + 1e-12

    @pytest.mark.parametrize("kwargs", [
        dict(space_points=1), dict(space_points=2),
        dict(time_steps=0), dict(time_steps=-5),
    ])
    def test_bad_resolution_rejected(self, kwargs):
        with pytest.raises(InvalidParams):
            solve_g_expectation(MeanInterval(-0.5, 0.5),
                                named_test_function("gauss"), "sup", **kwargs)

    def test_sup_dominates_inf(self):
        for name in ("gauss", "normal_cdf", "tanh", "clip_linear"):
            tf = named_test_function(name)
            m = MeanInterval(-0.3, 0.4)
            up = solve_g_expectation(m, tf, "sup", space_points=801).u0
            lo = solve_g_expectation(m, tf, "inf", space_points=801).u0
            assert up >= lo - 1e-9


class TestTreeOracle:
    def test_one_step_hand_computation(self):
        tf = TestFunction(rule=lambda y: np.minimum(y * y, 100.0),
                          growth="bounded_with_limits", limits=(100.0, 100.0))
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf)
        assert tree_value_oracle(problem, 1) == pytest.approx(4.0, abs=1e-12)

    def test_degenerate_tree_matches_heat_value(self):
        tf = named_test_function("gauss")
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 1.0)), tf)
        tree = tree_value_oracle(problem, 2000)
        pde = solve_g_heat(VarianceInterval(1.0, 1.0), tf, **FAST)
        assert tree == pytest.approx(pde.u0, abs=1e-2)

    def test_mean_degenerate_drift_recovers_mu(self):
        mu = 0.3
        tf = named_test_function("clip_linear")
        problem = HjbProblem(GMean(MeanInterval(mu, mu)), tf)
        assert tree_value_oracle(problem, 2000) == pytest.approx(mu, abs=1e-3)

    def test_cross_validation_variance_sup(self):
        tf = make_s_shaped(tanh_s_spec(), "phibar")
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf)
        tree = tree_value_oracle(problem, 2000)
        pde = solve_g_heat(VarianceInterval(1.0, 2.0), tf, **FAST)
        assert abs(tree - pde.u0) <= 1e-2

    def test_cross_validation_mean_sup(self):
        tf = named_test_function("gauss")
        problem = HjbProblem(GMean(MeanInterval(-0.5, 0.5), side="sup"), tf)
        tree = tree_value_oracle(problem, 2000)
        pde = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, "sup", **FAST)
        assert abs(tree - pde.u0) <= 1e-2

    def test_steps_floor(self):
        tf = named_test_function("gauss")
        with pytest.raises(InvalidParams):
            tree_value_oracle(HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf), 0)


class TestSublinearityAxioms:
    V = VarianceInterval(1.0, 2.0)

    def value(self, tf):
        return solve_g_heat(self.V, tf, space_points=801).u0

    @staticmethod
    def bounded(rule, limits):
        return TestFunction(rule=rule, growth="bounded_with_limits", limits=limits)

    def test_monotone(self):
        phi = self.bounded(lambda y: np.exp(-y * y), (0.0, 0.0))
        psi = self.bounded(lambda y: np.exp(-y * y) + 0.2 / (1.0 + y * y), (0.0, 0.0))
        assert self.value(phi) <= self.value(psi) + 1e-9

    def test_preserves_constants(self):
        for c in (-2.0, 0.0, 3.5):
            const = self.bounded(lambda y, c=c: np.full_like(y, c), (c, c))
            assert abs(self.value(const) - c) <= 1e-9

    def test_subadditive(self):
        phi = self.bounded(lambda y: np.exp(-y * y), (0.0, 0.0))
        psi = self.bounded(np.tanh, (-1.0, 1.0))
        both = self.bounded(lambda y: np.exp(-y * y) + np.tanh(y), (-1.0, 1.0))
        assert self.value(both) <= self.value(phi) + self.value(psi) + 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_positively_homogeneous(self, lam):
        phi = self.bounded(np.tanh, (-1.0, 1.0))
        scaled = self.bounded(lambda y: lam * np.tanh(y), (-lam, lam))
        assert abs(self.value(scaled) - lam * self.value(phi)) <= 1e-6 * (1 + lam)


class TestExplicitDensityConsistency:
    def test_variance_sup_phibar_vs_cez_integral(self):
        tf = make_s_shaped(tanh_s_spec(), "phibar")
        pde = solve_g_heat(VarianceInterval(1.0, 2.0), tf, **FAST)
        target = quad_integrate(
            lambda y: tf(y) * cez_pdf(DensityParams(1.0, 2.0, 0.0), y),
            -math.inf, math.inf, abs_tol=1e-10).value
        assert target == pytest.approx(0.0, abs=1e-9)
        assert abs(pde.u0 - target) <= 1e-2

    def test_variance_inf_phi_vs_cez_integral_by_duality(self):
        tf = make_s_shaped(tanh_s_spec(), "phi")
        neg = TestFunction(rule=lambda y: -tf.rule(y), growth=tf.growth,
                           limits=(-tf.limits[0], -tf.limits[1]))
        lower = -solve_g_heat(VarianceInterval(1.0, 2.0), neg, **FAST).u0
        target = quad_integrate(
            lambda y: tf(y) * cez_pdf(DensityParams(2.0, 1.0, 0.0), y),
            -math.inf, math.inf, abs_tol=1e-10).value
        assert target == pytest.approx(0.0, abs=1e-9)
        assert abs(lower - target) <= 1e-2

    def test_mean_sup_vs_chen_epstein_integral(self):
        tf = named_test_function("gauss")
        pde = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, "sup", **FAST)
        target = quad_integrate(
            lambda y: tf(y) * chen_epstein_pdf(DensityParams(-0.5, 0.0, 0.0), y),
            -math.inf, math.inf, abs_tol=1e-10).value
        assert target == pytest.approx(INT_GAUSS_F_SUP, abs=1e-9)
        assert abs(pde.u0 - target) <= 1e-2


def test_named_function_audits_pass():
    for name in ("gauss", "gauss_half", "normal_cdf", "abs", "neg_abs",
                 "tanh", "clip_linear"):
        assert named_test_function(name).audit() == []


def test_test_function_audit_flags_bad_declarations():
    bad_limits = TestFunction(rule=np.tanh, growth="bounded_with_limits",
                              limits=(0.0, 0.5))
    assert len(bad_limits.audit()) == 2
    bad_symmetry = TestFunction(rule=lambda y: y, growth="linear_growth",
                                shape=Shape(center=0.0, symmetric=True))
    assert bad_symmetry.audit() == ["declared symmetry fails on the audit grid"]
