import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers_numpy import CountingNumpy
from nlclt.densities import (
    DensityParams,
    MeanInterval,
    VarianceInterval,
    cez_pdf,
    chen_epstein_pdf,
)
from nlclt.errors import InvalidParams, InvalidTheta, UnstableResolution
from nlclt.measure_dp import SNAP_REFINE_CAP, RectangularModel, _dp_grid
from nlclt.numerics import quad_integrate, std_normal_cdf_arr, std_normal_pdf
from nlclt import sublinear
from nlclt.sublinear import (
    CFL_SAFETY,
    GMean,
    GVariance,
    HjbProblem,
    Shape,
    SShapeSpec,
    TestFunction,
    _scheme,
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
        # 401 points on [-8, 8] give dt_max = 1.6e-3; 700 steps are stable.
        # The coarse march takes 175 steps, which 10 does not divide, so its
        # last step adds a 12th layer.
        grid = solve_g_heat(VarianceInterval(1.0, 1.0),
                            named_test_function("gauss_half"), space_points=401,
                            time_steps=700)
        assert grid.u0 == pytest.approx(ONE_OVER_SQRT2, abs=1e-4)
        assert len(grid.times) == 12

    @pytest.mark.parametrize("time_steps, layers", [
        (1000, 11),   # 10 divides the 250 coarse steps: the last is a stored one
        (1001, 12),   # otherwise (251) the last step adds a 12th layer
        (None, 12),   # the default 174 coarse CFL steps of this grid
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


class TestTwoGridExtrapolation:
    CASES = {
        "gauss_half": (lambda n: solve_g_heat(
            VarianceInterval(1.0, 1.0), named_test_function("gauss_half"), "sup", n),
            ONE_OVER_SQRT2, 12.0),
        "abs": (lambda n: solve_g_heat(
            VarianceInterval(1.0, 2.0), named_test_function("abs"), "sup", n),
            TWO_SQRT_2_PI, 12.0),
        "abs_inf": (lambda n: solve_g_heat(
            VarianceInterval(1.0, 2.0), named_test_function("abs"), "inf", n),
            SQRT_2_PI, 12.0),
        "neg_abs": (lambda n: solve_g_heat(
            VarianceInterval(1.0, 2.0), named_test_function("neg_abs"), "sup", n),
            -SQRT_2_PI, 12.0),
        "normal_cdf_sup": (lambda n: solve_g_expectation(
            MeanInterval(0.0, 0.5), named_test_function("normal_cdf"), "sup", n),
            PHI_HALF_SQRT2, 12.0),
        "gauss_sup": (lambda n: solve_g_expectation(
            MeanInterval(-0.5, 0.5), named_test_function("gauss"), "sup", n),
            INT_GAUSS_F_SUP, 12.0),
        # the S-shaped terminal's kink in the second derivative at its
        # junction leaves a slower term; measured 7.5x per halving
        "s_tanh": (lambda n: solve_g_heat(
            VarianceInterval(1.0, 2.0), make_s_shaped(tanh_s_spec(), "phibar"), "sup",
            n), 0.0, 6.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_falls_per_halving(self, case):
        # second order removed: about 16x per halving of dx (measured 16x)
        solve, target, least_ratio = self.CASES[case]
        errors = [abs(solve(n).u0 - target) for n in (501, 1001, 2001)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= least_ratio * fine, errors

    def test_richardson_gap_estimates_the_fine_error(self):
        grid = solve_g_heat(VarianceInterval(1.0, 2.0),
                            named_test_function("abs"))
        fine_error = TWO_SQRT_2_PI - (grid.u0 - grid.richardson_gap)
        assert abs(grid.richardson_gap - fine_error) <= 0.01 * abs(fine_error)
        # 4341 coarse steps on 1001 points, 4x as many on the 2001 reported
        assert grid.steps == 17364

    @pytest.mark.parametrize("space_points", [3, 4])
    def test_smallest_grids_have_a_coarse_partner(self, space_points):
        # a 2-point coarse grid, whose end values stay put; the bounds
        # cover the extrapolated layers, which may leave the terminal's range
        tf = named_test_function("normal_cdf")
        grid = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, "sup",
                                   space_points=space_points)
        assert grid.values.shape == (2, space_points)
        assert np.all(np.isfinite(grid.values))
        assert grid.min_seen == grid.values.min()
        assert grid.max_seen == grid.values.max()

    def test_large_drift_bounds_the_step_by_one_over_mu_squared(self):
        # |mu| * 2 * dx = 5.8 on the coarse grid: the central drift step is
        # stable only for mu^2 * dt <= 1, so each march takes 2778 coarse
        # steps (4x on the fine grid), not the 0.9 * 2 * dx / |mu| step
        mu = 50.0
        grid = solve_g_expectation(MeanInterval(0.0, mu),
                                   named_test_function("normal_cdf"), "sup")
        assert grid.steps == 4 * math.ceil(mu * mu / 0.9)
        assert abs(grid.u0 - 1.0) <= 1e-8
        assert grid.min_seen >= -1e-12
        assert grid.max_seen <= 1.0 + 1e-12
        closed_form = std_normal_cdf_arr((grid.x + mu) / math.sqrt(2.0))
        assert np.max(np.abs(grid.values[-1] - closed_form)) <= 1e-2

    def test_large_drift_raises_explicit_steps_to_one_over_mu_squared(self):
        # 1000 steps keep the diffusion's bound dx^2 = 3.4e-3 but not the
        # drift's 1 / mu^2 = 4e-4: the coarse march takes 2500 steps, not 250
        grid = solve_g_expectation(MeanInterval(0.0, 50.0),
                                   named_test_function("normal_cdf"), "sup",
                                   time_steps=1000)
        assert grid.steps == 4 * 2500
        assert abs(grid.u0 - 1.0) <= 1e-8
        assert grid.min_seen >= -1e-12
        assert grid.max_seen <= 1.0 + 1e-12

    @pytest.mark.parametrize("mu", [130.0, 1e6, 1e150])
    def test_drift_too_large_for_the_grid_is_refused(self, mu):
        # |mu| * 2 * dx > 32: 130 at the default grid is 34.8; MeanInterval
        # refuses a bound whose square overflows, such as 1e160
        with pytest.raises(UnstableResolution, match="increase space_points"):
            solve_g_expectation(MeanInterval(0.0, mu),
                                named_test_function("normal_cdf"), "sup")

    def test_tiny_drift_keeps_the_diffusion_bound(self):
        # mu * mu underflows to 0; the bound is still dx^2
        grid = solve_g_expectation(MeanInterval(0.0, 1e-170),
                                   named_test_function("normal_cdf"), "sup",
                                   space_points=401)
        assert grid.u0 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("space_points", [400, 401, 402])
    @pytest.mark.parametrize("kind", ["g_heat", "drift"])
    def test_end_values_stay_at_the_terminal(self, kind, space_points):
        # an even grid's last point has no coarse partner and keeps the
        # fine march's end value
        if kind == "g_heat":
            tf = make_s_shaped(tanh_s_spec(), "phibar")
            grid = solve_g_heat(VarianceInterval(1.0, 2.0), tf,
                                space_points=space_points)
        else:
            tf = named_test_function("normal_cdf")
            grid = solve_g_expectation(MeanInterval(-0.5, 0.5), tf, "sup",
                                       space_points)
        ends = tf(grid.x[[0, -1]])
        for layer in grid.values:
            assert np.array_equal(layer[[0, -1]], ends)


class TestStepDiagnostics:
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_dt_ratio_stays_within_the_bound(self, data):
        # past |mu| * dx = 1 the drift's bound is 1 / mu^2
        draw = data.draw
        space_points = draw(st.integers(5, 201))
        steps = draw(st.one_of(st.none(), st.integers(1, 20000)))
        terminal = named_test_function("normal_cdf")
        side = draw(st.sampled_from(["sup", "inf"]))
        try:
            if draw(st.booleans()):
                sigma_high = draw(st.floats(0.5, 2.5))
                v = VarianceInterval(draw(st.floats(0.5, sigma_high)), sigma_high)
                grid = solve_g_heat(v, terminal, side, space_points, steps)
            else:
                m = MeanInterval(*sorted(draw(st.floats(-10.0, 10.0))
                                         for _ in range(2)))
                grid = solve_g_expectation(m, terminal, side, space_points, steps)
        except UnstableResolution:
            return
        assert 0.0 < grid.dt_ratio <= (CFL_SAFETY if steps is None else 1.0)

    def test_default_dt_ratio_of_the_g_heat_march(self):
        # 401 points on [-16, 16]: dx = 0.08, so the fine bound is
        # dx^2 / 4 = 1.6e-3; the coarse march takes
        # ceil(1 / (0.9 * 6.4e-3)) = 174 steps and the fine one 696
        grid = solve_g_heat(VarianceInterval(1.0, 2.0),
                            named_test_function("gauss"), space_points=401)
        assert grid.steps == 696
        assert grid.dt_ratio == pytest.approx(1.0 / (696 * 1.6e-3), rel=1e-12)

    def test_smallest_accepted_count_nears_the_bound(self):
        # 401 points on [-8, 8]: dt_max = 1.6e-3, accepted from 625 steps,
        # of which the fine march takes 4 * ceil(625 / 4) = 628
        grid = solve_g_heat(VarianceInterval(1.0, 1.0),
                            named_test_function("gauss_half"), space_points=401,
                            time_steps=625)
        assert grid.dt_ratio == pytest.approx(1.0 / (628 * 1.6e-3), rel=1e-12)
        assert grid.dt_ratio <= 1.0


class TestOneScheme:
    """The G-heat and the drift march are the two faces of one scheme."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["gauss", "normal_cdf", "tanh"]),
           st.sampled_from(["sup", "inf"]), st.integers(5, 201))
    def test_unit_heat_is_the_zero_drift(self, name, side, space_points):
        # the corner sigma = 1, mu = 0 of both faces: the same march
        terminal = named_test_function(name)
        heat = solve_g_heat(VarianceInterval(1.0, 1.0), terminal, side, space_points)
        drift = solve_g_expectation(MeanInterval(0.0, 0.0), terminal, side,
                                    space_points)
        assert np.array_equal(heat.x, drift.x)
        assert np.array_equal(heat.times, drift.times)
        assert np.array_equal(heat.values, drift.values)
        assert (heat.u0, heat.min_seen, heat.max_seen) == \
            (drift.u0, drift.min_seen, drift.max_seen)
        assert (heat.richardson_gap, heat.dt_ratio, heat.steps) == \
            (drift.richardson_gap, drift.dt_ratio, drift.steps)

    @pytest.mark.parametrize("gen,ops", [
        (GVariance(VarianceInterval(1.0, 2.0)), 6),
        (GVariance(VarianceInterval(1.3, 1.3), side="inf"), 4),
        (GMean(MeanInterval(-0.5, 0.5)), 9),
        (GMean(MeanInterval(0.25, 0.25), side="inf"), 7),
        (GMean(MeanInterval(0.0, 0.0)), 4),
    ], ids=["g-heat", "degenerate", "drift", "one-drift", "zero-drift"])
    def test_array_operations_per_step(self, monkeypatch, gen, ops):
        counter = CountingNumpy()
        monkeypatch.setattr(sublinear, "np", counter)
        monkeypatch.setattr(sublinear, "side_extremum", lambda side: getattr(
            counter, "maximum" if side == "sup" else "minimum"))
        bind = _scheme(gen)[2](11, 0.1, 1e-3)
        u, out = np.linspace(0.0, 1.0, 11) ** 2, np.zeros(11)
        step = bind(u, out)
        counter.calls = 0
        step()
        assert counter.calls == ops
        # the views and coefficients are bound: a second call sets up nothing
        step()
        assert counter.calls == 2 * ops


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

    @pytest.mark.parametrize("name, interval, target", [
        ("abs", (1.0, 2.0), TWO_SQRT_2_PI),
        ("neg_abs", (1.0, 2.0), -SQRT_2_PI),
        ("gauss_half", (1.0, 1.0), ONE_OVER_SQRT2),
    ])
    def test_variance_error_falls_as_steps_grow(self, name, interval, target):
        # first order in 1/steps: about 4x smaller per 4x steps
        problem = HjbProblem(GVariance(VarianceInterval(*interval)),
                             named_test_function(name))
        errors = [abs(tree_value_oracle(problem, n) - target)
                  for n in (250, 1000, 4000)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5, errors

    @pytest.mark.parametrize("name, side, interval, target", [
        ("normal_cdf", "sup", (0.0, 0.5), PHI_HALF_SQRT2),
        ("gauss", "sup", (-0.5, 0.5), INT_GAUSS_F_SUP),
        ("gauss", "inf", (-0.5, 0.5), INT_GAUSS_F_INF),
    ])
    def test_mean_error_stays_small_as_steps_grow(self, name, side, interval,
                                                  target):
        problem = HjbProblem(GMean(MeanInterval(*interval), side=side),
                             named_test_function(name))
        for n in (250, 1000, 4000):
            assert abs(tree_value_oracle(problem, n) - target) <= 1e-3, n

    def test_snapping_refines_the_target_grid_a_bounded_amount(self):
        # one step of scales (1, 2), then (0.5, 1): moves of +-1 and +-2,
        # then +-0.5 and +-1, on a 3-point target over [-16, 16]
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1)
        x, h, offsets, _ = _dp_grid(model, 3, halfwidth=16.0)
        assert np.array_equal(offsets, np.round(offsets))
        assert h == 16.0 / SNAP_REFINE_CAP and len(x) == 33
        model = RectangularModel.variance_uncertain(VarianceInterval(0.5, 1.0), 1)
        x, h, offsets, _ = _dp_grid(model, 3, halfwidth=16.0)
        assert not np.array_equal(offsets, np.round(offsets))
        assert h == 16.0 and len(x) == 3

    def test_steps_floor(self):
        tf = named_test_function("gauss")
        with pytest.raises(InvalidParams):
            tree_value_oracle(HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf), 0)

    @pytest.mark.parametrize("grid_points", [-1, 0, 1, 2])
    def test_grid_points_floor(self, grid_points):
        tf = named_test_function("gauss")
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf)
        with pytest.raises(InvalidParams, match="grid_points"):
            tree_value_oracle(problem, 10, grid_points)

    def test_three_grid_points_run(self):
        tf = named_test_function("gauss")
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf)
        assert math.isfinite(tree_value_oracle(problem, 10, 3))

    @pytest.mark.parametrize("gen", [GVariance(VarianceInterval(1.0, 2.0)),
                                     GMean(MeanInterval(-0.5, 0.5), side="inf")])
    def test_move_spanning_the_grid_clamps_to_the_end_values(self, gen):
        # 11 points 0.02 apart: one step moves at least 25 cells, past both
        # ends, so every move reads an end value, gauss(+-0.1)
        problem = HjbProblem(gen, named_test_function("gauss"), domain_halfwidth=0.1)
        assert tree_value_oracle(problem, 1, 11) == pytest.approx(
            math.exp(-0.01), abs=1e-15)

    def test_move_just_inside_the_grid_runs(self):
        # 5 points 1.0 apart: moves of 1 and 2 cells, under the width of 4
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                             named_test_function("gauss"), domain_halfwidth=2.0)
        assert math.isfinite(tree_value_oracle(problem, 1, 5))
        # scales (1, 4): the 4-cell move from the middle clamps to the ends,
        # |x| = 2 either way, where the 1-cell move reads |x| = 1
        for side, want in (("sup", 2.0), ("inf", 1.0)):
            wide = HjbProblem(GVariance(VarianceInterval(1.0, 4.0), side=side),
                              named_test_function("abs"), domain_halfwidth=2.0)
            assert tree_value_oracle(wide, 1, 5) == want


class TestHjbProblem:
    @pytest.mark.parametrize("halfwidth", [-1.0, 0.0, -0.0, math.nan, math.inf,
                                           -math.inf])
    def test_bad_domain_halfwidth_is_rejected(self, halfwidth):
        tf = named_test_function("abs")
        with pytest.raises(InvalidParams, match="domain_halfwidth"):
            HjbProblem(GVariance(VarianceInterval(1.0, 2.0)), tf, halfwidth)
        with pytest.raises(InvalidParams, match="domain_halfwidth"):
            solve_g_heat(VarianceInterval(1.0, 2.0), tf, space_points=11,
                         domain_halfwidth=halfwidth)
        with pytest.raises(InvalidParams, match="domain_halfwidth"):
            solve_g_expectation(MeanInterval(-0.5, 0.5), named_test_function("gauss"),
                                "sup", space_points=11, domain_halfwidth=halfwidth)

    def test_unknown_generator_is_rejected(self):
        with pytest.raises(InvalidParams, match="unknown generator"):
            HjbProblem(VarianceInterval(1.0, 2.0), named_test_function("abs"))

    def test_positive_domain_halfwidth_is_kept(self):
        problem = HjbProblem(GVariance(VarianceInterval(1.0, 2.0)),
                             named_test_function("abs"), 3.5)
        assert problem.halfwidth() == 3.5


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
