import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers_dp import (
    assert_no_child_left,
    enumerate_adapted_policies_value,
    forked,
    integer_lattice_value,
    lattice_tree_value,
    lattice_tree_value_split,
    lattice_tree_value_two_layer,
    mean_tree_value,
    standardized_bernoulli,
)
from helpers_numpy import CountingNumpy
from test_split import ForkProtocol
from nlclt import measure_dp, split, sublinear
from nlclt.classical import DiscreteLaw
from nlclt.densities import DensityParams, MeanInterval, VarianceInterval, chen_epstein_pdf
from nlclt.errors import GridTooCoarse, InvalidParams, NonConvergence, PolicyMismatch
from nlclt.measure_dp import (
    COARSE_GRID_POINTS,
    DEFAULT_GRID_POINTS,
    RectangularModel,
    _backward_induction,
    _dp_grid,
    _interpolates,
    _lattice_induction,
    _lattice_stencil,
    _refinement_grids,
    lindeberg_condition_value,
    convergence_experiment,
    policy_simulate,
    sup_expectation_dp,
)
from nlclt.numerics import SeedSpec, quad_integrate, std_normal_pdf
from nlclt.sublinear import (
    SShapeSpec,
    make_s_shaped,
    named_test_function,
)

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

    @pytest.mark.parametrize("points", [{"target_points": 1},
                                        {"target_points": 2},
                                        {"check_points": 1}])
    def test_grid_points_floor(self, points):
        # a grid of fewer than 3 target points has no spacing to refine
        # (1 point divided by zero)
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 10)
        with pytest.raises(InvalidParams, match="grid_points"):
            sup_expectation_dp(model, named_test_function("gauss"), "sup",
                               **points)


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


class TestMeanBruteForce:
    """The mean model's counterpart of criterion 9: on a lattice that
    _interpolates calls exact, the DP is the game over its control set."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("side", ["sup", "inf"])
    @pytest.mark.parametrize("law", [None, standardized_bernoulli(1.0 / 3.0)],
                             ids=["rademacher", "bernoulli-1/3"])
    @pytest.mark.parametrize("payoff", ["gauss", "tanh"])
    def test_matches_the_game_tree(self, n, side, law, payoff):
        innovation = law or DiscreteLaw.rademacher()
        probe = RectangularModel.mean_uncertain(MeanInterval(0.0, 0.0), 1.0, n,
                                                innovation)
        moves = probe.mean_step_scale() * np.asarray(innovation.values)
        # a target spacing just above the least move makes it the spacing,
        # and drifts of whole cells, -1 to 2 per step, keep every move on
        # the lattice
        h = float(np.min(np.abs(moves)))
        model = replace(probe, mean_interval=MeanInterval(-n * h, 2 * n * h))
        points = int(2 * model.halfwidth() / h) + 1
        grid = _dp_grid(model, points)
        assert grid[1] == pytest.approx(h, rel=1e-12)
        assert not _interpolates(grid)
        assert not _interpolates(_dp_grid(model, COARSE_GRID_POINTS))
        phi = named_test_function(payoff)
        dp, _ = sup_expectation_dp(model, phi, side, target_points=points)
        controls = model.controls(grid[1])
        assert len(controls) == 4
        brute = mean_tree_value(n, phi, controls / n, moves,
                                innovation.probs, side)
        assert abs(dp - brute) <= 1e-12


RESOLUTION_REFUSED = (r"^the DP lattice's spacing \S+ is more than 2 times the "
                      r"step's smallest innovation move \S+ at n = \d+ "
                      r"\(\d+ grid points\)$")


class TestLatticeResolution:
    """A lattice whose cell dwarfs the step's innovation move is refused:
    mean [-1e6, 1e6] at n = 1 spaced its 4001 points 1000 apart for a step
    of +-2, and its root read 0.998 for a game worth 0.5."""

    WIDE = RectangularModel.mean_uncertain(MeanInterval(-1e6, 1e6), 1.0, 1)

    def test_the_wide_mean_interval_is_refused(self):
        message = (r"^the DP lattice's spacing 1000 is more than 2 times the "
                   r"step's smallest innovation move 2 at n = 1 "
                   r"\(4001 grid points\)$")
        phi = named_test_function("gauss")
        with pytest.raises(GridTooCoarse, match=message):
            sup_expectation_dp(self.WIDE, phi, "sup")
        with pytest.raises(GridTooCoarse, match=message):
            convergence_experiment(self.WIDE, phi, [1], "sup")

    @pytest.mark.parametrize("offsets, drift, refused", [
        ([[-0.5, 0.5]], [0.0], False),
        ([[-0.49, 0.49]], [0.0], True),
        # the drift is no move of the innovation: these move +-0.25 cells
        ([[0.25, 0.75]], [0.5], True),
        ([[9.5, 10.5]], [10.0], False),
        # the widest control counts: a variance model's tiny sigma_low
        ([[-1e-4, 1e-4], [-3.0, 3.0]], [0.0, 0.0], False),
        # an atom at 0 is no move
        ([[-1.0, 0.0, 1.0]], [0.0], False),
        ([[-0.1, 0.0, 0.1]], [0.0], True),
    ])
    def test_the_threshold_in_cells(self, offsets, drift, refused):
        assert measure_dp.MIN_MOVE_CELLS == 0.5
        grid = (np.zeros(5), 2.0, np.array(offsets), np.array(drift))
        if refused:
            with pytest.raises(GridTooCoarse, match=RESOLUTION_REFUSED):
                measure_dp._check_resolution(3, grid)
        else:
            measure_dp._check_resolution(3, grid)

    def test_a_check_lattice_on_the_fine_spacing_is_refused(self):
        # mean [-963.1, 963.1] at n = 4: both lattices snap to the move,
        # 0.75, and the bounds' drifts read between two cells, so the check
        # lattice is the fine one and its 1e-3 gate would compare a root
        # with itself.  The lattice's root is 5.8e-3 under the game's value,
        # max over real c of E[phi(c + k eps)] (the last drift undoes the
        # earlier moves)
        model = RectangularModel.mean_uncertain(MeanInterval(-963.1, 963.1),
                                                1.0, 4)
        phi = named_test_function("gauss")
        message = (r"^the DP lattice interpolates at n = 4, and its "
                   r"2001-point check lattice snaps to the same spacing 0\.75 "
                   r"as the 4001-point one, so the refinement check cannot "
                   r"see the interpolation error$")
        with pytest.raises(GridTooCoarse, match=message):
            sup_expectation_dp(model, phi, "sup")
        with pytest.raises(GridTooCoarse, match=message):
            convergence_experiment(model, phi, [4], "sup")
        root, _ = sup_expectation_dp(model, phi, "sup", check_points=None)
        k = model.mean_step_scale()
        c = np.linspace(-2.0, 2.0, 400001)
        game = float(np.max((phi(c - k) + phi(c + k)) / 2))
        assert game - root > 5e-3

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.floats(math.log10(50.0), 6.0))
    def test_a_wide_mean_root_is_the_game_s_value(self, n, log_width):
        # From mu = +-50 on, the last step's drift can undo every earlier
        # move, so the game over the lattice's whole-cell drifts is worth
        # the best one-step value max over c on the lattice of
        # E[phi(c + k eps)], brute force.  A lattice that cannot resolve k
        # is refused instead: a Rademacher lattice snaps to whole moves or
        # leaves them under 1/16 of a cell
        width = 10.0 ** log_width
        model = RectangularModel.mean_uncertain(MeanInterval(-width, width),
                                                1.0, n)
        phi = named_test_function("gauss")
        try:
            root, policy = sup_expectation_dp(model, phi, "sup")
        except GridTooCoarse:
            # unresolved, or its interpolated bounds fail the refinement gate
            return
        h = policy.h
        c = h * np.arange(-math.ceil(8.0 / h), math.ceil(8.0 / h) + 1)
        moves = model.mean_step_scale() * np.array([-1.0, 1.0])
        assert abs(root - mean_tree_value(1, phi, c, moves, (0.5, 0.5), "sup")) \
            <= 1e-12


def irrational_law():
    """A two-atom law whose moves no spacing makes whole cells:
    (1 - p)/p = sqrt(2) - 1."""
    p = 1.0 / math.sqrt(2.0)
    s = math.sqrt(p * (1.0 - p))
    return DiscreteLaw(values=(-p / s, (1.0 - p) / s), probs=(1.0 - p, p))


class TestLatticeStencil:
    """The groups each criterion-8 problem gets: the mean model's 3
    controls (its bounds and the zero drift, the one whole-cell drift
    between them) share one innovation expectation, each variance scale
    is its own group read at zero drift."""

    @staticmethod
    def stencil(model, points):
        x, _, offsets, drift = _dp_grid(model, points)
        return _lattice_stencil(offsets, drift, model.innovation.probs, len(x))

    @pytest.mark.parametrize("points", [DEFAULT_GRID_POINTS, COARSE_GRID_POINTS])
    @pytest.mark.parametrize("n", [125, 250, 500, 1000, 2000])
    def test_criterion_8_problems(self, n, points):
        mean = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, n)
        _, h, _, _ = _dp_grid(mean, points)
        assert mean.controls(h).tolist() == [-0.5, 0.0, 0.5]
        groups = self.stencil(mean, points)
        assert len(groups) == 1
        terms, _, members = groups[0]
        assert [q for _, q in terms] == [0.5, 0.5]
        assert [c for c, _, _ in members] == [0, 1, 2]
        assert members[1] == (1, 0, None)
        var = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), n)
        groups = self.stencil(var, points)
        assert [(reach, members) for _, reach, members in groups] == \
            [(0, [(0, 0, None)]), (0, [(1, 0, None)])]
        for terms, _, _ in groups:
            assert [q for _, q in terms] == [0.5, 0.5]

    def test_irrational_law_makes_one_weighted_group_per_control(self):
        # (1 - p)/p = sqrt(2) - 1: no spacing makes both atoms whole cells,
        # so the bounds split both atoms' offsets between two cells, and
        # each inner control of the exact set puts one atom on a whole cell
        # and splits the other.  Each control reads exactly one group, whose
        # cells are its atoms' cells less its whole drift
        law = irrational_law()
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0,
                                                125, innovation=law)
        _, h, offsets, drift = _dp_grid(model, DEFAULT_GRID_POINTS)
        assert len(model.controls(h)) == len(offsets) == 5
        groups = self.stencil(model, DEFAULT_GRID_POINTS)
        read_by = [c for _, _, members in groups for c, _, _ in members]
        assert sorted(read_by) == list(range(5))
        terms_of = {c: terms for terms, _, members in groups for c, _, _ in members}
        wholes = []
        for c, (row, d) in enumerate(zip(offsets, drift)):
            f = math.floor(d)
            whole = [abs(off - round(off)) < 1e-9 for off in row]
            wholes.append(sum(whole))
            per_atom = [[round(off) - f] if w else
                        [math.floor(off) - f, math.floor(off) + 1 - f]
                        for off, w in zip(row, whole)]
            terms = terms_of[c]
            assert [m for m, _ in terms] == per_atom[0] + per_atom[1]
            # each atom's weights sum to its probability
            weights = [q for _, q in terms]
            first = len(per_atom[0])
            assert sum(weights[:first]) == pytest.approx(law.probs[0], abs=1e-15)
            assert sum(weights[first:]) == pytest.approx(law.probs[1], abs=1e-15)
        assert wholes == [0, 1, 1, 1, 0]

    def test_irrational_law_controls_a_whole_cell_apart_share_a_group(self):
        # every control reads its group at its whole drift, so controls 1
        # and 3, at -0.355 and 0.645 cells, share one: 5 controls, 4 groups
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0,
                                                125, innovation=irrational_law())
        groups = self.stencil(model, DEFAULT_GRID_POINTS)
        assert [(reach, members) for _, reach, members in groups] == [
            (1, [(0, -1, None)]), (1, [(1, -1, None), (3, 0, None)]),
            (0, [(2, 0, None)]), (0, [(4, 0, None)])]

    def test_wide_split_mean_set_stays_small(self):
        # mean [-1e6, 1e6] at n = 1: 4000 split controls, read at their
        # whole drifts, share 17 expectations
        model = RectangularModel.mean_uncertain(MeanInterval(-1e6, 1e6), 1.0, 1)
        assert len(self.stencil(model, DEFAULT_GRID_POINTS)) == 17
        tracemalloc.start()
        try:
            root, _, _, _ = _backward_induction(model, named_test_function("gauss"),
                                                "sup", DEFAULT_GRID_POINTS, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert root == 0.998000007999968
        assert peak < 16 * 2**20

    def test_interpolated_controls_share_two_scratch_rows(self):
        # 65 controls on one group, 64 of them read between two cells: each
        # row is folded into the running best as soon as it is formed, so
        # the kernel holds two scratch rows, not one row per control
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 125)
        controls = np.linspace(-0.5, 0.5, 65)
        x, _, offsets, drift = _dp_grid(model, DEFAULT_GRID_POINTS, controls)
        groups = _lattice_stencil(offsets, drift, model.innovation.probs, len(x))
        assert len(groups) == 1
        assert sum(w is not None for _, f, w in groups[0][2]) == 64
        tracemalloc.start()
        try:
            root, _, _, _ = _backward_induction(model, named_test_function("gauss"),
                                                "sup", DEFAULT_GRID_POINTS, False,
                                                controls=controls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert root == 0.6621544950439797
        assert peak < 0.5 * 2**20


class TestKernelOperationsPerStep:
    """A step of the kernel makes only the ufunc calls its stencil asks for:
    2 margin refreshes, 1 product per distinct weight q, the term adds
    (terms - 1 per group), 3 per interpolated control, and controls - 1
    picks (or 1 copy of a lone control's row)."""

    @pytest.mark.parametrize("model,ops", [
        # two groups of weights (0.5, 0.5): 2 + 1 + 2 + 0 + 1
        (RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 125), 6),
        # one group (0.5, 0.5) read at the bounds' drifts, interpolated, and
        # at zero drift: 2 + 1 + 1 + 2 * 3 + 2
        (RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 125), 12),
        # one control splitting both atoms between two cells, 4 distinct
        # weights: 2 + 4 + 3 + 0 + 1 copy
        (RectangularModel.mean_uncertain(MeanInterval(0.3, 0.3), 1.0, 125,
                                         innovation=irrational_law()), 10),
    ], ids=["variance", "criterion-8-mean", "split-path"])
    def test_ufunc_calls_per_step(self, monkeypatch, model, ops):
        x, _, offsets, drift = _dp_grid(model, 201)
        probs = model.innovation.probs
        terminal = named_test_function("gauss")(x)
        counter = CountingNumpy()
        monkeypatch.setattr(measure_dp, "np", counter)
        monkeypatch.setattr(measure_dp, "side_extremum", lambda side: getattr(
            counter, "maximum" if side == "sup" else "minimum"))
        calls = []
        for steps in (1, 2, 3):
            counter.calls = 0
            _lattice_induction(terminal, offsets, drift, probs, steps, "sup",
                               record_policy=False)
            calls.append(counter.calls)
        # the set-up is the same whatever the step count, and each step
        # repeats the same calls
        assert calls[1] - calls[0] == calls[2] - calls[1] == ops


@st.composite
def integer_games(draw):
    """(probs, drifts, moves, steps, side, payoff name): controls with
    integer drifts, each taking one of two rows of integer moves."""
    probs = draw(st.sampled_from([(0.5, 0.5), (0.25, 0.5, 0.25), (0.3, 0.7)]))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=len(probs),
                          max_size=len(probs))) for _ in range(2)]
    count = draw(st.integers(1, 4))
    drifts = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
    moves = [rows[draw(st.integers(0, 1))] for _ in range(count)]
    return (probs, drifts, moves, draw(st.integers(1, 8)),
            draw(st.sampled_from(["sup", "inf"])),
            draw(st.sampled_from(["gauss", "normal_cdf", "tanh"])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(integer_games())
def test_two_level_kernel_matches_an_integer_lattice_recursion(game):
    probs, drifts, moves, steps, side, name = game
    reach = max(1, max(abs(d + m) for d, row in zip(drifts, moves) for m in row))
    half = steps * reach
    terminal = named_test_function(name)(np.arange(-half, half + 1) * 0.2)
    drift = np.array(drifts, dtype=float)
    offsets = drift[:, None] + np.array(moves, dtype=float)
    root, _ = _lattice_induction(terminal, offsets, drift, probs, steps, side,
                                 record_policy=False)
    want = integer_lattice_value(lambda s: float(terminal[s + half]), drifts,
                                 moves, probs, steps, side)
    assert abs(root - want) <= 1e-12


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


@st.composite
def mean_games(draw):
    """(model, payoff, side, points): a mean model on a Rademacher lattice,
    whose inner controls are whole-cell drifts, or on a standardized
    bernoulli whose two moves no spacing makes whole (the split path)."""
    lo, hi = sorted(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    law = draw(st.one_of(st.just(DiscreteLaw.rademacher()),
                         st.floats(0.05, 0.95).map(standardized_bernoulli)))
    model = RectangularModel.mean_uncertain(
        MeanInterval(lo, hi), draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        draw(st.integers(1, 40)), innovation=law)
    return (model, named_test_function(draw(st.sampled_from(["gauss", "normal_cdf",
                                                             "tanh"]))),
            draw(st.sampled_from(["sup", "inf"])), draw(st.integers(3, 201)))


class TestExactControlSet:
    """The kernel's row is linear in mu between the points of the model's
    control set, so no mu of the interval beats the set."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mean_games(), st.integers(2, 60))
    def test_brute_force_never_beats_the_exact_set(self, game, dense):
        model, phi, side, points = game
        _, h, _, _ = _dp_grid(model, points)
        exact = model.controls(h)
        m = model.mean_interval
        brute = np.union1d(exact, np.linspace(m.mu_low, m.mu_high, dense))
        root, _, _, _ = _backward_induction(model, phi, side, points, False)
        wide, _, _, _ = _backward_induction(model, phi, side, points, False,
                                            controls=brute)
        assert abs(wide - root) <= 1e-12

    def test_inner_points_are_the_whole_cell_drifts(self):
        # n = 25: the bounds drift 4.5 cells, so the set is the bounds and
        # the drifts -4 .. 4 cells
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 25)
        _, h, _, drift = _dp_grid(model, DEFAULT_GRID_POINTS)
        assert drift.tolist() == pytest.approx([-4.5] + list(range(-4, 5)) + [4.5],
                                               abs=1e-9)
        assert len(model.controls(h)) == 11

    def test_degenerate_interval_is_one_control(self):
        model = RectangularModel.mean_uncertain(MeanInterval(0.3, 0.3), 1.0, 1)
        assert model.controls(1e-3).tolist() == [0.3]

    @pytest.mark.parametrize("n,dtype", [(1, np.int16), (200, np.int8)])
    def test_policy_table_widens_past_int8(self, n, dtype):
        # n = 1 drifts +-111.25 cells: 225 controls, past int8's 127
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, n)
        phi = named_test_function("gauss")
        value, policy = sup_expectation_dp(model, phi, "sup", check_points=None)
        assert policy.controls.dtype == dtype
        est, se = policy_simulate(model, policy, phi, 20_000, SeedSpec(3, 0))
        assert abs(est - value) <= 3 * se


class TestBangBangAdequacy:
    # extreme controls are provably optimal exactly for the (envelope, side)
    # pairings the explicit limit covers; the unmatched pairings admit
    # interior optima of order 1e-5 at finite n
    @pytest.mark.parametrize("envelope,side", [("phibar", "sup"), ("phi", "inf")])
    def test_enriched_control_grid_changes_nothing(self, envelope, side):
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
        assert lindeberg_condition_value(model, 0.1) == 0.0

    def test_full_indicator_picks_worst_scale(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1)
        assert lindeberg_condition_value(model, 1e-4) == 4.0

    def test_mean_uncertain_support_bound(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-1.0, 1.0), 1.0, 100)
        # |mu| + 1 <= 2 < sqrt(100 * 0.05)
        assert lindeberg_condition_value(model, 0.05) == 0.0

    def test_mean_sup_inside_the_interval(self):
        # t = 0.95: both atoms are on for mu in (-0.05, 0.05), where the
        # mass is 1 + mu^2, so the sup 1.0025 is a limit at mu -> +-0.05;
        # the bounds give 0.605 and 0.72
        model = RectangularModel.mean_uncertain(MeanInterval(-0.1, 0.2), 1.0, 1)
        assert lindeberg_condition_value(model, 0.9025) == pytest.approx(1.0025,
                                                                         abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([DiscreteLaw.rademacher(), standardized_bernoulli(0.3)]),
           st.floats(0.5, 2.0), st.floats(0.4, 1.2), st.integers(1, 5),
           st.integers(0, 1), st.sampled_from([-1.0, 1.0]),
           st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_a_dense_grid_approaches_it_from_below(self, law, sigma, ratio, n,
                                                    atom, sign, below, above):
        # an interval about a cut, where an atom's |X| reaches t = ratio *
        # sigma: the mass jumps there and often peaks
        t = ratio * sigma
        cut = sign * t - sigma * law.values[atom]
        lo, hi = cut - below, cut + above
        model = RectangularModel.mean_uncertain(MeanInterval(lo, hi), sigma, n,
                                                innovation=law)
        eps = t * t / n
        worst = lindeberg_condition_value(model, eps)
        xs = np.linspace(lo, hi, 2001)[:, None] + sigma * np.array(law.values)
        dense = np.where(np.abs(xs) > math.sqrt(n * eps), xs * xs, 0.0) \
            @ np.array(law.probs)
        assert dense.max() <= worst + 1e-12
        # within one grid step of every one-sided limit, as X^2 moves at
        # most 2|X| per unit of mu
        step = (hi - lo) / 2000
        assert worst <= dense.max() + 2 * np.abs(xs).max() * step + 1e-12

    def test_mean_uncertain_hand_value(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-1.0, 1.0), 1.0, 1)
        # threshold sqrt(0.5); worst control mu = +-1 gives atom at +-2
        assert lindeberg_condition_value(model, 0.5) == pytest.approx(2.0)


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

    @pytest.mark.parametrize("side", ["sup", "inf"])
    @pytest.mark.parametrize("intervals", [
        [(-w, w) for w in (0.5, 1.0, 2.0, 5.0, 30.0, 100.0, 1e3, 1e4, 1e6)],
        [(0.2, h) for h in (0.3, 1.0, 5.0, 50.0, 500.0, 5e3)],
        [(-h, 0.2) for h in (0.3, 1.0, 5.0, 50.0, 500.0, 5e3)],
    ])
    def test_explicit_mean_limit_is_monotone_in_the_interval(self, side,
                                                            intervals):
        # a wider interval gives the adversary more controls: the sup
        # cannot fall and the inf cannot rise (up to the quadrature's 1e-9)
        phi = named_test_function("gauss")
        values = [measure_dp._explicit_limit(
            RectangularModel.mean_uncertain(MeanInterval(lo, hi), 1.0, 1),
            phi, side) for lo, hi in intervals]
        sign = 1.0 if side == "sup" else -1.0
        assert all(sign * (b - a) >= -2e-9 for a, b in zip(values, values[1:]))
        if side == "sup" and intervals[0][0] == -intervals[0][1]:
            # mu = -x is in reach: the sup tends to phi's maximum, 1
            assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_variance_uses_pde_limit(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 1.0), 1)
        rows = convergence_experiment(model, named_test_function("gauss"),
                                      [25, 100], "sup")
        assert rows[0][2] == pytest.approx(ONE_OVER_SQRT3, abs=2e-3)
        assert rows[1][3] < rows[0][3]

    def test_grid_too_coarse_raises(self, monkeypatch):
        # the values-only path keeps the refinement check of the policy
        # path, and names the n that fails (n = 2 passes) and the two
        # lattices' sizes
        monkeypatch.setattr(measure_dp, "DEFAULT_GRID_POINTS", 41)
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1)
        fine = len(_dp_grid(replace(model, n=200), 41)[0])
        coarse = len(_dp_grid(replace(model, n=200), COARSE_GRID_POINTS)[0])
        with pytest.raises(GridTooCoarse, match=(
                rf"^grid refinement changes the DP value at n = 200 by "
                rf"\S+ > 0\.001 \({fine} against {coarse} grid points\)$")):
            convergence_experiment(model, named_test_function("gauss"),
                                   [2, 200], "sup")

    @pytest.mark.parametrize("model", [
        RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1),
        RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1),
    ], ids=["mean", "variance"])
    def test_unbounded_payoff_is_refused_before_the_limit(self, monkeypatch,
                                                          model):
        # abs takes the explicit mean density or the G-heat solve; neither
        # may run for a payoff the DP refuses
        def limit(*args, **kwargs):
            raise AssertionError("the limit was computed")

        monkeypatch.setattr(sublinear, "solve_g_heat", limit)
        monkeypatch.setattr(measure_dp, "density_integral", limit)
        with pytest.raises(InvalidParams,
                           match="^the adversarial DP needs a bounded payoff$"):
            convergence_experiment(model, named_test_function("abs"), [10], "sup")

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


def mean_and_variance(side):
    """The criterion-8 models and payoffs of the given side."""
    return [
        (RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1),
         named_test_function("gauss")),
        (RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1),
         s_shaped("phibar" if side == "sup" else "phi")),
    ]


@pytest.fixture
def serial(monkeypatch):
    """convergence_experiment with every solve in this process."""
    monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)


class TestForkedSolves(ForkProtocol):
    """convergence_experiment's solves split over one forked child; the
    fork protocol comes from ForkProtocol (test_split.py)."""

    hot = (measure_dp, "_solve")
    threshold = (measure_dp, "FORK_MIN_WORK")

    @staticmethod
    def converge(case, schedule):
        model, phi = mean_and_variance("sup")[case]
        return lambda: np.array(
            convergence_experiment(model, phi, schedule, "sup")).tobytes()

    def case(self):
        return self.converge(0, [200, 10]), None

    def below(self):
        # the benchmark's warm-up schedule: 120 thousand cell-steps
        return self.converge(1, [10, 20]), None

    @pytest.mark.parametrize("side", ["sup", "inf"])
    @pytest.mark.parametrize("case", [0, 1], ids=["mean", "variance"])
    @pytest.mark.parametrize("schedule", [[40, 10, 40, 25], [60, 5, 30]])
    def test_rows_keep_their_bits(self, monkeypatch, forked, side, case,
                                  schedule):
        model, phi = mean_and_variance(side)[case]
        rows = convergence_experiment(model, phi, schedule, side)
        assert len(forked) == 1
        assert_no_child_left()
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)
        ref = convergence_experiment(model, phi, schedule, side)
        assert len(forked) == 1
        assert [n for n, *_ in rows] == schedule
        assert np.array(rows).tobytes() == np.array(ref).tobytes()

    def test_grid_too_coarse_message_is_the_serial_one(self, monkeypatch,
                                                       forked):
        monkeypatch.setattr(measure_dp, "DEFAULT_GRID_POINTS", 41)
        model, phi = mean_and_variance("sup")[0]
        with pytest.raises(GridTooCoarse) as got:
            convergence_experiment(model, phi, [2, 200], "sup")
        assert len(forked) == 1
        assert_no_child_left()
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)
        with pytest.raises(GridTooCoarse) as ref:
            convergence_experiment(model, phi, [2, 200], "sup")
        assert str(got.value) == str(ref.value)
        assert "at n = 200 " in str(got.value)

    def test_child_exception_is_raised_by_the_parent(self, monkeypatch,
                                                     forked, tmp_path):
        # results cross the pipe by pickle, but exceptions never do: the
        # parent solves n = 10 again and raises its own NonConvergence
        log = tmp_path / "raised"
        solve = measure_dp._solve

        def failing(model, phi, side, grid, record_policy=False):
            if model.n == 10:
                with open(log, "a", encoding="ascii") as handle:
                    handle.write(f"{os.getpid()}\n")
                raise NonConvergence("no root at n = 10", 0.5, 1e-3, 7)
            return solve(model, phi, side, grid, record_policy)

        monkeypatch.setattr(measure_dp, "_solve", failing)
        model, phi = mean_and_variance("sup")[0]
        # the 200-step solves outweigh the 10-step ones, which go to the child
        with pytest.raises(NonConvergence, match="no root at n = 10") as got:
            convergence_experiment(model, phi, [200, 10], "sup")
        assert (got.value.estimate, got.value.err_estimate,
                got.value.evaluations) == (0.5, 1e-3, 7)
        assert len(forked) == 1
        assert_no_child_left()
        assert log.read_text().split() == [str(forked[0]), str(os.getpid())]

    def test_failed_child_runs_every_solve_here_in_order(self, monkeypatch,
                                                        forked):
        # the child's half is not merged with the parent's: after the child
        # fails, the parent solves the whole schedule again, in order
        parent, calls = os.getpid(), []
        solve = measure_dp._solve

        def child_fails(model, phi, side, grid, record_policy=False):
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            calls.append((model.n, len(grid[0])))
            return solve(model, phi, side, grid, record_policy)

        monkeypatch.setattr(measure_dp, "_solve", child_fails)
        model, phi = mean_and_variance("sup")[0]
        rows = convergence_experiment(model, phi, [200, 10], "sup")
        assert len(forked) == 1
        assert_no_child_left()
        every = [(n, len(_dp_grid(replace(model, n=n), points)[0]))
                 for n in (200, 10)
                 for points in (DEFAULT_GRID_POINTS, COARSE_GRID_POINTS)]
        # the 200-step fine solve is the parent's own half
        assert calls == every[:1] + every
        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)
        ref = convergence_experiment(model, phi, [200, 10], "sup")
        assert np.array(rows).tobytes() == np.array(ref).tobytes()

    def test_serial_path_solves_in_schedule_order(self, monkeypatch):
        # with [10, 200] the halves' order (200 fine here; 200 coarse, then
        # the 10-step solves in the child) is not the schedule's
        calls, solve = [], measure_dp._solve

        def recorded(model, phi, side, grid, record_policy=False):
            calls.append((model.n, len(grid[0])))
            return solve(model, phi, side, grid, record_policy)

        monkeypatch.setattr(measure_dp, "FORK_MIN_WORK", math.inf)
        monkeypatch.setattr(measure_dp, "_solve", recorded)
        model, phi = mean_and_variance("sup")[0]
        convergence_experiment(model, phi, [10, 200], "sup")
        assert calls == [(n, len(_dp_grid(replace(model, n=n), points)[0]))
                         for n in (10, 200)
                         for points in (DEFAULT_GRID_POINTS, COARSE_GRID_POINTS)]

    def test_work_is_the_lighter_half(self, monkeypatch, forked):
        # one exact lattice per n: the 200-step solve here, the 10-step one
        # (10 x its lattice's points) in the child
        model, _ = mean_and_variance("sup")[1]
        grids = [_refinement_grids(replace(model, n=n), DEFAULT_GRID_POINTS,
                                   COARSE_GRID_POINTS) for n in (200, 10)]
        assert [len(lattices) for lattices in grids] == [1, 1]
        self.assert_forks_from(monkeypatch, forked, 10 * len(grids[1][0][0]),
                               (self.converge(1, [200, 10]), None))


@pytest.mark.fork
class TestExactLatticeSkip:
    """The refinement re-solve runs only where a lattice interpolates."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(q=st.integers(1, 8), p=st.integers(1, 24),
           law=st.sampled_from([None, (1, 2), (1, 3), (2, 3), (1, 4), (3, 5)]),
           n=st.integers(1, 20), side=st.sampled_from(["sup", "inf"]),
           payoff=st.sampled_from(["gauss", "tanh"]))
    def test_exact_lattices_agree_to_rounding(self, q, p, law, n, side, payoff):
        # the kernel reads the same whole-cell moves of phi on both lattices;
        # only the abscissae j * h round differently on the two spacings
        innovation = None if law is None else \
            standardized_bernoulli(law[0] / law[1])
        model = RectangularModel.variance_uncertain(
            VarianceInterval(1.0, 1.0 + p / q), n, innovation)
        fine = _dp_grid(model, DEFAULT_GRID_POINTS)
        coarse = _dp_grid(model, COARSE_GRID_POINTS)
        assert not _interpolates(fine) and not _interpolates(coarse)
        phi = named_test_function(payoff)
        roots = [measure_dp._solve(model, phi, side, grid)[0]
                 for grid in (fine, coarse)]
        assert abs(roots[0] - roots[1]) <= 1e-14

    @pytest.mark.parametrize("side", ["sup", "inf"])
    @pytest.mark.parametrize("n", [125, 250])
    def test_criterion_8_variance_roots_are_bit_identical(self, side, n):
        model, phi = mean_and_variance(side)[1]
        work = replace(model, n=n)
        fine, coarse = [measure_dp._solve(work, phi, side,
                                          _dp_grid(work, points))[0]
                        for points in (DEFAULT_GRID_POINTS, COARSE_GRID_POINTS)]
        assert np.float64(fine).tobytes() == np.float64(coarse).tobytes()

    @pytest.mark.parametrize("case, solves", [(0, 2), (1, 1)],
                             ids=["mean", "variance"])
    def test_solves_per_root(self, monkeypatch, serial, case, solves):
        calls = []
        solve = measure_dp._solve

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return solve(*args, **kwargs)

        monkeypatch.setattr(measure_dp, "_solve", counting)
        model, phi = mean_and_variance("sup")[case]
        sup_expectation_dp(replace(model, n=40), phi, "sup")
        assert calls == [40] * solves
        calls.clear()
        convergence_experiment(model, phi, [10, 20], "sup")
        assert calls == [10] * solves + [20] * solves

    def test_irrational_law_interpolates(self):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 7,
                                                    irrational_law())
        assert _interpolates(_dp_grid(model, DEFAULT_GRID_POINTS))


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

    def test_control_sets_of_another_length_mismatch(self):
        # [-0.5, 0.5] at n = 10 has 25 controls, [-0.2, 0.2] has 11
        phi = named_test_function("gauss")
        wide = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 10)
        narrow = RectangularModel.mean_uncertain(MeanInterval(-0.2, 0.2), 1.0, 10)
        _, policy = sup_expectation_dp(wide, phi, "sup", check_points=None)
        with pytest.raises(PolicyMismatch):
            policy_simulate(narrow, policy, phi, 10, SeedSpec(1, 0))

    def test_nearly_equal_control_sets_mismatch(self):
        # both sets have 13 controls; the top one is 0.5 against 0.500002,
        # which np.allclose took as equal
        phi = named_test_function("gauss")
        recorded = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 20)
        other = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.500002), 1.0, 20)
        _, policy = sup_expectation_dp(recorded, phi, "sup", check_points=None)
        assert len(policy.control_values) == len(other.controls(policy.h)) == 13
        with pytest.raises(PolicyMismatch, match="control set differs"):
            policy_simulate(other, policy, phi, 1000, SeedSpec(1, 0))


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

    @pytest.mark.parametrize("values", [(-1.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_innovation_is_rejected(self, values):
        # a NaN or inf atom used to pass the mean and variance comparisons
        with pytest.raises(InvalidParams, match="finite"):
            RectangularModel.variance_uncertain(
                VarianceInterval(1.0, 2.0), 10,
                innovation=DiscreteLaw(values=values, probs=(0.5, 0.5)))

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
        assert lindeberg_condition_value(model, 0.1) == pytest.approx(4.0)
        assert lindeberg_condition_value(model, 0.6) == 0.0

    def test_zero_sigma_is_the_bare_drift_lattice(self):
        model = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 0.0, 7)
        assert model.mean_step_scale() == 1.0 / math.sqrt(7)
        # n = 1: the step is mu +- 1, and the sup takes mu = 0.5 on the
        # increasing payoff
        one = RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 0.0, 1)
        value, _ = sup_expectation_dp(one, named_test_function("clip_linear"),
                                      "sup", check_points=None)
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("sigma", [-1.0, -1e-300, math.nan, math.inf])
    def test_negative_or_non_finite_sigma_is_rejected(self, sigma):
        # an infinite sigma would reach the grid snapping as Fraction(nan)
        with pytest.raises(InvalidParams, match="sigma"):
            RectangularModel.mean_uncertain(MeanInterval(0.0, 1.0), sigma, 5)

    def test_kind_field_validation(self):
        with pytest.raises(InvalidParams):
            RectangularModel(kind="other", n=5)
        with pytest.raises(InvalidParams):
            RectangularModel.mean_uncertain(MeanInterval(0.0, 1.0), -1.0, 5)
