"""Acceptance suite: one test per criterion, at the pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion together with its measured runtime.
"""
import math
import os
import time

import numpy as np
import pytest

from helpers_dp import lattice_tree_value
from nlclt.classical import (
    DiscreteLaw,
    IidModel,
    LaplaceParams,
    binomial_standardized_prob,
    laplace_approx,
    laplace_exact,
    lyapunov_statistic,
)
from nlclt.cli import main as cli_main
from nlclt.densities import (
    DensityParams,
    MeanInterval,
    VarianceInterval,
    cez_pdf,
    chen_epstein_pdf,
    count_local_maxima,
    density_normalization,
    emit_density_curve,
)
from nlclt.martingale import MdsModel, hall_convergence_check, mcleish_product_mean
from nlclt.measure_dp import RectangularModel, convergence_experiment, sup_expectation_dp
from nlclt.numerics import Grid1D, SeedSpec, std_normal_cdf, std_normal_pdf
from nlclt.sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    TestFunction,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
    tree_value_oracle,
)

# frozen 40-digit oracle values (pre-build)
SPIKE_AT_0 = 0.697796557401306029593532746901
BINORMAL_AT_0 = 0.0833154705876862983830627385676
EXACT_ATOM_100_50 = 0.07958923738717876149812705
ONE_OVER_SQRT2 = 0.7071067811865476
TWO_SQRT_2_PI = 1.5957691216057308
SQRT_2_PI = 0.7978845608028654
PHI_HALF_SQRT2 = 0.6381631950841184
INT_GAUSS_F_SUP = 0.7020778530770605
INT_GAUSS_F_INF = 0.4345870017235319

SEED = SeedSpec(42, 0)


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"PASS criterion {number:2d}: {label} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")


def s_shaped(envelope):
    return make_s_shaped(SShapeSpec(phi1=named_test_function("tanh"),
                                    c=0.0, theta=0.5), envelope)


def test_criterion_01_density_normalization():
    start = time.monotonic()
    for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        for b in (-1.0, 0.0, 1.0):
            for c in (-1.0, 0.0, 1.0):
                total = density_normalization("chen_epstein", DensityParams(a, b, c))
                assert abs(total - 1.0) <= 1e-6, f"chen_epstein({a},{b},{c})"
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            for c in (-1.0, 0.0, 1.0):
                total = density_normalization("cez", DensityParams(a, b, c))
                assert abs(total - 1.0) <= 1e-6, f"cez({a},{b},{c})"
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    report(1, "90-point density normalization within 1e-6", elapsed, 30)


def test_criterion_02_degeneracy_supnorm():
    start = time.monotonic()
    ys = np.linspace(-8.0, 8.0, 3201)
    for beta in (-1.0, 0.0, 1.0):
        for c in (-1.0, 0.0, 1.0):
            f = chen_epstein_pdf(DensityParams(0.0, beta, c), ys)
            assert np.max(np.abs(f - std_normal_pdf(ys - beta))) <= 1e-12
    for sigma in (0.5, 1.0, 2.0):
        for c in (-1.0, 0.0, 1.0):
            q = cez_pdf(DensityParams(sigma, sigma, c), ys)
            assert np.max(np.abs(q - std_normal_pdf(ys / sigma) / sigma)) <= 1e-12
    elapsed = time.monotonic() - start
    report(2, "degenerate densities match normal pdfs to 1e-12", elapsed, 30)


def test_criterion_03_spike_and_binormal_shapes():
    start = time.monotonic()
    spike = chen_epstein_pdf(DensityParams(-0.5, 0.0, 0.0), 0.0)
    assert abs(spike - SPIKE_AT_0) <= 1e-4
    assert spike > 0.3989
    binormal_peak = chen_epstein_pdf(DensityParams(1.0, 0.0, 0.0), 0.0)
    assert abs(binormal_peak - BINORMAL_AT_0) <= 1e-4
    curve = emit_density_curve(DensityParams(1.0, 0.0, 0.0), "chen_epstein",
                               Grid1D(-4.0, 4.0, 8001))
    assert count_local_maxima(curve) == 2
    elapsed = time.monotonic() - start
    report(3, "spike value 0.6978 and binormal double peak", elapsed, 30)


def test_criterion_04_classical_chain():
    start = time.monotonic()
    prob = binomial_standardized_prob(10_000, 0.5, -1.96, 1.96)
    target = std_normal_cdf(1.96) - std_normal_cdf(-1.96)
    assert abs(prob - target) <= 0.006
    lp = LaplaceParams(n=100, p=0.5, z=0.0, a=0.0)
    assert abs(laplace_approx(lp) - laplace_exact(lp)) <= 5e-4
    assert laplace_exact(lp) == pytest.approx(EXACT_ATOM_100_50, abs=1e-14)
    model = IidModel(DiscreteLaw.rademacher(), delta=1.0)
    for n in (100, 400, 10_000):
        assert lyapunov_statistic(model, n) == 1.0 / math.sqrt(n)
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    report(4, "binomial/Laplace/Lyapunov classical chain", elapsed, 10)


def test_criterion_05_martingale_chain():
    start = time.monotonic()
    model = MdsModel.iid_rademacher(100)
    for t in (0.5, 1.0, 2.0):
        est, se = mcleish_product_mean(model, t, 10_000, SEED)
        assert abs(est - 1.0) <= 3 * se, f"t={t}: |{est}-1| > 3*{se}"
    ks = hall_convergence_check([1.0, 2.0], [0.5, 0.5], 10_000, 100_000, SEED)
    assert ks <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    report(5, f"McLeish products and Hall mixture KS={ks:.4f}", elapsed, 60)


def _acceptance_problems():
    """The six-problem solver cross-validation set."""
    v11 = VarianceInterval(1.0, 1.0)
    v12 = VarianceInterval(1.0, 2.0)
    m05 = MeanInterval(0.0, 0.5)
    msym = MeanInterval(-0.5, 0.5)
    return [
        ("degenerate", GVariance(v11), named_test_function("gauss_half"),
         ONE_OVER_SQRT2, 1e-3),
        ("convex", GVariance(v12), named_test_function("abs"),
         TWO_SQRT_2_PI, 2e-3),
        ("concave", GVariance(v12), named_test_function("neg_abs"),
         -SQRT_2_PI, 2e-3),
        ("increasing", GMean(m05, side="sup"), named_test_function("normal_cdf"),
         PHI_HALF_SQRT2, 2e-3),
        ("symmetric-decreasing", GMean(msym, side="sup"),
         named_test_function("gauss"), INT_GAUSS_F_SUP, 1e-2),
        ("s-shaped", GVariance(v12), s_shaped("phibar"), 0.0, 1e-2),
    ]


def test_criterion_06_solver_cross_validation():
    start = time.monotonic()
    for name, gen, terminal, target, tol in _acceptance_problems():
        if isinstance(gen, GVariance):
            pde = solve_g_heat(gen.interval, terminal).u0
        else:
            pde = solve_g_expectation(gen.interval, terminal, gen.side).u0
        tree = tree_value_oracle(HjbProblem(gen, terminal), 2000)
        assert abs(pde - tree) <= 1e-2, f"{name}: pde={pde} tree={tree}"
        assert abs(pde - tree) <= 1e-3, f"{name}: pde={pde} tree={tree}"
        assert abs(pde - target) <= tol, f"{name}: pde={pde} target={target}"
        # the two-grid extrapolation: measured at most 5.2e-8 (s-shaped)
        assert abs(pde - target) <= 1e-6, f"{name}: pde={pde} target={target}"
    elapsed = time.monotonic() - start
    assert elapsed <= 180.0
    report(6, "six-problem PDE vs lattice oracle within 1e-3", elapsed, 180)


def test_criterion_07_sublinearity_axioms():
    start = time.monotonic()
    v = VarianceInterval(1.0, 2.0)

    def bounded(rule, limits):
        return TestFunction(rule=rule, growth="bounded_with_limits", limits=limits)

    def value(tf):
        return solve_g_heat(v, tf, space_points=1201).u0

    phi = bounded(lambda y: np.exp(-y * y), (0.0, 0.0))
    psi = bounded(np.tanh, (-1.0, 1.0))
    dominating = bounded(lambda y: np.exp(-y * y) + 0.25 / (1 + y * y), (0.0, 0.0))
    v_phi, v_psi = value(phi), value(psi)
    assert v_phi <= value(dominating) + 1e-9                       # monotone
    for c in (-1.0, 0.0, 2.0):
        const = bounded(lambda y, c=c: np.full_like(y, c), (c, c))
        assert abs(value(const) - c) <= 1e-9                       # constants
    both = bounded(lambda y: np.exp(-y * y) + np.tanh(y), (-1.0, 1.0))
    assert value(both) <= v_phi + v_psi + 1e-6                     # subadditive
    for lam in (0.0, 0.5, 2.0):
        scaled = bounded(lambda y, lam=lam: lam * np.tanh(y), (-lam, lam))
        assert abs(value(scaled) - lam * v_psi) <= 1e-6 * (1 + lam)  # homogeneous
    elapsed = time.monotonic() - start
    report(7, "monotone / constants / subadditive / homogeneous", elapsed, 60)


def test_criterion_08_nonlinear_clt_convergence():
    start = time.monotonic()
    schedule = [125, 250, 500, 1000, 2000]
    gauss = named_test_function("gauss")
    experiments = [
        ("mean sup", RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1),
         gauss, "sup", INT_GAUSS_F_SUP),
        ("mean inf", RectangularModel.mean_uncertain(MeanInterval(-0.5, 0.5), 1.0, 1),
         gauss, "inf", INT_GAUSS_F_INF),
        ("variance sup", RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1),
         s_shaped("phibar"), "sup", 0.0),
        ("variance inf", RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), 1),
         s_shaped("phi"), "inf", 0.0),
    ]
    for name, model, phi, side, expected_limit in experiments:
        rows = convergence_experiment(model, phi, schedule, side)
        limits = {row[2] for row in rows}
        assert len(limits) == 1
        assert abs(rows[0][2] - expected_limit) <= 1e-6, name
        gaps = {row[0]: row[3] for row in rows}
        assert gaps[2000] <= 0.02, f"{name}: gap(2000)={gaps[2000]}"
        assert gaps[2000] < gaps[125], f"{name}: no shrinkage {gaps}"
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0
    report(8, "four DP experiments converge to their limits", elapsed, 600)


def test_criterion_09_brute_force_equivalence():
    start = time.monotonic()
    phi = named_test_function("gauss")
    for n in range(1, 13):
        model = RectangularModel.variance_uncertain(VarianceInterval(1.0, 2.0), n)
        dp, _ = sup_expectation_dp(model, phi, "sup", check_points=None)
        brute = lattice_tree_value(n, phi, "sup")
        assert abs(dp - brute) <= 1e-12, f"n={n}: dp={dp!r} brute={brute!r}"
    elapsed = time.monotonic() - start
    report(9, "DP equals exhaustive enumeration to 1e-12, n<=12", elapsed, 60)


# every CLI pathway exercised by the acceptance runs, sized for speed
ACCEPTANCE_CONFIGS = [
    ["density", "--family", "cez", "--alpha", "1", "--beta", "2", "--c", "0",
     "--grid=-6:6:601"],
    ["density", "--family", "chen-epstein", "--alpha", "-0.5", "--beta", "0",
     "--c", "0", "--grid=-4:4:801"],
    ["figures", "--set", "paper"],
    ["solve", "--problem", "g-heat", "--sigma-low", "1", "--sigma-high", "2",
     "--terminal", "gauss", "--space-points", "801", "--tree-steps", "400"],
    ["solve", "--problem", "g-expectation", "--mu-low", "-0.5", "--mu-high",
     "0.5", "--side", "sup", "--terminal", "gauss", "--space-points", "801"],
    ["converge", "--model", "mean", "--mu-low", "-0.5", "--mu-high", "0.5",
     "--sigma", "1", "--phi", "gauss", "--side", "sup", "--schedule", "25,100"],
    ["check", "--chain", "classical", "--law", "rademacher", "--ns", "100,400"],
    ["check", "--chain", "martingale", "--mds", "hall", "--etas", "1,2",
     "--probs", "0.5,0.5", "--ns", "50", "--reps", "500", "--seed", "7"],
    ["check", "--chain", "lindeberg", "--model", "variance", "--sigma-low",
     "1", "--sigma-high", "2", "--ns", "1,100"],
    ["simulate", "--target", "clt", "--n", "1000", "--reps", "1000",
     "--seed", "42"],
    ["simulate", "--target", "hall", "--etas", "1,2", "--probs", "0.5,0.5",
     "--kn", "400", "--reps", "2000", "--seed", "42"],
    ["simulate", "--target", "mixture", "--atoms", "1,2", "--probs",
     "0.5,0.5", "--reps", "2000", "--seed", "42"],
    ["simulate", "--target", "policy", "--model", "variance", "--sigma-low",
     "1", "--sigma-high", "2", "--n", "25", "--phi", "gauss", "--side",
     "sup", "--reps", "2000", "--seed", "42"],
]


def _run_config_tree(argv, root):
    """Run one acceptance config into its own directory; return file bytes."""
    os.makedirs(root, exist_ok=True)
    out = os.path.join(root, "out")
    if argv[0] == "figures":
        code = cli_main(argv + ["--out", out])
        assert code == 0
        return {name: open(os.path.join(out, name), "rb").read()
                for name in sorted(os.listdir(out))}
    code = cli_main(argv + ["--out", out + ".csv"])
    assert code == 0
    with open(out + ".csv", "rb") as handle:
        return {"out.csv": handle.read()}


def test_criterion_10_byte_identical_reruns(tmp_path):
    start = time.monotonic()
    for i, argv in enumerate(ACCEPTANCE_CONFIGS):
        first = _run_config_tree(list(argv), str(tmp_path / f"run{i}_a"))
        second = _run_config_tree(list(argv), str(tmp_path / f"run{i}_b"))
        assert first == second, f"config {argv} is not byte-reproducible"
    elapsed = time.monotonic() - start
    report(10, f"{len(ACCEPTANCE_CONFIGS)} configs byte-identical on rerun",
           elapsed, 120)
