"""Workload generator: one fixed batch of operations ("ops") per workload.

Each workload does most of its work in one of the three routes to the
nonlinear limits:

- ``pde-oracle``: the criterion-6 problems through ``nlclt solve`` with the
  lattice oracle (explicit PDE marches and ``tree_value_oracle``);
- ``dp-converge``: the criterion-8 experiments through ``nlclt converge``
  plus the criterion-9 exact enumeration (adversarial backward induction);
- ``density-mc``: explicit densities, the vectorised normal functions,
  seeded sampling and the martingale chain checks.

The workload seed picks Monte Carlo seeds and picks parameters from fixed
menus whose entries all have exact targets.  Index 0 of every menu, and
the Monte Carlo seeds of the acceptance suite, form the default seed's
plan, so ``DEFAULT_SEED`` reproduces the acceptance-suite problem sets.
Menus leave out entries that would move the workload's accuracy metrics
or change an op's cost (bar a few percent from ``mu`` of ``normal_cdf``):
the accuracy metrics are set by fixed anchor problems (the
concave ``-|x|`` solve, the criterion-8 experiments, the policy replays and
Laplace's approximation) that every seed runs unchanged.

Every op returns a list of checks ``(label, kind, value, tol)``; a check
passes when ``value <= tol``.  ``kind`` is ``err`` for |result - exact
target|, ``gap`` for the disagreement of two independent routes, and
``bound`` for any other pinned condition (Monte Carlo tolerances, shape
counts).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Timed work calls through the module attributes, so a tracer that wraps
# the package's functions sees it; checks use the names bound here, so
# they stay out of the trace.
from nlclt import classical, cli, densities, measure_dp, numerics
from nlclt.classical import LaplaceParams
from nlclt.densities import (
    DensityParams,
    VarianceInterval,
    count_local_maxima,
)
from nlclt.measure_dp import RectangularModel
from nlclt.numerics import Grid1D, std_normal_pdf
from nlclt.sublinear import named_test_function

DEFAULT_SEED = 0

# frozen oracle values, as pinned by the acceptance suite
SPIKE_AT_0 = 0.697796557401306029593532746901
BINORMAL_AT_0 = 0.0833154705876862983830627385676
EXACT_ATOM_100_50 = 0.07958923738717876149812705
INT_GAUSS_F_SUP = 0.7020778530770605
INT_GAUSS_F_INF = 0.4345870017235319
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

PDE_TREE_GATE = 1e-2      # criterion 6: |PDE u0 - lattice oracle|
DP_GAP_GATE = 0.02        # criterion 8: gap at the largest n
# Policy replay at n = 200 has no acceptance tolerance; the criterion-8
# ladder gives 0.040 at n = 125, so 0.05 bounds the DP gap at n = 200.
POLICY_GAP_GATE = 0.05
# Monte Carlo gates are in standard errors.  The acceptance suite uses 3
# at one fixed seed; any seed may be drawn here, so 4 keeps the chance of
# a false alarm below 1e-4 per check.
MC_SIGMAS = 4.0

# ---------------------------------------------------------------------------
# seed menus (index 0 = acceptance value)
# ---------------------------------------------------------------------------

# gauss_half on the degenerate interval [s, s]: 1/sqrt(1+s^2)
MENU_DEGENERATE_SIGMA = (1.0, 0.75, 1.25, 1.5)
# |x| on [lo, hi]: hi*sqrt(2/pi).  Self-similar to [1, 2], so its error and
# oracle gap stay below the -|x| anchor's.
MENU_CONVEX_INTERVAL = ((1.0, 2.0), (0.75, 1.5), (1.25, 2.5), (1.5, 2.0))
# -|x| on [1, 2]: -sqrt(2/pi).  One entry: it is the anchor that sets
# max_abs_err and xcheck_gap of pde-oracle.
MENU_CONCAVE_INTERVAL = ((1.0, 2.0),)
# normal_cdf with mean interval [0, mu], sup side: Phi(mu/sqrt 2)
MENU_NCDF_MU = (0.5, 0.4, 0.6, 0.3)
# S-shaped tanh (phibar envelope, theta = lo/hi) centred at 0: 0
MENU_S_INTERVAL = ((1.0, 2.0), (0.75, 1.5), (1.0, 1.5), (1.5, 2.0))
# variance-model DP with rational scale ratios against exact enumeration
MENU_ENUM_UNITS = ((1, 2), (1, 3), (2, 3), (3, 4))
MENU_ENUM_SIDE = ("sup", "inf")
# density curves (alpha, beta, c), checked by their mass
MENU_CE_PARAMS = ((-0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, -0.5, 0.5),
                  (-1.0, 0.5, -0.5))
MENU_CEZ_PARAMS = ((1.0, 2.0, 0.0), (2.0, 1.0, 0.0), (0.5, 1.0, 0.5),
                   (1.5, 1.0, -0.5))
# Monte Carlo seeds of the acceptance suite: simulate runs and the
# martingale chain check
ACCEPTANCE_MC_SEED = 42
ACCEPTANCE_CHAIN_SEED = 7


@dataclass
class Plan:
    """Every seed-dependent choice of one workload seed."""

    degenerate_sigma: float
    convex_interval: tuple
    concave_interval: tuple
    ncdf_mu: float
    s_interval: tuple
    enum_units: tuple
    enum_side: str
    ce_params: tuple
    cez_params: tuple
    mc_seed: int
    chain_seed: int
    points_seed: int


def make_plan(seed: int) -> Plan:
    """Deterministic per seed; the default seed takes every index 0."""
    if seed == DEFAULT_SEED:
        return Plan(MENU_DEGENERATE_SIGMA[0], MENU_CONVEX_INTERVAL[0],
                    MENU_CONCAVE_INTERVAL[0], MENU_NCDF_MU[0],
                    MENU_S_INTERVAL[0], MENU_ENUM_UNITS[0], MENU_ENUM_SIDE[0],
                    MENU_CE_PARAMS[0], MENU_CEZ_PARAMS[0],
                    ACCEPTANCE_MC_SEED, ACCEPTANCE_CHAIN_SEED, 0)
    rng = random.Random(seed)
    return Plan(rng.choice(MENU_DEGENERATE_SIGMA), rng.choice(MENU_CONVEX_INTERVAL),
                rng.choice(MENU_CONCAVE_INTERVAL), rng.choice(MENU_NCDF_MU),
                rng.choice(MENU_S_INTERVAL), rng.choice(MENU_ENUM_UNITS),
                rng.choice(MENU_ENUM_SIDE), rng.choice(MENU_CE_PARAMS),
                rng.choice(MENU_CEZ_PARAMS), rng.randrange(2 ** 32),
                rng.randrange(2 ** 32), rng.randrange(2 ** 32))


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One operation of a pass.

    ``run(work_dir)`` does the timed work and returns its raw result;
    ``check(result, work_dir)`` turns it into checks, untimed.  ``files``
    are the CSVs the op writes, relative to the work directory; the harness
    hashes them and compares every pass with the first.  An op that writes
    files is checked from them alone, so equal bytes give equal checks.
    """

    name: str
    layer: str
    size: int
    target: float
    spec: dict
    run: Callable
    check: Callable
    files: tuple = ()


def fmt(v) -> str:
    return repr(float(v))


def cli_op(name, layer, size, target, argv, files, check) -> Op:
    """An op that is one in-process ``nlclt`` call; exit code 0 required."""

    def run(work):
        code = cli.main([a.format(work=work) for a in argv])
        if code != 0:
            raise RuntimeError(f"nlclt {argv[0]} exited with {code}")

    return Op(name, layer, size, target, {"argv": list(argv)}, run,
              lambda result, work: check(work), tuple(files))


def read_name_value(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[0] != "name,value":
        raise ValueError(f"unexpected header {lines[0]!r} in {path}")
    return {k: float(v) for k, v in (line.split(",") for line in lines[1:])}


def read_numeric(path, header: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"unexpected header {first!r} in {path}")
        return np.loadtxt(handle, delimiter=",", ndmin=2)


# ---------------------------------------------------------------------------
# pde-oracle
# ---------------------------------------------------------------------------

TREE_STEPS = 2000
SPACE_POINTS = 2001


def pde_problems(plan: Plan):
    """(name, argv tail, target, tol) of the six criterion-6 problems."""
    s = plan.degenerate_sigma
    clo, chi = plan.convex_interval
    klo, khi = plan.concave_interval
    mu = plan.ncdf_mu
    slo, shi = plan.s_interval
    heat = ["--problem", "g-heat"]
    return [
        ("degenerate", heat + ["--sigma-low", fmt(s), "--sigma-high", fmt(s),
                               "--terminal", "gauss_half"],
         1.0 / math.sqrt(1.0 + s * s), 1e-3),
        ("convex", heat + ["--sigma-low", fmt(clo), "--sigma-high", fmt(chi),
                           "--terminal", "abs"],
         chi * SQRT_2_OVER_PI, 2e-3),
        ("concave", heat + ["--sigma-low", fmt(klo), "--sigma-high", fmt(khi),
                            "--terminal", "neg_abs"],
         -klo * SQRT_2_OVER_PI, 2e-3),
        ("increasing", ["--problem", "g-expectation", "--mu-low", "0.0",
                        "--mu-high", fmt(mu), "--side", "sup",
                        "--terminal", "normal_cdf"],
         0.5 * math.erfc(-mu / 2.0), 2e-3),
        ("symmetric-decreasing", ["--problem", "g-expectation", "--mu-low",
                                  "-0.5", "--mu-high", "0.5", "--side", "sup",
                                  "--terminal", "gauss"],
         INT_GAUSS_F_SUP, 1e-2),
        ("s-shaped", heat + ["--sigma-low", fmt(slo), "--sigma-high", fmt(shi),
                             "--terminal", "s-shape", "--s-phi1", "tanh",
                             "--s-theta", fmt(slo / shi), "--s-center", "0.0",
                             "--s-envelope", "phibar"],
         0.0, 1e-2),
    ]


def pde_ops(plan: Plan) -> list:
    ops = []
    for name, tail, target, tol in pde_problems(plan):
        out = f"solve_{name}.csv"
        argv = ["solve"] + tail + ["--tree-steps", str(TREE_STEPS),
                                   "--out", "{work}/" + out]
        files = [out]
        grid = name == "convex"
        if grid:
            argv += ["--grid-out", "{work}/grid_convex.csv"]
            files.append("grid_convex.csv")

        def check(work, out=out, target=target, tol=tol, grid=grid):
            vals = read_name_value(f"{work}/{out}")
            u0 = vals["u0"]
            checks = [("u0", "err", abs(u0 - target), tol),
                      ("pde_vs_tree", "gap", abs(u0 - vals["tree_value"]),
                       PDE_TREE_GATE)]
            if grid:
                table = read_numeric(f"{work}/grid_convex.csv", "t,x,u")
                last = table[table[:, 0] == 0.0]
                if len(last) != SPACE_POINTS:
                    raise ValueError("grid-out lacks the t = 0 layer")
                checks.append(("grid_u0", "err",
                               abs(float(np.interp(0.0, last[:, 1], last[:, 2])) - u0),
                               1e-12))
            return checks

        ops.append(cli_op(f"solve_{name}", "sublinear", SPACE_POINTS, target,
                          argv, files, check))
    return ops


# ---------------------------------------------------------------------------
# dp-converge
# ---------------------------------------------------------------------------

SCHEDULE = (125, 250, 500, 1000, 2000)
S_SHAPE_ARGS = ["--s-phi1", "tanh", "--s-theta", "0.5", "--s-center", "0.0"]
ENUM_MAX_N = 12


def converge_experiments():
    """(name, argv tail, expected limit) of the four criterion-8 runs."""
    mean = ["--model", "mean", "--mu-low", "-0.5", "--mu-high", "0.5",
            "--sigma", "1.0", "--phi", "gauss"]
    var = ["--model", "variance", "--sigma-low", "1.0", "--sigma-high", "2.0",
           "--phi", "s-shape"] + S_SHAPE_ARGS
    return [
        ("mean_sup", mean + ["--side", "sup"], INT_GAUSS_F_SUP),
        ("mean_inf", mean + ["--side", "inf"], INT_GAUSS_F_INF),
        ("variance_sup", var + ["--s-envelope", "phibar", "--side", "sup"], 0.0),
        ("variance_inf", var + ["--s-envelope", "phi", "--side", "inf"], 0.0),
    ]


def lattice_enumeration(n: int, phi, side: str, units: tuple, scale: float) -> float:
    """Value of the variance-model game by recursion over the exact integer
    lattice of sums of +-units[i] steps; the payoff sees sum*scale/sqrt(n).

    Shares no code with the program's backward induction.
    """
    lo, hi = units
    s = np.arange(-hi * n, hi * n + 1) * (scale / math.sqrt(n))
    v = np.asarray(phi(s), dtype=float)
    best = np.maximum if side == "sup" else np.minimum
    for _ in range(n):
        m = len(v)
        low = 0.5 * (v[hi - lo:m - hi - lo] + v[hi + lo:m - hi + lo])
        high = 0.5 * (v[:m - 2 * hi] + v[2 * hi:])
        v = best(low, high)
    return float(v[len(v) // 2])


def enumeration_op(plan: Plan) -> Op:
    lo, hi = plan.enum_units
    side = plan.enum_side
    scale = 1.0 / lo  # sigma_low = 1 keeps the acceptance interval [1, 2]
    interval = VarianceInterval(lo * scale, hi * scale)
    phi = named_test_function("gauss")

    def run(work):
        values = []
        for n in range(1, ENUM_MAX_N + 1):
            model = RectangularModel.variance_uncertain(interval, n)
            dp, _ = measure_dp.sup_expectation_dp(model, phi, side, check_points=None)
            values.append(dp)
        return values

    def check(values, work):
        worst = max(abs(dp - lattice_enumeration(n, phi, side, (lo, hi), scale))
                    for n, dp in zip(range(1, ENUM_MAX_N + 1), values))
        return [("dp_vs_enumeration", "err", worst, 1e-12)]

    spec = {"interval": [interval.sigma_low, interval.sigma_high],
            "side": side, "n": [1, ENUM_MAX_N], "phi": "gauss"}
    return Op("dp_enumeration", "measure_dp", ENUM_MAX_N, 0.0, spec, run, check)


def dp_ops(plan: Plan) -> list:
    ops = []
    schedule = ",".join(str(n) for n in SCHEDULE)
    for name, tail, expected in converge_experiments():
        out = f"converge_{name}.csv"
        argv = ["converge"] + tail + ["--schedule", schedule,
                                      "--out", "{work}/" + out]

        def check(work, out=out, expected=expected):
            rows = read_numeric(f"{work}/{out}", "n,dp_value,limit_value,gap")
            if [int(n) for n in rows[:, 0]] != list(SCHEDULE):
                raise ValueError("converge rows do not follow the schedule")
            limits = set(rows[:, 2].tolist())
            gaps = dict(zip(rows[:, 0].astype(int).tolist(), rows[:, 3].tolist()))
            return [("single_limit", "bound", float(len(limits) - 1), 0.0),
                    ("limit", "err", abs(rows[0, 2] - expected), 1e-6),
                    ("gap_at_max_n", "gap", gaps[SCHEDULE[-1]], DP_GAP_GATE),
                    ("gap_shrinks", "bound", gaps[SCHEDULE[-1]] / gaps[SCHEDULE[0]],
                     1.0)]

        ops.append(cli_op(f"converge_{name}", "measure_dp", SCHEDULE[-1],
                          expected, argv, [out], check))
    ops.append(enumeration_op(plan))
    return ops


# ---------------------------------------------------------------------------
# density-mc
# ---------------------------------------------------------------------------

FIGURE_GRID = "-6:6:16001"
CURVE_POINTS = 100_001
NORMAL_POINTS = 1_000_000
POLICY_N = 200
POLICY_REPS = 100_000


def cez_limits_at_c(alpha, beta, c):
    """Left and right limits of q^{alpha,beta,c} at its jump point c."""
    sig0 = alpha if 0.0 >= c else beta
    base = math.exp(-0.5 * (c / sig0) ** 2)
    coef = (beta - alpha) / (beta + alpha)
    return (INV_SQRT_2PI / beta * base * (1.0 - coef),
            INV_SQRT_2PI / alpha * base * (1.0 + coef))


def curve_mass(y, f, jump=None) -> float:
    """Trapezoid mass of a sampled density; ``jump = (c, left, right)``
    splits the cell holding a jump at c using the exact one-sided limits."""
    mass = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(y)))
    if jump is not None:
        c, left, right = jump
        k = int(np.searchsorted(y, c)) - 1  # y[k] < c <= y[k+1]
        mass -= 0.5 * (f[k] + f[k + 1]) * (y[k + 1] - y[k])
        mass += 0.5 * (f[k] + left) * (c - y[k]) + 0.5 * (right + f[k + 1]) * (y[k + 1] - c)
    return mass


def figures_check(work):
    """Criterion-2/3 facts read back from the paper figure CSVs."""
    curves = {}
    for name in ("figure1_mean_density_alpha_nonpositive.csv",
                 "figure2_mean_density_alpha_nonnegative.csv",
                 "figure3_variance_density_sup.csv",
                 "figure4_variance_density_inf.csv",
                 "figure5_normal_comparison.csv"):
        with open(f"{work}/figures/{name}", "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if lines[0] != "y,curve,density":
            raise ValueError(f"unexpected header in {name}")
        for line in lines[1:]:
            y, rest = line.split(",", 1)
            label, d = rest.rsplit(",", 1)  # labels such as cez(1,2,0) hold commas
            curves.setdefault((name[:7], label), []).append((float(y), float(d)))
    table = {k: np.array(v) for k, v in curves.items()}
    points = int(FIGURE_GRID.rsplit(":", 1)[1])
    if any(len(v) != points for v in table.values()) or len(table) != 11:
        raise ValueError("figure curves have the wrong shape")

    def at_zero(curve):
        i = int(np.argmin(np.abs(curve[:, 0])))
        return curve[i, 0], curve[i, 1]

    checks = []
    spike = table[("figure1", "alpha=-0.5")]
    checks.append(("spike_at_0", "err", abs(at_zero(spike)[1] - SPIKE_AT_0), 1e-4))
    binormal = table[("figure2", "alpha=1")]
    checks.append(("binormal_at_0", "err",
                   abs(at_zero(binormal)[1] - BINORMAL_AT_0), 1e-4))
    checks.append(("binormal_peaks", "bound",
                   abs(count_local_maxima(binormal) - 2.0), 0.0))
    for fig, label, alpha, beta in (("figure3", "alpha=1", 1.0, 2.0),
                                    ("figure4", "alpha=2", 2.0, 1.0)):
        y0, q0 = at_zero(table[(fig, label)])
        left, right = cez_limits_at_c(alpha, beta, 0.0)
        checks.append((f"{fig}_at_0", "err", abs(q0 - (right if y0 >= 0 else left)),
                       1e-12))
    for fig, label in (("figure1", "alpha=0"), ("figure5", "chen_epstein(0,0,0)")):
        curve = table[(fig, label)]
        checks.append((f"{fig}_degenerate", "err",
                       float(np.max(np.abs(curve[:, 1] - std_normal_pdf(curve[:, 0])))),
                       1e-12))
    return checks


def density_curve_op(family, params, lo_hi) -> Op:
    alpha, beta, c = params
    out = f"density_{family}.csv"
    grid = f"{fmt(lo_hi[0])}:{fmt(lo_hi[1])}:{CURVE_POINTS}"
    argv = ["density", "--family", family, "--alpha", fmt(alpha), "--beta",
            fmt(beta), "--c", fmt(c), f"--grid={grid}", "--out", "{work}/" + out]

    def check(work):
        curve = read_numeric(f"{work}/{out}", "y,density")
        jump = (c, *cez_limits_at_c(alpha, beta, c)) if family == "cez" else None
        return [("mass", "err", abs(curve_mass(curve[:, 0], curve[:, 1], jump) - 1.0),
                 1e-6)]

    return cli_op(f"density_{family}", "densities", CURVE_POINTS, 1.0, argv,
                  [out], check)


def normalization_sweep_op() -> Op:
    cases = [("chen_epstein", DensityParams(a, b, c))
             for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
             for b in (-1.0, 0.0, 1.0) for c in (-1.0, 0.0, 1.0)]
    cases += [("cez", DensityParams(a, b, c)) for a in (0.5, 1.0, 2.0)
              for b in (0.5, 1.0, 2.0) for c in (-1.0, 0.0, 1.0)]

    def run(work):
        return [densities.density_normalization(family, p) for family, p in cases]

    def check(totals, work):
        return [("normalization", "err", max(abs(t - 1.0) for t in totals), 1e-6)]

    return Op("density_normalization", "densities", len(cases), 1.0,
              {"cases": len(cases)}, run, check)


def degenerate_op() -> Op:
    ys = np.linspace(-8.0, 8.0, 3201)

    def run(work):
        ce = [(beta, densities.chen_epstein_pdf(DensityParams(0.0, beta, c), ys))
              for beta in (-1.0, 0.0, 1.0) for c in (-1.0, 0.0, 1.0)]
        cz = [(s, densities.cez_pdf(DensityParams(s, s, c), ys))
              for s in (0.5, 1.0, 2.0) for c in (-1.0, 0.0, 1.0)]
        return ce, cz

    def check(result, work):
        ce, cz = result
        worst = max([float(np.max(np.abs(f - std_normal_pdf(ys - beta)))) for beta, f in ce]
                    + [float(np.max(np.abs(q - std_normal_pdf(ys / s) / s))) for s, q in cz])
        return [("degenerate_vs_normal", "err", worst, 1e-12)]

    return Op("density_degenerate", "densities", len(ys), 0.0,
              {"points": len(ys)}, run, check)


def shapes_op() -> Op:
    def run(work):
        spike = densities.chen_epstein_pdf(DensityParams(-0.5, 0.0, 0.0), 0.0)
        peak = densities.chen_epstein_pdf(DensityParams(1.0, 0.0, 0.0), 0.0)
        curve = densities.emit_density_curve(DensityParams(1.0, 0.0, 0.0), "chen_epstein",
                                             Grid1D(-4.0, 4.0, 8001))
        return spike, peak, curve

    def check(result, work):
        spike, peak, curve = result
        return [("spike_at_0", "err", abs(spike - SPIKE_AT_0), 1e-4),
                ("binormal_at_0", "err", abs(peak - BINORMAL_AT_0), 1e-4),
                ("binormal_peaks", "bound", abs(count_local_maxima(curve) - 2.0), 0.0)]

    return Op("density_shapes", "densities", 8001, SPIKE_AT_0, {"points": 8001},
              run, check)


def erfcx_reference(x: np.ndarray) -> np.ndarray:
    """exp(x^2) erfc(x) from math.erfc below 26; above, the continued
    fraction erfcx(x) = 1/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))."""
    out = np.empty_like(x)
    small = x < 26.0
    out[small] = [math.exp(v * v) * math.erfc(v) for v in x[small].tolist()]
    big = x[~small]
    frac = np.zeros_like(big)
    for k in range(40, 0, -1):
        frac = (0.5 * k) / (big + frac)
    out[~small] = 1.0 / (math.sqrt(math.pi) * (big + frac))
    return out


def normal_function_ops(plan: Plan) -> list:
    """Phi and erfcx on 1e6 seeded points, against math.erfc references
    computed once per run."""
    gen = np.random.default_rng(plan.points_seed)
    x_phi = gen.uniform(-38.0, 38.0, NORMAL_POINTS)
    x_erfcx = gen.uniform(-5.0, 60.0, NORMAL_POINTS)
    ref_phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x_phi.tolist()])
    ref_erfcx = erfcx_reference(x_erfcx)

    def check_phi(values, work):
        return [("phi_vs_erfc", "err", float(np.max(np.abs(values - ref_phi))), 1e-14)]

    def check_erfcx(values, work):
        # absolute below 1, relative above (erfcx reaches 1e11 at x = -5)
        rel = np.abs(values - ref_erfcx) / np.maximum(1.0, np.abs(ref_erfcx))
        return [("erfcx_vs_erfc", "err", float(np.max(rel)), 1e-13)]

    return [Op("std_normal_cdf_arr", "numerics", NORMAL_POINTS, 0.0,
               {"points": NORMAL_POINTS, "range": [-38.0, 38.0]},
               lambda work: numerics.std_normal_cdf_arr(x_phi), check_phi),
            Op("erfcx_arr", "numerics", NORMAL_POINTS, 0.0,
               {"points": NORMAL_POINTS, "range": [-5.0, 60.0]},
               lambda work: numerics.erfcx_arr(x_erfcx), check_erfcx)]


def classical_op() -> Op:
    lp = LaplaceParams(n=100, p=0.5, z=0.0, a=0.0)
    normal = 0.5 * math.erfc(-1.96 / math.sqrt(2.0)) - 0.5 * math.erfc(1.96 / math.sqrt(2.0))

    def run(work):
        return (classical.binomial_standardized_prob(10_000, 0.5, -1.96, 1.96),
                classical.laplace_approx(lp), classical.laplace_exact(lp))

    def check(result, work):
        prob, approx, exact = result
        return [("binomial_vs_normal", "gap", abs(prob - normal), 0.006),
                ("laplace_approx", "err", abs(approx - exact), 5e-4),
                ("laplace_exact", "err", abs(exact - EXACT_ATOM_100_50), 1e-14)]

    return Op("classical_chain", "classical", 10_000, normal, {"n": 10_000},
              run, check)


def policy_op(name, model_args, limit, seed) -> Op:
    out = f"policy_{name}.csv"
    argv = (["simulate", "--target", "policy"] + model_args
            + ["--n", str(POLICY_N), "--side", "sup", "--reps", str(POLICY_REPS),
               "--seed", str(seed), "--out", "{work}/" + out])

    def check(work):
        vals = read_name_value(f"{work}/{out}")
        dp, est, se = vals["dp_value"], vals["policy_estimate"], vals["policy_stderr"]
        return [("replay_vs_dp", "bound", abs(est - dp), MC_SIGMAS * se),
                ("dp_vs_limit", "gap", abs(dp - limit), POLICY_GAP_GATE)]

    return cli_op(f"policy_{name}", "measure_dp", POLICY_REPS, limit, argv, [out],
                  check)


def sampling_ops(plan: Plan) -> list:
    seed = str(plan.mc_seed)
    ops = [
        policy_op("variance", ["--model", "variance", "--sigma-low", "1.0",
                               "--sigma-high", "2.0", "--phi", "s-shape"]
                  + S_SHAPE_ARGS + ["--s-envelope", "phibar"], 0.0, seed),
        policy_op("mean", ["--model", "mean", "--mu-low", "-0.5", "--mu-high",
                           "0.5", "--sigma", "1.0", "--phi", "gauss"],
                  INT_GAUSS_F_SUP, seed),
    ]

    def ks_check(out, tol):
        def check(work):
            return [("ks_distance", "bound", read_name_value(f"{work}/{out}")["ks_distance"],
                     tol)]
        return check

    ops.append(cli_op("simulate_hall", "martingale", 100_000, 0.0,
                      ["simulate", "--target", "hall", "--etas", "1,2", "--probs",
                       "0.5,0.5", "--kn", "10000", "--reps", "100000", "--seed",
                       seed, "--out", "{work}/hall.csv"],
                      ["hall.csv"], ks_check("hall.csv", 0.01)))
    ops.append(cli_op("simulate_clt", "classical", 10_000, 0.0,
                      ["simulate", "--target", "clt", "--n", "10000", "--reps",
                       "10000", "--seed", seed, "--out", "{work}/clt.csv"],
                      ["clt.csv"], ks_check("clt.csv", 0.03)))

    def chain_check(work):
        rows = {}
        with open(f"{work}/martingale.csv", "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if lines[0] != "n,condition,value":
            raise ValueError("unexpected martingale check header")
        for line in lines[1:]:
            n, label, value = line.split(",")
            rows[(int(n), label)] = float(value)
        checks = []
        for n in (100, 400):
            levy = max(abs(rows[(n, k)]) for k in ("levy_tail_sum", "levy_trunc_mean",
                                                   "levy_trunc_second",
                                                   "levy_trunc_mean_sq"))
            b1, b2 = rows[(n, "brown_variance_ratio")], rows[(n, "brown_max_ratio")]
            checks += [(f"levy_terms_n{n}", "err", levy, 1e-12),
                       (f"brown_ratio_n{n}", "bound", abs(b1 - 1.0), 0.1),
                       (f"brown_max_n{n}", "err", abs(b2 - b1 / n), 1e-12),
                       (f"mcleish_n{n}", "bound", rows[(n, "mcleish_abs_error")],
                        MC_SIGMAS * rows[(n, "mcleish_stderr")])]
        return checks

    ops.append(cli_op("check_martingale", "martingale", 2000, 1.0,
                      ["check", "--chain", "martingale", "--mds", "hall", "--etas",
                       "1,2", "--probs", "0.5,0.5", "--ns", "100,400", "--reps",
                       "2000", "--seed", str(plan.chain_seed),
                       "--out", "{work}/martingale.csv"],
                      ["martingale.csv"], chain_check))
    return ops


FIGURE_FILES = ("figure1_mean_density_alpha_nonpositive.csv",
                "figure2_mean_density_alpha_nonnegative.csv",
                "figure3_variance_density_sup.csv",
                "figure4_variance_density_inf.csv",
                "figure5_normal_comparison.csv")


def figures_argv(out_dir: str) -> list:
    return ["figures", "--set", "paper", f"--grid={FIGURE_GRID}", "--out", out_dir]


def figures_op() -> Op:
    return cli_op("figures", "densities", int(FIGURE_GRID.rsplit(":", 1)[1]), SPIKE_AT_0,
                  figures_argv("{work}/figures"),
                  [f"figures/{f}" for f in FIGURE_FILES], figures_check)


def density_ops(plan: Plan) -> list:
    return ([figures_op(),
             density_curve_op("chen-epstein", plan.ce_params, (-10.0, 10.0)),
             density_curve_op("cez", plan.cez_params, (-20.0, 20.0)),
             normalization_sweep_op(), degenerate_op(), shapes_op()]
            + normal_function_ops(plan) + [classical_op()] + sampling_ops(plan))


def build_ops(workload: str, seed: int) -> list:
    plan = make_plan(seed)
    if workload == "pde-oracle":
        return pde_ops(plan)
    if workload == "dp-converge":
        return dp_ops(plan)
    if workload == "density-mc":
        return density_ops(plan)
    raise ValueError(f"unknown workload {workload!r}")


# one small op per workload, run before timing starts
WARMUP_ARGV = {
    "pde-oracle": ["solve", "--problem", "g-heat", "--sigma-low", "1", "--sigma-high",
                   "2", "--terminal", "abs", "--space-points", "201",
                   "--tree-steps", "200", "--out", "{work}/warmup.csv"],
    "dp-converge": ["converge", "--model", "variance", "--sigma-low", "1",
                    "--sigma-high", "2", "--phi", "s-shape"] + S_SHAPE_ARGS
                   + ["--s-envelope", "phibar", "--side", "sup", "--schedule",
                      "10,20", "--out", "{work}/warmup.csv"],
    "density-mc": ["density", "--family", "cez", "--alpha", "1", "--beta", "2",
                   "--c", "0", "--grid=-6:6:601", "--out", "{work}/warmup.csv"],
}


def describe(ops) -> list:
    """JSON-able description of a batch: what the program receives."""
    return [{"name": op.name, "layer": op.layer, "size": op.size,
             "target": op.target, **op.spec} for op in ops]
