"""Command-line front end.

Subcommands mirror the library surface: density curves, PDE/tree solves,
convergence experiments, condition checks, simulations, figure sets, and
config validation.  All outputs are CSV written atomically; identical
config plus seed produces byte-identical files.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys

import numpy as np

from . import csvio
from .classical import (
    DiscreteLaw,
    IidModel,
    feller_ratio,
    lindeberg_statistic,
    lyapunov_statistic,
    simulate_clt_distance,
)
from .densities import (
    DensityParams,
    MeanInterval,
    VarianceInterval,
    emit_density_curve,
)
from .errors import (
    ConfigError,
    GridTooCoarse,
    InvalidParams,
    InvalidTheta,
    NlcltError,
    NonConvergence,
    PolicyMismatch,
    UnstableResolution,
    UnsupportedCombination,
)
from .martingale import (
    MdsModel,
    MixtureLimit,
    brown_ratios,
    hall_convergence_check,
    hall_mixture_sampler,
    levy_condition_terms,
    mcleish_product_mean,
)
from .measure_dp import (
    RectangularModel,
    convergence_experiment,
    lindeberg_condition_value,
    policy_simulate,
    sup_expectation_dp,
)
from .numerics import Grid1D, SeedSpec
from .sublinear import (
    DEFAULT_SPACE_POINTS,
    GMean,
    GVariance,
    HjbProblem,
    SShapeSpec,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
    tree_value_oracle,
)

NUMERICAL_ERRORS = (UnstableResolution, NonConvergence, GridTooCoarse,
                    PolicyMismatch)
DEFAULT_SEED = 1234

# keys every command accepts
COMMON_KEYS = {"command", "config", "seed", "stream", "out"}
COMMAND_KEYS = {
    "density": {"family", "alpha", "beta", "c", "grid"},
    "figures": {"set", "grid"},
    "solve": {"problem", "sigma_low", "sigma_high", "mu_low", "mu_high",
              "side", "terminal", "s_phi1", "s_theta", "s_center",
              "s_envelope", "space_points", "time_steps", "tree_steps",
              "grid_out"},
    "converge": {"model", "sigma_low", "sigma_high", "mu_low", "mu_high",
                 "sigma", "phi", "s_phi1", "s_theta", "s_center",
                 "s_envelope", "side", "schedule"},
    "check": {"chain", "law", "p", "delta", "eps", "ns", "mds", "etas",
              "probs", "sigma_plus", "sigma_minus", "reps", "t", "model",
              "sigma_low", "sigma_high", "mu_low", "mu_high", "sigma"},
    "simulate": {"target", "law", "p", "n", "reps", "etas", "probs", "kn",
                 "atoms", "model", "sigma_low", "sigma_high", "mu_low",
                 "mu_high", "sigma", "phi", "s_phi1", "s_theta", "s_center",
                 "s_envelope", "side"},
    "validate": set(),
}
# keys the commands coerce with int() or float()
INT_KEYS = {"seed", "stream", "n", "reps", "kn", "space_points", "time_steps",
            "tree_steps"}
FLOAT_KEYS = {"alpha", "beta", "c", "sigma_low", "sigma_high", "mu_low",
              "mu_high", "sigma", "s_theta", "s_center", "p", "delta", "eps",
              "sigma_plus", "sigma_minus", "t"}


def worker_count() -> int:
    """Worker cap from NLCLT_THREADS (0 or unset = auto)."""
    raw = os.environ.get("NLCLT_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"NLCLT_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise ConfigError("NLCLT_THREADS must be >= 0")
    return cap if cap > 0 else (os.cpu_count() or 1)


def parse_grid(text: str) -> Grid1D:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:points, got {text!r}")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"malformed grid {text!r}: {exc}")
    try:
        return Grid1D(lo, hi, points)
    except InvalidParams as exc:
        raise ConfigError(str(exc))


def parse_float_list(text) -> list:
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        return [float(v) for v in items if v != ""]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed number list {text!r}: {exc}")


def parse_int_list(text) -> list:
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        return [int(v) for v in items if v != ""]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed integer list {text!r}: {exc}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a single JSON object")
    return cfg


def merge_config(args: argparse.Namespace) -> dict:
    """Config-file values underneath explicit CLI flags."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        cfg[key] = value
    return cfg


def check_keys(cfg: dict) -> list:
    command = cfg.get("command")
    problems = []
    if command not in COMMAND_KEYS:
        return [f"unknown command {command!r}"]
    allowed = COMMAND_KEYS[command] | COMMON_KEYS
    for key in sorted(cfg):
        if key not in allowed:
            problems.append(f"unknown key {key!r} for command {command!r}")
    return problems


def _numbers(cfg: dict, problems: list) -> dict:
    """The numeric config values, coerced as the commands coerce them; a
    value that does not coerce is reported and left out."""
    numbers = {}
    for key in sorted(cfg):
        if key in INT_KEYS:
            kind, what = int, "an integer"
        elif key in FLOAT_KEYS:
            kind, what = float, "a number"
        else:
            continue
        try:
            numbers[key] = kind(cfg[key])
        except (TypeError, ValueError, OverflowError):
            problems.append(f"{key} must be {what}")
    return numbers


def validate_config(cfg: dict) -> list:
    """Every violated precondition, without running anything."""
    problems = check_keys(cfg)
    if problems:
        return problems
    command = cfg["command"]
    num = _numbers(cfg, problems)
    if "seed" in num and not 0 <= num["seed"] < 2 ** 64:
        problems.append("seed must be an unsigned 64-bit integer")
    if "stream" in num and num["stream"] < 0:
        problems.append("stream must be non-negative")
    if "sigma_low" in num and "sigma_high" in num:
        if not 0 < num["sigma_low"] <= num["sigma_high"]:
            problems.append("variance interval needs 0 < sigma_low <= sigma_high")
    if "mu_low" in num and "mu_high" in num:
        if not num["mu_low"] <= num["mu_high"]:
            problems.append("mean interval needs mu_low <= mu_high")
    for key in ("sigma", "s_theta", "eps", "delta"):
        if key in num and not num[key] > 0:
            problems.append(f"{key} must be > 0")
    if num.get("s_theta", 1) > 1:
        problems.append("s_theta must lie in (0, 1]")
    if "p" in num and not 0 < num["p"] < 1:
        problems.append("p must lie in (0, 1)")
    for key in ("n", "reps", "kn", "time_steps", "tree_steps"):
        if key in num and num[key] < 1:
            problems.append(f"{key} must be a positive integer")
    if "space_points" in num and num["space_points"] < 3:
        problems.append("space_points must be an integer >= 3")
    if "schedule" in cfg:
        try:
            sched = parse_int_list(cfg["schedule"])
            if not sched or any(v < 1 for v in sched):
                problems.append("schedule entries must be positive integers")
        except ConfigError as exc:
            problems.append(str(exc))
    if "grid" in cfg:
        try:
            parse_grid(cfg["grid"])
        except ConfigError as exc:
            problems.append(str(exc))
    for key in ("probs",):
        if key in cfg:
            try:
                probs = parse_float_list(cfg[key])
                if abs(math.fsum(probs) - 1.0) > 1e-12:
                    problems.append("probs must sum to 1 within 1e-12")
            except ConfigError as exc:
                problems.append(str(exc))
    if command == "density" and "family" in cfg:
        if cfg["family"] not in ("chen-epstein", "cez"):
            problems.append("family must be chen-epstein or cez")
        if cfg["family"] == "cez":
            if not (num.get("alpha", 0) > 0 and num.get("beta", 0) > 0):
                problems.append("cez needs alpha > 0 and beta > 0")
    if "side" in cfg and cfg["side"] not in ("sup", "inf"):
        problems.append("side must be sup or inf")
    if "s_envelope" in cfg and cfg["s_envelope"] not in ("phi", "phibar"):
        problems.append("s_envelope must be phi or phibar")
    return problems


def build_payoff(cfg: dict, key: str):
    name = cfg.get(key)
    if name is None:
        raise ConfigError(f"missing {key}")
    if name == "s-shape":
        try:
            spec = SShapeSpec(phi1=named_test_function(cfg.get("s_phi1", "tanh")),
                              c=float(cfg.get("s_center", 0.0)),
                              theta=float(cfg.get("s_theta", 0.5)))
            return make_s_shaped(spec, cfg.get("s_envelope", "phibar"))
        except (InvalidParams, InvalidTheta) as exc:
            raise ConfigError(str(exc))
    try:
        return named_test_function(name)
    except InvalidParams as exc:
        raise ConfigError(str(exc))


def seed_spec(cfg: dict) -> SeedSpec:
    return SeedSpec(int(cfg.get("seed", DEFAULT_SEED)),
                    int(cfg.get("stream", 0)))


def require_out(cfg: dict) -> str:
    out = cfg.get("out")
    if not out:
        raise ConfigError("missing output path (--out)")
    return str(out)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def cmd_density(cfg: dict) -> int:
    family = {"chen-epstein": "chen_epstein", "cez": "cez"}[cfg["family"]]
    params = DensityParams(float(cfg.get("alpha", 0.0)),
                           float(cfg.get("beta", 0.0)),
                           float(cfg.get("c", 0.0)))
    grid = parse_grid(cfg.get("grid", "-4:4:801"))
    curve = emit_density_curve(params, family, grid)
    csvio.write_csv_atomic(require_out(cfg), "y,density", map(tuple, curve))
    return 0


PAPER_FIGURES = (
    ("figure1_mean_density_alpha_nonpositive.csv", "chen_epstein",
     [DensityParams(a, 0.0, 0.0) for a in (-1.0, -0.5, 0.0)]),
    ("figure2_mean_density_alpha_nonnegative.csv", "chen_epstein",
     [DensityParams(a, 0.0, 0.0) for a in (0.0, 0.5, 1.0)]),
    ("figure3_variance_density_sup.csv", "cez", [DensityParams(1.0, 2.0, 0.0)]),
    ("figure4_variance_density_inf.csv", "cez", [DensityParams(2.0, 1.0, 0.0)]),
    ("figure5_normal_comparison.csv", "mixed",
     [("cez", DensityParams(1.0, 2.0, 0.0)), ("cez", DensityParams(2.0, 1.0, 0.0)),
      ("chen_epstein", DensityParams(0.0, 0.0, 0.0))]),
)


def _figure_rows(entry, grid: Grid1D):
    name, family, param_list = entry
    rows = []
    if family == "mixed":
        for fam, params in param_list:
            label = f"{fam}({csvio.format_value(params.alpha)}," \
                    f"{csvio.format_value(params.beta)},{csvio.format_value(params.c)})"
            curve = emit_density_curve(params, fam, grid)
            rows.extend((y, label, d) for y, d in curve)
    else:
        for params in param_list:
            label = f"alpha={csvio.format_value(params.alpha)}"
            curve = emit_density_curve(params, family, grid)
            rows.extend((y, label, d) for y, d in curve)
    return name, rows


def cmd_figures(cfg: dict) -> int:
    if cfg.get("set", "paper") != "paper":
        raise ConfigError("only --set paper is defined")
    out_dir = require_out(cfg)
    grid = parse_grid(cfg.get("grid", "-6:6:1201"))
    workers = min(worker_count(), len(PAPER_FIGURES))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            tables = list(pool.map(lambda e: _figure_rows(e, grid), PAPER_FIGURES))
    else:
        tables = [_figure_rows(e, grid) for e in PAPER_FIGURES]
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in tables:  # compute everything before writing anything
        csvio.write_csv_atomic(os.path.join(out_dir, name), "y,curve,density", rows)
    return 0


def cmd_solve(cfg: dict) -> int:
    problem_name = cfg.get("problem")
    terminal = build_payoff(cfg, "terminal")
    space_points = int(cfg.get("space_points", DEFAULT_SPACE_POINTS))
    time_steps = int(cfg["time_steps"]) if "time_steps" in cfg else None
    rows = []
    if problem_name == "g-heat":
        v = VarianceInterval(float(cfg["sigma_low"]), float(cfg["sigma_high"]))
        grid = solve_g_heat(v, terminal, space_points=space_points,
                            time_steps=time_steps)
        generator = GVariance(v)
    elif problem_name == "g-expectation":
        m = MeanInterval(float(cfg["mu_low"]), float(cfg["mu_high"]))
        side = cfg.get("side", "sup")
        grid = solve_g_expectation(m, terminal, side,
                                   space_points=space_points,
                                   time_steps=time_steps)
        generator = GMean(m, side=side)
    else:
        raise ConfigError("problem must be g-heat or g-expectation")
    rows.append(("u0", grid.u0))
    if "tree_steps" in cfg:
        tree = tree_value_oracle(HjbProblem(generator, terminal),
                                 int(cfg["tree_steps"]))
        rows.append(("tree_value", tree))
        rows.append(("abs_gap", abs(grid.u0 - tree)))
    if cfg.get("grid_out"):
        csvio.write_csv_atomic(str(cfg["grid_out"]), "t,x,u", grid.rows())
    csvio.write_csv_atomic(require_out(cfg), "name,value", rows)
    return 0


def _rect_model(cfg: dict, n: int) -> RectangularModel:
    kind = cfg.get("model")
    if kind == "mean":
        m = MeanInterval(float(cfg["mu_low"]), float(cfg["mu_high"]))
        return RectangularModel.mean_uncertain(m, float(cfg.get("sigma", 1.0)), n)
    if kind == "variance":
        v = VarianceInterval(float(cfg["sigma_low"]), float(cfg["sigma_high"]))
        return RectangularModel.variance_uncertain(v, n)
    raise ConfigError("model must be mean or variance")


def cmd_converge(cfg: dict) -> int:
    schedule = parse_int_list(cfg.get("schedule", "125,250,500,1000,2000"))
    model = _rect_model(cfg, schedule[0])
    phi = build_payoff(cfg, "phi")
    rows = convergence_experiment(model, phi, schedule, cfg.get("side", "sup"))
    csvio.write_csv_atomic(require_out(cfg), "n,dp_value,limit_value,gap", rows)
    return 0


def _check_classical(cfg: dict):
    law_name = cfg.get("law", "rademacher")
    if law_name == "rademacher":
        law = DiscreteLaw.rademacher()
    elif law_name == "bernoulli":
        law = DiscreteLaw.bernoulli(float(cfg.get("p", 0.5)))
    else:
        raise ConfigError("law must be rademacher or bernoulli")
    model = IidModel(law, float(cfg.get("delta", 1.0)))
    eps = float(cfg.get("eps", 0.1))
    rows = []
    for n in parse_int_list(cfg.get("ns", "100,400,1600")):
        rows.append((n, "lyapunov", lyapunov_statistic(model, n)))
        rows.append((n, "lindeberg", lindeberg_statistic(model, n, eps)))
        rows.append((n, "feller", feller_ratio([law.variance()] * n)))
    return "n,statistic,value", rows


def _mds_model(cfg: dict, n: int) -> MdsModel:
    mds = cfg.get("mds", "iid-rademacher")
    if mds == "iid-rademacher":
        return MdsModel.iid_rademacher(n)
    if mds == "hall":
        return MdsModel.hall_mixture(parse_float_list(cfg.get("etas", "1,2")),
                                     parse_float_list(cfg.get("probs", "0.5,0.5")),
                                     n)
    if mds == "var-feedback":
        return MdsModel.var_feedback(float(cfg.get("sigma_plus", 1.0)),
                                     float(cfg.get("sigma_minus", 2.0)), n)
    raise ConfigError("mds must be iid-rademacher, hall or var-feedback")


def _check_martingale(cfg: dict):
    spec = seed_spec(cfg)
    eps = float(cfg.get("eps", 0.1))
    reps = int(cfg.get("reps", 2000))
    t = float(cfg.get("t", 1.0))
    rows = []
    for n in parse_int_list(cfg.get("ns", "100,400")):
        model = _mds_model(cfg, n)
        levy = levy_condition_terms(model, n, spec, eps=eps)
        for label, value in zip(("levy_tail_sum", "levy_trunc_mean",
                                 "levy_trunc_second", "levy_trunc_mean_sq"),
                                levy):
            rows.append((n, label, value))
        b1, b2 = brown_ratios(model, n, reps, spec)
        rows.append((n, "brown_variance_ratio", b1))
        rows.append((n, "brown_max_ratio", b2))
        est, se = mcleish_product_mean(model, t, max(reps, 1000), spec)
        rows.append((n, "mcleish_abs_error", abs(est - 1.0)))
        rows.append((n, "mcleish_stderr", se))
    return "n,condition,value", rows


def _check_lindeberg(cfg: dict):
    eps = float(cfg.get("eps", 0.1))
    rows = []
    for n in parse_int_list(cfg.get("ns", "100,400")):
        model = _rect_model(cfg, n)
        rows.append((n, "worst_case_lindeberg",
                     lindeberg_condition_value(model, n, eps)))
    return "n,condition,value", rows


def cmd_check(cfg: dict) -> int:
    chain = cfg.get("chain")
    if chain == "classical":
        header, rows = _check_classical(cfg)
    elif chain == "martingale":
        header, rows = _check_martingale(cfg)
    elif chain == "lindeberg":
        header, rows = _check_lindeberg(cfg)
    else:
        raise ConfigError("chain must be classical, martingale or lindeberg")
    csvio.write_csv_atomic(require_out(cfg), header, rows)
    return 0


def cmd_simulate(cfg: dict) -> int:
    target = cfg.get("target")
    spec = seed_spec(cfg)
    rows = []
    if target == "clt":
        law = DiscreteLaw.rademacher() if cfg.get("law", "rademacher") == "rademacher" \
            else DiscreteLaw.bernoulli(float(cfg.get("p", 0.5)))
        d = simulate_clt_distance(IidModel(law), int(cfg.get("n", 10_000)),
                                  int(cfg.get("reps", 10_000)), spec)
        rows.append(("ks_distance", d))
    elif target == "hall":
        d = hall_convergence_check(parse_float_list(cfg.get("etas", "1,2")),
                                   parse_float_list(cfg.get("probs", "0.5,0.5")),
                                   int(cfg.get("kn", 10_000)),
                                   int(cfg.get("reps", 100_000)), spec)
        rows.append(("ks_distance", d))
    elif target == "mixture":
        atoms = parse_float_list(cfg.get("atoms", "1,2"))
        probs = parse_float_list(cfg.get("probs", "0.5,0.5"))
        limit = MixtureLimit(atoms=tuple(zip(atoms, probs)))
        sample = hall_mixture_sampler(limit, int(cfg.get("reps", 10_000)), spec)
        rows.append(("sample_mean", float(np.mean(sample))))
        rows.append(("sample_variance", float(np.var(sample))))
        rows.append(("second_moment_target", limit.second_moment()))
    elif target == "policy":
        model = _rect_model(cfg, int(cfg.get("n", 100)))
        phi = build_payoff(cfg, "phi")
        side = cfg.get("side", "sup")
        value, policy = sup_expectation_dp(model, phi, side)
        est, se = policy_simulate(model, policy, phi,
                                  int(cfg.get("reps", 10_000)), spec)
        rows.append(("dp_value", value))
        rows.append(("policy_estimate", est))
        rows.append(("policy_stderr", se))
    else:
        raise ConfigError("target must be clt, hall, mixture or policy")
    csvio.write_csv_atomic(require_out(cfg), "name,value", rows)
    return 0


def cmd_validate(cfg: dict) -> int:
    path = cfg.get("config")
    if not path:
        print("validation report: no config file given (--config)")
        return 0
    try:
        loaded = load_config(path)
    except ConfigError as exc:
        print(f"validation report: {exc}")
        return 0
    problems = validate_config(loaded)
    if problems:
        print(f"validation report: {len(problems)} violation(s)")
        for p in problems:
            print(f"  - {p}")
    else:
        print("validation report: no violations")
    return 0


COMMANDS = {
    "density": cmd_density,
    "figures": cmd_figures,
    "solve": cmd_solve,
    "converge": cmd_converge,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlclt",
        description="Numerical laboratory for classical, martingale and "
                    "nonlinear central limit theorems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--seed", type=int)
        p.add_argument("--stream", type=int)
        p.add_argument("--out", help="output CSV path (directory for figures)")

    p = sub.add_parser("density", help="emit one density curve")
    common(p)
    p.add_argument("--family", choices=["chen-epstein", "cez"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--grid", help="lo:hi:points")

    p = sub.add_parser("figures", help="emit the paper figure curve sets")
    common(p)
    p.add_argument("--set", dest="set")
    p.add_argument("--grid", help="lo:hi:points")

    p = sub.add_parser("solve", help="solve a terminal-value problem")
    common(p)
    p.add_argument("--problem", choices=["g-heat", "g-expectation"])
    p.add_argument("--sigma-low", dest="sigma_low", type=float)
    p.add_argument("--sigma-high", dest="sigma_high", type=float)
    p.add_argument("--mu-low", dest="mu_low", type=float)
    p.add_argument("--mu-high", dest="mu_high", type=float)
    p.add_argument("--side", choices=["sup", "inf"])
    p.add_argument("--terminal")
    p.add_argument("--s-phi1", dest="s_phi1")
    p.add_argument("--s-theta", dest="s_theta", type=float)
    p.add_argument("--s-center", dest="s_center", type=float)
    p.add_argument("--s-envelope", dest="s_envelope")
    p.add_argument("--space-points", dest="space_points", type=int)
    p.add_argument("--time-steps", dest="time_steps", type=int)
    p.add_argument("--tree-steps", dest="tree_steps", type=int)
    p.add_argument("--grid-out", dest="grid_out")

    p = sub.add_parser("converge", help="DP values against the nonlinear limit")
    common(p)
    p.add_argument("--model", choices=["mean", "variance"])
    p.add_argument("--sigma-low", dest="sigma_low", type=float)
    p.add_argument("--sigma-high", dest="sigma_high", type=float)
    p.add_argument("--mu-low", dest="mu_low", type=float)
    p.add_argument("--mu-high", dest="mu_high", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--phi")
    p.add_argument("--s-phi1", dest="s_phi1")
    p.add_argument("--s-theta", dest="s_theta", type=float)
    p.add_argument("--s-center", dest="s_center", type=float)
    p.add_argument("--s-envelope", dest="s_envelope")
    p.add_argument("--side", choices=["sup", "inf"])
    p.add_argument("--schedule")

    p = sub.add_parser("check", help="condition statistic reports")
    common(p)
    p.add_argument("--chain", choices=["classical", "martingale", "lindeberg"])
    p.add_argument("--law", choices=["rademacher", "bernoulli"])
    p.add_argument("--p", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--ns")
    p.add_argument("--mds", choices=["iid-rademacher", "hall", "var-feedback"])
    p.add_argument("--etas")
    p.add_argument("--probs")
    p.add_argument("--sigma-plus", dest="sigma_plus", type=float)
    p.add_argument("--sigma-minus", dest="sigma_minus", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--model", choices=["mean", "variance"])
    p.add_argument("--sigma-low", dest="sigma_low", type=float)
    p.add_argument("--sigma-high", dest="sigma_high", type=float)
    p.add_argument("--mu-low", dest="mu_low", type=float)
    p.add_argument("--mu-high", dest="mu_high", type=float)
    p.add_argument("--sigma", type=float)

    p = sub.add_parser("simulate", help="seeded Monte Carlo runs")
    common(p)
    p.add_argument("--target", choices=["clt", "hall", "mixture", "policy"])
    p.add_argument("--law", choices=["rademacher", "bernoulli"])
    p.add_argument("--p", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--etas")
    p.add_argument("--probs")
    p.add_argument("--kn", type=int)
    p.add_argument("--atoms")
    p.add_argument("--model", choices=["mean", "variance"])
    p.add_argument("--sigma-low", dest="sigma_low", type=float)
    p.add_argument("--sigma-high", dest="sigma_high", type=float)
    p.add_argument("--mu-low", dest="mu_low", type=float)
    p.add_argument("--mu-high", dest="mu_high", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--phi")
    p.add_argument("--s-phi1", dest="s_phi1")
    p.add_argument("--s-theta", dest="s_theta", type=float)
    p.add_argument("--s-center", dest="s_center", type=float)
    p.add_argument("--s-envelope", dest="s_envelope")
    p.add_argument("--side", choices=["sup", "inf"])

    p = sub.add_parser("validate", help="report config violations, run nothing")
    common(p)
    return parser


def _fuse_grid_flag(argv):
    """Rewrite `--grid -4:4:801` to `--grid=-4:4:801` so grid specs with a
    negative lower bound survive argparse's option detection."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_grid_flag(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return cmd_validate(vars(args))
        cfg = merge_config(args)
        problems = validate_config(cfg)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
        worker_count()  # fail fast on a malformed NLCLT_THREADS
        return COMMANDS[cfg["command"]](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (InvalidParams, InvalidTheta, UnsupportedCombination, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NlcltError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
