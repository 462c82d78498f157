"""Command-line front end.

Subcommands mirror the library surface: density curves, PDE/tree solves,
convergence experiments, condition checks, simulations, figure sets, and
config validation.  All outputs are CSV written atomically; identical
config plus seed produces byte-identical files.

Each command's options are the rows of its table in ``OPTIONS``.  The
parser, the accepted config keys, the coercion of config values, the
defaults and the per-key checks are all read from those rows.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import csvio
from .classical import (
    CLT_MIN_REPS,
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
    check_curve_scale,
    density_pdf,
    emit_density_curve,
)
from .errors import ConfigError, InvalidParams, NlcltError, require_at_least
from .martingale import (
    BROWN_MIN_REPS,
    MCLEISH_MIN_REPS,
    MdsModel,
    MixtureLimit,
    brown_ratios,
    hall_convergence_check,
    hall_limit,
    hall_mixture_sampler,
    levy_condition_terms,
    mcleish_product_mean,
)
from .measure_dp import (
    RectangularModel,
    check_dp_inputs,
    convergence_experiment,
    lindeberg_condition_value,
    policy_simulate,
    sup_expectation_dp,
)
from .numerics import SIDES, Grid1D, SeedSpec
from .sublinear import (
    DEFAULT_SPACE_POINTS,
    SShapeSpec,
    check_mean_solve_inputs,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
)

DEFAULT_SEED = 1234
# the n values of check --chain classical without --ns
CLASSICAL_NS = (100, 400, 1600)


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


# option kinds: (key, config value) -> coerced value, or ConfigError

def _exact(convert, value):
    """convert(value), int or float, for a value that it reads as it is: a
    bool would read as 0 or 1, and int would cut a number's fraction off,
    so both raise TypeError."""
    if isinstance(value, bool) or (convert is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise TypeError(f"{value!r} is not {'an integer' if convert is int else 'a number'}")
    return convert(value)


def _number(key: str, value) -> float:
    try:
        number = _exact(float, value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number")
    return number


def _integer(key: str, value) -> int:
    try:
        return _exact(int, value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer") from None


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


def _grid(key: str, value) -> Grid1D:
    return parse_grid(value)


def _list_of(convert, key: str, value) -> list:
    """The entries of a JSON list, or of a comma-separated string, each
    read by convert (int or float) as _exact reads it."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return [_exact(convert, v) for v in items if v != ""]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {key} list {value!r}: {exc}") from None


def _integers(key: str, value) -> list:
    return _list_of(int, key, value)


def _floats(key: str, value) -> list:
    numbers = _list_of(float, key, value)
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{key} entries must be finite numbers")
    return numbers


# the argparse type of each kind; flags of other kinds stay strings
_FLAG_TYPES = {_number: float, _integer: int}


class Option(NamedTuple):
    """One row of a command's option table.

    ``name`` is the config key, and with ``-`` for ``_`` the flag.  ``kind``
    coerces a config value.  A ``default`` of None leaves the option unset;
    any other default is coerced by ``kind`` like a config value, so list
    and grid defaults read as on the command line.  ``check`` is a predicate
    on the coerced value and the end of the sentence that reports its
    failure.
    """

    name: str
    kind: Callable
    default: object
    help: str
    choices: tuple = ()
    check: tuple = ()


# per-key checks: (predicate on the coerced value, the rest of the message)
_POSITIVE = (lambda v: v > 0, "must be > 0")
_COUNT = (lambda v: v >= 1, "must be a positive integer")
_OPEN_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")
_SUMS_TO_ONE = (lambda v: abs(math.fsum(v) - 1.0) <= 1e-12, "must sum to 1 within 1e-12")
_COUNTS = (lambda v: len(v) > 0 and min(v) >= 1, "entries must be positive integers")

_COMMON = (
    Option("config", _text, None, "JSON config file; flags override"),
    Option("seed", _integer, DEFAULT_SEED, "seed of the random stream"),
    Option("stream", _integer, 0, "stream index under the seed"),
    Option("out", _text, None, "output CSV path (directory for figures)"),
)
_INTERVALS = (
    Option("sigma_low", _number, None, "lower volatility bound"),
    Option("sigma_high", _number, None, "upper volatility bound"),
    Option("mu_low", _number, None, "lower mean bound"),
    Option("mu_high", _number, None, "upper mean bound"),
)
_MODEL = (
    Option("model", _text, None, "uncertain mean or variance", ("mean", "variance")),
    *_INTERVALS,
    Option("sigma", _number, 1.0, "volatility of the mean model", check=_POSITIVE),
)
_S_SHAPE = (
    Option("s_phi1", _text, "tanh", "right branch of an s-shape payoff"),
    Option("s_theta", _number, 0.5, "s-shape ratio theta in (0, 1]"),
    Option("s_center", _number, 0.0, "s-shape junction"),
    Option("s_envelope", _text, "phibar", "s-shape envelope", ("phi", "phibar")),
)
_SIDE = Option("side", _text, "sup", "upper or lower expectation", SIDES)
_LAW = (
    Option("law", _text, "rademacher", "iid step law", ("rademacher", "bernoulli")),
    Option("p", _number, 0.5, "bernoulli success probability", check=_OPEN_UNIT),
)
_MIXTURE = (
    Option("etas", _floats, "1,2", "mixing values of the Hall model"),
    Option("probs", _floats, "0.5,0.5", "probabilities of the etas or atoms",
           check=_SUMS_TO_ONE),
)

OPTIONS = {
    "density": _COMMON + (
        Option("family", _text, None, "limit density family", ("chen-epstein", "cez")),
        Option("alpha", _number, 0.0, "density parameter alpha"),
        Option("beta", _number, 0.0, "density parameter beta"),
        Option("c", _number, 0.0, "density centre c"),
        Option("grid", _grid, "-4:4:801", "lo:hi:points"),
    ),
    "figures": _COMMON + (
        Option("set", _text, "paper", "figure set", ("paper",)),
        Option("grid", _grid, "-6:6:1201", "lo:hi:points"),
    ),
    "solve": _COMMON + (
        Option("problem", _text, None, "PDE to solve", ("g-heat", "g-expectation")),
        *_INTERVALS,
        _SIDE,
        Option("terminal", _text, None, "terminal payoff, or s-shape"),
        *_S_SHAPE,
        Option("space_points", _integer, DEFAULT_SPACE_POINTS, "grid points",
               check=(lambda v: v >= 3, "must be an integer >= 3")),
        Option("time_steps", _integer, None, "steps (default: CFL bound)", check=_COUNT),
        Option("tree_steps", _integer, None, "lattice cross-check steps", check=_COUNT),
        Option("grid_out", _text, None, "CSV path for the value grid"),
    ),
    "converge": _COMMON + (
        *_MODEL,
        Option("phi", _text, None, "payoff, or s-shape"),
        *_S_SHAPE,
        _SIDE,
        Option("schedule", _integers, "125,250,500,1000,2000", "n list", check=_COUNTS),
    ),
    "check": _COMMON + (
        Option("chain", _text, None, "condition chain",
               ("classical", "martingale", "lindeberg")),
        *_LAW,
        Option("delta", _number, 1.0, "Lyapunov moment 2 + delta", check=_POSITIVE),
        Option("eps", _number, 0.1, "Lindeberg threshold", check=_POSITIVE),
        Option("ns", _integers, None,
               "n values (default: 100,400,1600 for --chain classical, else 100,400)",
               check=_COUNTS),
        Option("mds", _text, "iid-rademacher", "martingale difference model",
               ("iid-rademacher", "hall", "var-feedback")),
        *_MIXTURE,
        Option("sigma_plus", _number, 1.0, "feedback scale after an up-step"),
        Option("sigma_minus", _number, 2.0, "feedback scale after a down-step"),
        Option("reps", _integer, 2000, "Monte Carlo replications", check=_COUNT),
        Option("t", _number, 1.0, "argument of the McLeish product"),
        *_MODEL,
    ),
    "simulate": _COMMON + (
        Option("target", _text, None, "what to simulate",
               ("clt", "hall", "mixture", "policy")),
        *_LAW,
        Option("n", _integer, None,
               "steps (default: 100 for --target policy, else 10000)", check=_COUNT),
        Option("reps", _integer, None,
               "replications (default: 100000 for --target hall, else 10000)",
               check=_COUNT),
        *_MIXTURE,
        Option("kn", _integer, 10_000, "steps per Hall path", check=_COUNT),
        Option("atoms", _floats, "1,2", "mixing values of the mixture limit"),
        *_MODEL,
        Option("phi", _text, None, "payoff, or s-shape"),
        *_S_SHAPE,
        _SIDE,
    ),
    "validate": _COMMON,
}


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


def _coerce(opt: Option, value):
    value = opt.kind(opt.name, value)
    if opt.choices and value not in opt.choices:
        *rest, last = opt.choices
        raise ConfigError(f"{opt.name} must be "
                          + (f"{', '.join(rest)} or {last}" if rest else last))
    if opt.check and not opt.check[0](value):
        raise ConfigError(f"{opt.name} {opt.check[1]}")
    return value


def _settle(cfg: dict) -> tuple:
    """(values, problems): every option of the command, coerced and checked
    by its table row, or the row's default where cfg leaves it out; and
    every violated precondition.  An option that fails is left out."""
    command = cfg.get("command")
    if command not in OPTIONS:
        return {}, [f"unknown command {command!r}"]
    rows = {opt.name: opt for opt in OPTIONS[command]}
    problems = [f"unknown key {key!r} for command {command!r}"
                for key in sorted(cfg) if key != "command" and key not in rows]
    if problems:
        return {}, problems
    values = {"command": command}
    for name, opt in rows.items():
        if name not in cfg and opt.default is None:
            values[name] = None
            continue
        try:
            values[name] = _coerce(opt, cfg.get(name, opt.default))
        except InvalidParams as exc:
            problems.append(str(exc))
    return values, problems + _domain_problems(values)


def validate_config(cfg: dict) -> list:
    """Every violated precondition, without running anything: what a run
    of cfg would refuse, bar a missing or unwritable out (a run is often
    given --out as a flag)."""
    return _preflight(cfg)[1]


def _preflight(cfg: dict) -> tuple:
    """(values, problems): _settle's, then each key the run cannot do
    without that cfg leaves out and, when nothing else is wrong, the
    preconditions of the calls the run makes.  main refuses to run on any
    of them, so validate and the run agree."""
    values, problems = _settle(cfg)
    if not values:
        return values, problems
    problems += [f"missing {key}" for key in _required_keys(values)
                 if key in values and values[key] is None]
    if problems:
        return values, problems
    for check in _run_checks(values):
        try:
            check()
        except InvalidParams as exc:
            # a rule that every n of a schedule breaks is one problem
            if str(exc) not in problems:
                problems.append(str(exc))
    return values, problems


def _s_shape_spec(phi1: str, c: float, theta: float) -> SShapeSpec:
    return SShapeSpec(phi1=named_test_function(phi1), c=c, theta=theta)


def _known_payoff(name: str) -> None:
    if name != "s-shape":
        named_test_function(name)


# the interval that each model and each PDE problem reads: its class and
# the two keys that build it
_INTERVAL_OF = {
    "variance": (VarianceInterval, ("sigma_low", "sigma_high")),
    "g-heat": (VarianceInterval, ("sigma_low", "sigma_high")),
    "mean": (MeanInterval, ("mu_low", "mu_high")),
    "g-expectation": (MeanInterval, ("mu_low", "mu_high")),
}

# rules over several keys, held by the domain objects: (build, keys)
_DOMAIN_RULES = (
    (SeedSpec, ("seed", "stream")),
    *dict.fromkeys(_INTERVAL_OF.values()),
    (_s_shape_spec, ("s_phi1", "s_center", "s_theta")),
    (_known_payoff, ("terminal",)),
    (_known_payoff, ("phi",)),
    (lambda family, *params: density_pdf(DENSITY_FAMILIES[family],
                                         DensityParams(*params)),
     ("family", "alpha", "beta", "c")),
)


def _domain_problems(values: dict) -> list:
    problems = []
    for build, keys in _DOMAIN_RULES:
        args = [values.get(key) for key in keys]
        if None in args:
            continue
        try:
            build(*args)
        except InvalidParams as exc:
            problems.append(str(exc))
    for family, params in _density_curves(values):
        try:
            check_curve_scale(family, params, values["grid"])
        except InvalidParams as exc:
            if str(exc) not in problems:
                problems.append(str(exc))
    return problems


def _density_curves(values: dict) -> list:
    """(family, params) of every curve that the density or the figures run
    of the settled values emits on values["grid"]."""
    if values.get("grid") is None:
        return []
    if values["command"] == "figures":
        return [curve for _, curves in PAPER_FIGURES for curve in curves]
    params = [values.get(key) for key in ("alpha", "beta", "c")]
    if values.get("family") is None or None in params:
        return []
    return [(DENSITY_FAMILIES[values["family"]], DensityParams(*params))]


def _required_keys(values: dict) -> list:
    """The keys that the run of the settled values reads and that have no
    default, on the path (problem, model, chain or target) they pick."""
    command = values["command"]
    keys = {"density": ["family"], "solve": ["problem", "terminal"],
            "converge": ["model", "phi"], "check": ["chain"],
            "simulate": ["target"]}.get(command, [])
    if command == "check" and values.get("chain") == "lindeberg":
        keys += ["model"]
    if command == "simulate" and values.get("target") == "policy":
        keys += ["model", "phi"]
    if command == "solve" or "model" in keys:
        name = values.get("problem" if command == "solve" else "model")
        keys += _INTERVAL_OF.get(name, (None, ()))[1]
    return keys


def _run_checks(values: dict) -> list:
    """The preconditions of the calls that the run of the settled values
    makes, as zero-argument checks: the builders the run uses, and the
    checks and minimums of the functions it calls."""
    command = values["command"]
    path = values.get({"solve": "problem", "check": "chain",
                       "simulate": "target"}.get(command))
    checks = []
    if command == "solve" and path == "g-expectation":
        checks.append(lambda: check_mean_solve_inputs(build_payoff(values, "terminal")))
    if command == "converge" or path == "policy":
        ns = values["schedule"] if command == "converge" else [_simulate_n(values)]
        checks += [functools.partial(_rect_model, values, n) for n in ns]
        checks.append(lambda: check_dp_inputs(build_payoff(values, "phi")))
    if path == "classical":
        model = IidModel(_law(values), values["delta"])
        checks += [functools.partial(lyapunov_statistic, model, n)
                   for n in _ns(values, CLASSICAL_NS)]
    if path == "lindeberg":
        checks += [functools.partial(_rect_model, values, n) for n in _ns(values)]
    if path == "martingale":
        checks.append(functools.partial(require_at_least, "reps", values["reps"],
                                        BROWN_MIN_REPS))
        checks += [functools.partial(_mds_model, values, n) for n in _ns(values)]
    if path == "clt":
        checks.append(functools.partial(require_at_least, "reps",
                                        _simulate_reps(values), CLT_MIN_REPS))
    if path == "hall":
        checks.append(functools.partial(hall_limit, values["etas"], values["probs"],
                                        values["kn"], _simulate_reps(values)))
    if path == "mixture":
        checks.append(functools.partial(_mixture_limit, values))
    return checks


def _out(cfg: dict) -> str:
    """cfg["out"], which every run writes to and validate does not ask for."""
    if cfg["out"] is None:
        raise ConfigError("missing out")
    return cfg["out"]


def _or(value, default):
    return default if value is None else value


def _ns(cfg: dict, default=(100, 400)) -> list:
    return _or(cfg["ns"], list(default))


def _simulate_n(cfg: dict) -> int:
    return _or(cfg["n"], 100 if cfg["target"] == "policy" else 10_000)


def _simulate_reps(cfg: dict) -> int:
    return _or(cfg["reps"], 100_000 if cfg["target"] == "hall" else 10_000)


def _mixture_limit(cfg: dict) -> MixtureLimit:
    return MixtureLimit(DiscreteLaw(cfg["atoms"], cfg["probs"]))


def build_payoff(cfg: dict, key: str):
    """The payoff named by cfg[key].  An s-shape reads its s_* options from
    cfg, or their table defaults where cfg leaves them unset."""
    name = cfg[key]
    if name != "s-shape":
        return named_test_function(name)
    s = {opt.name: _or(cfg.get(opt.name), opt.default) for opt in _S_SHAPE}
    spec = _s_shape_spec(s["s_phi1"], s["s_center"], s["s_theta"])
    return make_s_shaped(spec, s["s_envelope"])


def write_table(path: str, header: str, blocks) -> None:
    """csvio.write_csv_atomic, reporting a path it cannot write (a
    directory, or a path under a regular file) as a ConfigError."""
    try:
        csvio.write_csv_atomic(path, header, blocks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _rows_block(rows) -> list:
    """The blocks of a table of a few rows: one, its columns as tuples."""
    return [tuple(zip(*rows))]


# ---------------------------------------------------------------------------
# command implementations: each reads its table's options, coerced, from cfg
# ---------------------------------------------------------------------------

# the density family of each --family choice
DENSITY_FAMILIES = {"chen-epstein": "chen_epstein", "cez": "cez"}


def cmd_density(cfg: dict) -> int:
    family = DENSITY_FAMILIES[cfg["family"]]
    params = DensityParams(cfg["alpha"], cfg["beta"], cfg["c"])
    curve = emit_density_curve(params, family, cfg["grid"])
    write_table(_out(cfg), "y,density", [(curve[:, 0], curve[:, 1])])
    return 0


# (file name, [(family, params), ...]) of each paper figure
PAPER_FIGURES = (
    ("figure1_mean_density_alpha_nonpositive.csv",
     [("chen_epstein", DensityParams(a, 0.0, 0.0)) for a in (-1.0, -0.5, 0.0)]),
    ("figure2_mean_density_alpha_nonnegative.csv",
     [("chen_epstein", DensityParams(a, 0.0, 0.0)) for a in (0.0, 0.5, 1.0)]),
    ("figure3_variance_density_sup.csv", [("cez", DensityParams(1.0, 2.0, 0.0))]),
    ("figure4_variance_density_inf.csv", [("cez", DensityParams(2.0, 1.0, 0.0))]),
    ("figure5_normal_comparison.csv",
     [("cez", DensityParams(1.0, 2.0, 0.0)), ("cez", DensityParams(2.0, 1.0, 0.0)),
      ("chen_epstein", DensityParams(0.0, 0.0, 0.0))]),
)


def _figure_curves(entry, grid: Grid1D):
    """(file name, [(label, curve), ...]) for one paper figure: a curve
    is labelled by its alpha in a one-family figure, else by its family
    and all three parameters."""
    name, curves = entry
    mixed = len({family for family, _ in curves}) > 1
    fmt = csvio.format_value
    labelled = []
    for family, p in curves:
        label = (f"{family}({fmt(p.alpha)},{fmt(p.beta)},{fmt(p.c)})" if mixed
                 else f"alpha={fmt(p.alpha)}")
        labelled.append((label, emit_density_curve(p, family, grid)))
    return name, labelled


def cmd_figures(cfg: dict) -> int:
    out_dir = _out(cfg)
    tables = [_figure_curves(e, cfg["grid"]) for e in PAPER_FIGURES]
    # every curve's y column, the bits of each curve[:, 0]: one array, so a
    # table renders its cells once
    y = cfg["grid"].values()
    for name, curves in tables:  # compute everything before writing anything
        write_table(os.path.join(out_dir, name), "y,curve,density",
                    [(y, label, curve[:, 1]) for label, curve in curves])
    return 0


def _grid_blocks(grid) -> list:
    """The t,x,u table of a ValueGrid: one block per stored layer, each
    with the one grid.x array, whose cells render once."""
    return [(csvio.format_value(t), grid.x, layer)
            for t, layer in zip(grid.times.tolist(), grid.values)]


def cmd_solve(cfg: dict) -> int:
    terminal = build_payoff(cfg, "terminal")
    build, keys = _INTERVAL_OF[cfg["problem"]]
    interval = build(*(cfg[key] for key in keys))
    solve = solve_g_heat if cfg["problem"] == "g-heat" else solve_g_expectation
    grid = solve(interval, terminal, cfg["side"],
                 space_points=cfg["space_points"], time_steps=cfg["time_steps"],
                 tree_steps=cfg["tree_steps"])
    at_end = terminal(grid.x)
    low, high = float(at_end.min()), float(at_end.max())
    slack = 1e-12 * max(1.0, high - low)
    excess = max(low - grid.min_seen, grid.max_seen - high)
    if excess > slack:
        # a grid too coarse for the extrapolation, or a drift past Peclet 1
        print(f"warning: the solution reaches [{grid.min_seen:.6g}, "
              f"{grid.max_seen:.6g}], {excess:.3g} outside the terminal's range "
              f"[{low:.6g}, {high:.6g}] on the grid; increase space_points",
              file=sys.stderr)
    rows = [("u0", grid.u0)]
    if grid.tree_value is not None:
        rows.append(("tree_value", grid.tree_value))
        rows.append(("abs_gap", abs(grid.u0 - grid.tree_value)))
    if cfg["grid_out"]:
        write_table(cfg["grid_out"], "t,x,u", _grid_blocks(grid))
    write_table(_out(cfg), "name,value", _rows_block(rows))
    return 0


def _rect_model(cfg: dict, n: int) -> RectangularModel:
    build, keys = _INTERVAL_OF[cfg["model"]]
    interval = build(*(cfg[key] for key in keys))
    if cfg["model"] == "mean":
        return RectangularModel.mean_uncertain(interval, cfg["sigma"], n)
    return RectangularModel.variance_uncertain(interval, n)


def cmd_converge(cfg: dict) -> int:
    schedule = cfg["schedule"]
    model = _rect_model(cfg, schedule[0])
    phi = build_payoff(cfg, "phi")
    rows = convergence_experiment(model, phi, schedule, cfg["side"])
    write_table(_out(cfg), "n,dp_value,limit_value,gap", _rows_block(rows))
    return 0


def _law(cfg: dict) -> DiscreteLaw:
    if cfg["law"] == "bernoulli":
        return DiscreteLaw.bernoulli(cfg["p"])
    return DiscreteLaw.rademacher()


def _check_classical(cfg: dict):
    law = _law(cfg)
    model = IidModel(law, cfg["delta"])
    rows = []
    for n in _ns(cfg, CLASSICAL_NS):
        rows.append((n, "lyapunov", lyapunov_statistic(model, n)))
        rows.append((n, "lindeberg", lindeberg_statistic(model, n, cfg["eps"])))
        rows.append((n, "feller", feller_ratio([law.variance()] * n)))
    return "n,statistic,value", rows


def _mds_model(cfg: dict, n: int) -> MdsModel:
    if cfg["mds"] == "hall":
        return MdsModel.hall_mixture(cfg["etas"], cfg["probs"], n)
    if cfg["mds"] == "var-feedback":
        return MdsModel.var_feedback(cfg["sigma_plus"], cfg["sigma_minus"], n)
    return MdsModel.iid_rademacher(n)


def _check_martingale(cfg: dict):
    spec = SeedSpec(cfg["seed"], cfg["stream"])
    reps = cfg["reps"]
    rows = []
    for n in _ns(cfg):
        model = _mds_model(cfg, n)
        levy = levy_condition_terms(model, spec, eps=cfg["eps"])
        for label, value in zip(("levy_tail_sum", "levy_trunc_mean",
                                 "levy_trunc_second", "levy_trunc_mean_sq"),
                                levy):
            rows.append((n, label, value))
        b1, b2 = brown_ratios(model, reps, spec)
        rows.append((n, "brown_variance_ratio", b1))
        rows.append((n, "brown_max_ratio", b2))
        est, se = mcleish_product_mean(model, cfg["t"],
                                       max(reps, MCLEISH_MIN_REPS), spec)
        rows.append((n, "mcleish_abs_error", abs(est - 1.0)))
        rows.append((n, "mcleish_stderr", se))
    return "n,condition,value", rows


def _check_lindeberg(cfg: dict):
    rows = []
    for n in _ns(cfg):
        model = _rect_model(cfg, n)
        rows.append((n, "worst_case_lindeberg",
                     lindeberg_condition_value(model, cfg["eps"])))
    return "n,condition,value", rows


def cmd_check(cfg: dict) -> int:
    chains = {"classical": _check_classical, "martingale": _check_martingale,
              "lindeberg": _check_lindeberg}
    header, rows = chains[cfg["chain"]](cfg)
    write_table(_out(cfg), header, _rows_block(rows))
    return 0


def cmd_simulate(cfg: dict) -> int:
    target = cfg["target"]
    spec = SeedSpec(cfg["seed"], cfg["stream"])
    n = _simulate_n(cfg)
    reps = _simulate_reps(cfg)
    rows = []
    if target == "clt":
        d = simulate_clt_distance(IidModel(_law(cfg)), n, reps, spec)
        rows.append(("ks_distance", d))
    elif target == "hall":
        d = hall_convergence_check(cfg["etas"], cfg["probs"], cfg["kn"], reps, spec)
        rows.append(("ks_distance", d))
    elif target == "mixture":
        limit = _mixture_limit(cfg)
        sample = hall_mixture_sampler(limit, reps, spec)
        rows.append(("sample_mean", float(np.mean(sample))))
        rows.append(("sample_variance", float(np.var(sample))))
        rows.append(("second_moment_target", limit.second_moment()))
    else:
        model = _rect_model(cfg, n)
        phi = build_payoff(cfg, "phi")
        value, policy = sup_expectation_dp(model, phi, cfg["side"])
        est, se = policy_simulate(model, policy, phi, reps, spec)
        rows.append(("dp_value", value))
        rows.append(("policy_estimate", est))
        rows.append(("policy_stderr", se))
    write_table(_out(cfg), "name,value", _rows_block(rows))
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


# command -> (implementation, one-line help)
COMMANDS = {
    "density": (cmd_density, "emit one density curve"),
    "figures": (cmd_figures, "emit the paper figure curve sets"),
    "solve": (cmd_solve, "solve a terminal-value problem"),
    "converge": (cmd_converge, "DP values against the nonlinear limit"),
    "check": (cmd_check, "condition statistic reports"),
    "simulate": (cmd_simulate, "seeded Monte Carlo runs"),
    "validate": (cmd_validate, "report config violations, run nothing"),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """One subparser per command and one flag per row of its table.  Flags
    keep the default None, so that merge_config sees only the flags given,
    and take only their full names, which _fuse_flag_values knows."""
    parser = argparse.ArgumentParser(
        prog="nlclt", allow_abbrev=False,
        description="Numerical laboratory for classical, martingale and "
                    "nonlinear central limit theorems")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        for opt in OPTIONS[command]:
            text = opt.help if opt.default is None else \
                f"{opt.help} (default: {opt.default})"
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                           type=_FLAG_TYPES.get(opt.kind),
                           choices=opt.choices or None, help=text)
    return parser


# every flag of a table row
_FLAGS = {"--" + opt.name.replace("_", "-") for rows in OPTIONS.values() for opt in rows}


def _fuse_flag_values(argv):
    """Rewrite `--key value` to `--key=value` for every flag of a table row,
    so that argparse does not read a value such as `-1e-3` or `-4:4:801`
    as an option.  A value that is itself such a flag, or -h/--help, is
    left apart, so that `--out --seed 1` still lacks its value."""
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] in _FLAGS and i + 1 < len(argv)
                and argv[i + 1] not in _FLAGS | {"-h", "--help"}):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


_parser = None  # main's parser, built by its first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser.parse_args(_fuse_flag_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return cmd_validate(vars(args))
        cfg, problems = _preflight(merge_config(args))
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
        return COMMANDS[cfg["command"]][0](cfg)
    except InvalidParams as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NlcltError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
