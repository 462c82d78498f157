"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q
"""
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nlclt import cli, sublinear  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_of_a_nested_tree():
    tree = [Span("root", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("a1", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0),
            Span("later", 12.0, 13.0, -1, 0)]
    own, covered = self_times(tree)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    assert covered == pytest.approx(11.0)  # the gap 10..12 is not covered
    assert sum(own) == pytest.approx(covered)


def test_self_time_with_shared_boundaries():
    tree = [Span("outer", 0.0, 2.0, -1, 0),
            Span("inner", 0.0, 2.0, 0, 0),
            Span("zero", 1.0, 1.0, 1, 0),
            Span("next", 2.0, 3.0, -1, 0)]
    own, covered = self_times(tree)
    assert own == pytest.approx([0.0, 2.0, 0.0, 1.0])
    assert covered == pytest.approx(3.0)


def test_self_time_splits_concurrent_workers():
    # a waiting parent gets nothing while its worker-thread children run;
    # two workers running at once share that time
    tree = [Span("main", 0.0, 10.0, -1, 0),
            Span("w1", 2.0, 6.0, 0, 1),
            Span("w2", 4.0, 8.0, 0, 2)]
    own, covered = self_times(tree)
    assert own == pytest.approx([4.0, 3.0, 3.0])
    assert covered == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

SMALL_SOLVE = ["solve", "--problem", "g-heat", "--sigma-low", "1", "--sigma-high",
               "2", "--terminal", "abs", "--space-points", "101", "--tree-steps", "50"]


def test_tracer_wraps_every_binding_and_keeps_bytes(tmp_path):
    original = sublinear.solve_g_heat
    assert cli.main(SMALL_SOLVE + ["--out", str(tmp_path / "plain.csv")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        # cli imported the function by name: its binding is wrapped too
        assert cli.solve_g_heat is sublinear.solve_g_heat is not original
        assert cli.main(SMALL_SOLVE + ["--out", str(tmp_path / "traced.csv")]) == 0
    finally:
        tracer.uninstall()
    assert cli.solve_g_heat is sublinear.solve_g_heat is original
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()

    names = [s.name for s in tracer.spans]
    main = names.index("cli.main")
    solve = names.index("sublinear.solve_g_heat")
    assert tracer.spans[main].parent == -1
    assert tracer.spans[solve].parent == main
    assert tracer.counts["sublinear.solve_g_heat"] == {"calls": 1, "grid_points": 101}
    assert tracer.counts["sublinear.tree_value_oracle"]["cell_steps"] == 50 * 4001 * 2
    assert tracer.counts["cli.main"] == {"calls": 1, "failures": 0}
    assert not any(n in spans.PER_ELEMENT for n in names)


def test_worker_thread_spans_hang_under_the_waiting_span(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["figures", "--set", "paper", "--grid=-4:4:41",
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    main = [i for i, s in enumerate(tracer.spans) if s.name == "cli.main"]
    curves = [s for s in tracer.spans if s.name == "densities.emit_density_curve"]
    assert len(main) == 1 and len(curves) == 11
    assert all(s.parent == main[0] for s in curves)
    own, covered = self_times(tracer.spans)
    assert sum(own) == pytest.approx(covered)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    for seed in range(12):
        assert workloads.make_plan(seed) == workloads.make_plan(seed)
    assert len({repr(workloads.make_plan(s)) for s in range(12)}) == 12
    for name in ("pde-oracle", "dp-converge", "density-mc"):
        assert (workloads.describe(workloads.build_ops(name, 7))
                == workloads.describe(workloads.build_ops(name, 7)))


def test_default_seed_reproduces_criterion_6():
    from test_acceptance import _acceptance_problems
    plan = workloads.make_plan(workloads.DEFAULT_SEED)
    parser = cli.build_parser()
    ours = workloads.pde_problems(plan)
    theirs = _acceptance_problems()
    assert [p[0] for p in ours] == [p[0] for p in theirs]
    for (_, tail, target, tol), (name, gen, terminal, their_target, their_tol) in zip(ours, theirs):
        args = parser.parse_args(["solve"] + tail)
        interval = gen.interval
        if isinstance(gen, sublinear.GVariance):
            assert (args.sigma_low, args.sigma_high) == (interval.sigma_low, interval.sigma_high)
        else:
            assert (args.mu_low, args.mu_high, args.side) == (interval.mu_low,
                                                             interval.mu_high, gen.side)
        built = cli.build_payoff(vars(args), "terminal")
        assert built.name == terminal.name and built.s_shape == terminal.s_shape, name
        assert target == pytest.approx(their_target, abs=1e-15) and tol == their_tol


def test_default_seed_reproduces_criteria_8_and_9_and_the_cli_configs():
    from test_acceptance import ACCEPTANCE_CONFIGS
    parser = cli.build_parser()
    expected = {"mean_sup": ("mean", -0.5, 0.5, "gauss", "sup"),
                "mean_inf": ("mean", -0.5, 0.5, "gauss", "inf"),
                "variance_sup": ("variance", 1.0, 2.0, "s-shape", "sup"),
                "variance_inf": ("variance", 1.0, 2.0, "s-shape", "inf")}
    for name, tail, _ in workloads.converge_experiments():
        a = vars(parser.parse_args(["converge"] + tail))
        lo, hi = (a["mu_low"], a["mu_high"]) if a["model"] == "mean" else (a["sigma_low"],
                                                                            a["sigma_high"])
        assert (a["model"], lo, hi, a["phi"], a["side"]) == expected[name]
        if a["phi"] == "s-shape":
            assert (a["s_phi1"], a["s_theta"], a["s_center"]) == ("tanh", 0.5, 0.0)
            assert a["s_envelope"] == ("phibar" if a["side"] == "sup" else "phi")
    assert workloads.SCHEDULE == (125, 250, 500, 1000, 2000)

    plan = workloads.make_plan(workloads.DEFAULT_SEED)
    assert (plan.enum_units, plan.enum_side) == ((1, 2), "sup")
    densities = {tuple(c[1:9]) for c in ACCEPTANCE_CONFIGS if c[0] == "density"}
    assert ("--family", "cez", "--alpha", "1", "--beta", "2", "--c", "0") in densities
    assert ("--family", "chen-epstein", "--alpha", "-0.5", "--beta", "0", "--c",
            "0") in densities
    assert plan.cez_params == (1.0, 2.0, 0.0) and plan.ce_params == (-0.5, 0.0, 0.0)
    simulate_seeds = {c[c.index("--seed") + 1] for c in ACCEPTANCE_CONFIGS
                      if c[0] == "simulate"}
    chain_seeds = {c[c.index("--seed") + 1] for c in ACCEPTANCE_CONFIGS if c[0] == "check"
                   and "--seed" in c}
    assert simulate_seeds == {str(plan.mc_seed)}
    assert chain_seeds == {str(plan.chain_seed)}


def test_lattice_enumeration_matches_a_hand_count():
    # n = 1 with scales {1, 2}: the adversary picks the larger spread for
    # a convex payoff, E phi(+-2) = 4 for phi = x^2
    value = workloads.lattice_enumeration(1, lambda s: s * s, "sup", (1, 2), 1.0)
    assert value == pytest.approx(4.0)
    assert workloads.lattice_enumeration(1, lambda s: s * s, "inf", (1, 2), 1.0) == \
        pytest.approx(1.0)


def test_curve_mass_corrects_a_jump():
    # density 1.5 on [-0.5, 0), 0.5 on [0, 1): mass 1.25; grid misses 0
    y = [-0.5 + 0.3 * i for i in range(6)]
    f = [1.5 if v < 0 else 0.5 for v in y]
    import numpy as np
    y, f = np.array(y), np.array(f)
    mass = workloads.curve_mass(y, f, (0.0, 1.5, 0.5))
    assert mass == pytest.approx(1.5 * 0.5 + 0.5 * (y[-1]))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def test_perturbed_target_fails_the_gate(tmp_path, monkeypatch):
    op = workloads.classical_op()
    runner = run.Runner([op], tmp_path)
    runner.run_pass("clean")
    assert runner.failures == []
    monkeypatch.setattr(workloads, "EXACT_ATOM_100_50", workloads.EXACT_ATOM_100_50 + 1e-12)
    runner.run_pass("perturbed")
    assert len(runner.failures) == 1 and "laplace_exact" in runner.failures[0]


def test_perturbed_enumeration_fails_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ENUM_MAX_N", 4)
    op = workloads.enumeration_op(workloads.make_plan(0))
    runner = run.Runner([op], tmp_path)
    runner.run_pass("clean")
    assert runner.failures == []
    exact = workloads.lattice_enumeration
    monkeypatch.setattr(workloads, "lattice_enumeration", lambda *a: exact(*a) + 1e-9)
    runner.run_pass("perturbed")
    assert len(runner.failures) == 1 and "dp_vs_enumeration" in runner.failures[0]


def test_perturbed_frozen_oracle_fails_a_cli_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FIGURE_GRID", "-4:4:801")
    assert run.Runner([workloads.figures_op()], tmp_path).run_pass("clean")["ops"][0][
        "failure"] is None
    monkeypatch.setattr(workloads, "SPIKE_AT_0", workloads.SPIKE_AT_0 + 1e-3)
    runner = run.Runner([workloads.figures_op()], tmp_path)
    runner.run_pass("perturbed")
    assert len(runner.failures) == 1 and "spike_at_0" in runner.failures[0]


def test_changed_csv_bytes_fail_the_pass(tmp_path):
    state = {"n": 0}

    def write(work):
        state["n"] += 1
        (Path(work) / "out.csv").write_text(f"name,value\nx,{state['n']}\n")

    op = workloads.Op("counter", "csvio", 1, 0.0, {}, write,
                      lambda result, work: [("none", "bound", 0.0, 0.0)], ("out.csv",))
    runner = run.Runner([op], tmp_path)
    runner.run_pass("one")
    runner.run_pass("two")
    assert runner.failures == ["two counter: CSV bytes differ from the first pass"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["bench"] and math.isfinite(spec["run_seconds"])


def test_op_walls_are_scaled_by_the_reference_around_them(tmp_path, monkeypatch):
    refs = iter([0.02, 0.01, 0.04])
    monkeypatch.setattr(run, "reference_s", lambda: next(refs))
    op = workloads.Op("noop", "cli", 1, 0.0, {}, lambda work: None,
                      lambda result, work: [("none", "bound", 0.0, 0.0)])
    done = run.Runner([op, op], tmp_path).run_pass("one")
    first, second = done["ops"]
    assert first["ref_s"] == pytest.approx(0.015) and second["ref_s"] == pytest.approx(0.025)
    assert first["norm_wall_s"] == pytest.approx(first["wall_s"] * run.REF_NOMINAL_S / 0.015)
    assert done["norm_wall_s"] == pytest.approx(first["norm_wall_s"] + second["norm_wall_s"])
