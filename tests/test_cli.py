import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers_dp import assert_no_child_left, forked  # noqa: F401 (a fixture)
from nlclt import cli, csvio, measure_dp
from nlclt.cli import (OPTIONS, build_parser, main, merge_config, parse_grid,
                       validate_config)
from nlclt.densities import (DensityParams, MeanInterval, VarianceInterval,
                             emit_density_curve)
from nlclt.errors import ConfigError
from nlclt.numerics import std_normal_pdf
from nlclt.sublinear import (DEFAULT_SPACE_POINTS, SShapeSpec, ValueGrid,
                             make_s_shaped, named_test_function, solve_g_heat)
from test_split import ForkProtocol


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def run(*argv):
    return main(list(argv))


def assert_one_config_error(tmp_path, capsys, argv, problem):
    """argv, run with numpy warnings as errors, exits 2 with the one line
    `config error: problem` and writes nothing; validate reports the same
    problem for the equivalent JSON config."""
    out = tmp_path / "never.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(*argv, "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"
    assert not out.exists()
    cfg = merge_config(build_parser().parse_args(argv))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run("validate", "--config", str(cfg_path)) == 0
    assert capsys.readouterr().out == \
        f"validation report: 1 violation(s)\n  - {problem}\n"


class TestDensityCommand:
    def test_alpha_zero_equals_standard_normal(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run("density", "--family", "chen-epstein", "--alpha", "0",
                   "--beta", "0", "--c", "0", "--grid=-4:4:801",
                   "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "y,density"
        assert len(rows) == 802
        y, d = map(float, rows[401].split(","))
        assert y == 0.0
        assert d == pytest.approx(float(std_normal_pdf(0.0)), abs=1e-15)
        for line in rows[1:]:
            y, d = map(float, line.split(","))
            assert d == pytest.approx(float(std_normal_pdf(y)), rel=1e-12, abs=1e-300)

    def test_cez_negative_alpha_rejected_before_writing(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run("density", "--family", "cez", "--alpha", "-1", "--beta", "2",
                   "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_cez_scales_refused_with_the_density_module_s_message(self, tmp_path,
                                                                capsys):
        assert_one_config_error(
            tmp_path, capsys,
            ["density", "--family", "cez", "--alpha", "-1", "--beta", "2"],
            "cez density needs alpha > 0 and beta > 0, got (-1.0, 2.0)")

    def test_cez_scales_and_a_bad_grid_are_both_reported(self, tmp_path, capsys):
        problems = ["grid needs a finite span hi - lo, got [-1e+308, 1e+308]",
                    "cez density needs alpha > 0 and beta > 0, got (-1.0, 2.0)"]
        argv = ["density", "--family", "cez", "--alpha", "-1", "--beta", "2",
                "--grid=-1e308:1e308:3"]
        out = tmp_path / "never.csv"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            "".join(f"config error: {p}\n" for p in problems)
        assert not out.exists()
        assert validate_config(merge_config(build_parser().parse_args(argv))) \
            == problems

    def test_unknown_subcommand_exits_2(self, tmp_path, capsys):
        assert run("transmogrify") == 2


class TestFiguresCommand:
    def test_paper_set_writes_five_files(self, tmp_path):
        out = tmp_path / "figs"
        assert run("figures", "--set", "paper", "--out", str(out)) == 0
        files = sorted(os.listdir(out))
        assert len(files) == 5
        assert files == [
            "figure1_mean_density_alpha_nonpositive.csv",
            "figure2_mean_density_alpha_nonnegative.csv",
            "figure3_variance_density_sup.csv",
            "figure4_variance_density_inf.csv",
            "figure5_normal_comparison.csv",
        ]
        fig1 = (out / files[0]).read_text().splitlines()
        assert fig1[0] == "y,curve,density"
        labels = {line.split(",")[1] for line in fig1[1:]}
        assert labels == {"alpha=-1", "alpha=-0.5", "alpha=0"}

    @pytest.mark.parametrize("name, labels", [
        ("figure3_variance_density_sup.csv", ["alpha=1"]),
        ("figure5_normal_comparison.csv",
         ["cez(1,2,0)", "cez(2,1,0)", "chen_epstein(0,0,0)"]),
    ])
    def test_curve_labels(self, tmp_path, name, labels):
        # a one-family figure names each curve by its alpha, a mixed one by
        # its family and all three parameters
        out = tmp_path / "figs"
        assert run("figures", "--set", "paper", "--grid=-1:1:3", "--out", str(out)) == 0
        rows = (out / name).read_text().splitlines()[1:]
        # y,curve,density: the label sits between the first and last comma
        assert [line.split(",", 1)[1].rsplit(",", 1)[0] for line in rows[::3]] \
            == labels


class TestSolveCommand:
    def test_g_heat_scalar_and_grid(self, tmp_path):
        out = tmp_path / "solve.csv"
        gout = tmp_path / "grid.csv"
        code = run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "1", "--terminal", "gauss_half",
                   "--space-points", "801", "--out", str(out),
                   "--grid-out", str(gout))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["u0"]) == pytest.approx(1 / math.sqrt(2), abs=2e-3)
        grid_rows = gout.read_text().splitlines()
        assert grid_rows[0] == "t,x,u"
        assert len(grid_rows) > 801

    def test_unstable_resolution_exits_1_without_output(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "2", "--terminal", "gauss",
                   "--space-points", "1001", "--time-steps", "50",
                   "--out", str(out))
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, spacing, move, points", [
        (["--problem", "g-expectation", "--mu-low", "-0.5", "--mu-high", "0.5"],
         "0.5045", "0.0223607", 4003),
        (["--problem", "g-heat", "--sigma-low", "1", "--sigma-high", "2"],
         "0.508", "0.0447214", 4001),
    ], ids=["mean", "variance"])
    def test_an_oracle_lattice_coarser_than_its_step_exits_1(
            self, tmp_path, capsys, argv, spacing, move, points):
        # a junction 1000 away widens the domain, and so the oracle's cells,
        # to about 0.5, past twice the 2000-step tree's move
        out = tmp_path / "solve.csv"
        code = run("solve", *argv, "--terminal", "s-shape", "--s-center",
                   "1000", "--tree-steps", "2000", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"numerical failure: the DP lattice's spacing {spacing} is more "
            f"than 2 times the step's smallest innovation move {move} at "
            f"n = 2000 ({points} grid points)\n")
        assert not out.exists()

    @pytest.mark.parametrize("points", ["1", "2"])
    def test_too_few_space_points_is_config_error(self, tmp_path, capsys,
                                                  points):
        out = tmp_path / "solve.csv"
        code = run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "2", "--terminal", "gauss",
                   "--space-points", points, "--out", str(out))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "space_points" in err

    def test_default_grid_t0_layer_matches_u0(self, tmp_path):
        # the check a benchmark run of the convex solve makes on --grid-out
        out = tmp_path / "solve.csv"
        gout = tmp_path / "grid.csv"
        code = run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "2", "--terminal", "abs",
                   "--out", str(out), "--grid-out", str(gout))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        table = np.loadtxt(gout, delimiter=",", skiprows=1)
        last = table[table[:, 0] == 0.0]
        assert len(last) == DEFAULT_SPACE_POINTS
        assert abs(np.interp(0.0, last[:, 1], last[:, 2]) - float(rows["u0"])) <= 1e-12

    @pytest.mark.parametrize("time_steps, code", [
        ("100", 1), ("600", 1), ("700", 0), ("1000", 0)])
    def test_explicit_time_steps_g_heat(self, tmp_path, time_steps, code):
        # 401 points on [-8, 8]: dt_max = 1.6e-3, stable from 625 steps
        out = tmp_path / "solve.csv"
        assert run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "1", "--terminal", "gauss_half",
                   "--space-points", "401", "--time-steps", time_steps,
                   "--out", str(out)) == code
        if code == 0:
            rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
            assert float(rows["u0"]) == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    @pytest.mark.parametrize("time_steps, code", [
        ("100", 1), ("600", 0), ("700", 0), ("1000", 0)])
    def test_explicit_time_steps_g_expectation(self, tmp_path, time_steps, code):
        # 401 points on [-8.5, 8.5]: dt_max = 1.8e-3, stable from 556 steps
        out = tmp_path / "solve.csv"
        assert run("solve", "--problem", "g-expectation", "--mu-low", "0",
                   "--mu-high", "0.5", "--side", "sup", "--terminal",
                   "normal_cdf", "--space-points", "401", "--time-steps",
                   time_steps, "--out", str(out)) == code
        if code == 0:
            rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
            assert float(rows["u0"]) == pytest.approx(0.5 * math.erfc(-0.25), abs=2e-4)

    def test_drift_too_large_for_the_grid_exits_1(self, tmp_path, capsys):
        out = tmp_path / "solve.csv"
        assert run("solve", "--problem", "g-expectation", "--mu-low", "0",
                   "--mu-high", "1e6", "--side", "sup", "--terminal",
                   "normal_cdf", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("numerical failure: |mu| * dx")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # the extrapolation on a 4-point grid reaches 1.035
        ["--mu-low", "-0.5", "--mu-high", "0.5", "--space-points", "4"],
        # |mu| * 2 * dx = 21.6 on the coarse grid: not monotone, reaches 1.006
        ["--mu-low", "0", "--mu-high", "100"],
    ])
    def test_solution_outside_the_terminal_range_warns(self, tmp_path, capsys,
                                                        argv):
        out = tmp_path / "solve.csv"
        assert run("solve", "--problem", "g-expectation", *argv, "--side",
                   "sup", "--terminal", "normal_cdf", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: the solution reaches [")
        assert "increase space_points" in err
        assert out.read_text().startswith("name,value\nu0,")

    def test_range_warning_names_the_excess(self, tmp_path, capsys):
        # max_seen is 1 + 5e-6 against a terminal maximum of 1 - 2.5e-14:
        # both print as 1
        assert run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "2", "--terminal", "s-shape", "--s-theta",
                   "1e-300", "--space-points", "11",
                   "--out", str(tmp_path / "solve.csv")) == 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: the solution reaches [")
        excess = re.search(r"\], (\S+) outside the terminal's range", err)
        assert excess and float(excess.group(1)) > 0.0

    S_SHAPE = ["--terminal", "s-shape", "--s-phi1", "tanh", "--s-theta", "0.5",
               "--s-center", "0.0", "--s-envelope", "phibar"]

    @pytest.mark.parametrize("argv", [
        ["g-heat", "--sigma-low", "1", "--sigma-high", "1", "--terminal", "gauss_half"],
        ["g-heat", "--sigma-low", "1", "--sigma-high", "2", "--terminal", "abs"],
        ["g-heat", "--sigma-low", "1", "--sigma-high", "2", "--terminal", "neg_abs"],
        # its max_seen is 1 + 2.7e-15
        ["g-expectation", "--mu-low", "0", "--mu-high", "0.5", "--side", "sup",
         "--terminal", "normal_cdf"],
        ["g-expectation", "--mu-low", "-0.5", "--mu-high", "0.5", "--side", "sup",
         "--terminal", "gauss"],
        ["g-heat", "--sigma-low", "1", "--sigma-high", "2", *S_SHAPE],
    ], ids=["degenerate", "convex", "concave", "increasing",
            "symmetric-decreasing", "s-shaped"])
    def test_criterion_6_problems_do_not_warn(self, tmp_path, capsys, argv):
        assert run("solve", "--problem", *argv,
                   "--out", str(tmp_path / "solve.csv")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("terminal,target", [
        ("abs", math.sqrt(2.0 / math.pi)),            # sigma_low * sqrt(2/pi)
        ("neg_abs", -2.0 * math.sqrt(2.0 / math.pi)),  # -sigma_high * sqrt(2/pi)
    ])
    def test_g_heat_lower_expectation(self, tmp_path, terminal, target):
        out = tmp_path / "solve.csv"
        assert run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "2", "--terminal", terminal, "--side", "inf",
                   "--tree-steps", "2000", "--out", str(out)) == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert abs(float(rows["u0"]) - target) <= 1e-6
        assert float(rows["abs_gap"]) <= 1e-3

    def test_g_expectation_with_tree(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = run("solve", "--problem", "g-expectation", "--mu-low", "0",
                   "--mu-high", "0.5", "--side", "sup", "--terminal",
                   "normal_cdf", "--space-points", "1201", "--tree-steps",
                   "500", "--out", str(out))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["abs_gap"]) <= 1e-2


class TestConvergeCommand:
    def test_pde_fallback_limit_is_extrapolated(self, tmp_path):
        # normal_cdf is not symmetric, so no explicit density gives the
        # limit: it is the two-grid drift solve at 2001 points
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "mean", "--mu-low", "0",
                   "--mu-high", "0.5", "--phi", "normal_cdf", "--side", "sup",
                   "--schedule", "10", "--out", str(out)) == 0
        header, row = out.read_text().splitlines()
        assert header == "n,dp_value,limit_value,gap"
        limit = float(row.split(",")[2])
        assert abs(limit - 0.5 * math.erfc(-0.25)) <= 1e-8

    def test_explicit_limit_of_a_wide_mean_interval(self, tmp_path, capsys):
        # the limit density is 1e-6 wide about c; its peak must not be missed.
        # The DP's lattice for n = 1 spaces its cells 1000 apart for a step
        # of +-2, so the command refuses it rather than report its root
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "mean", "--mu-low", "-1e6",
                   "--mu-high", "1e6", "--schedule", "1", "--phi", "gauss",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "numerical failure: the DP lattice's spacing 1000 is more than 2 "
            "times the step's smallest innovation move 2 at n = 1 "
            "(4001 grid points)\n")
        assert not out.exists()
        model = measure_dp.RectangularModel.mean_uncertain(
            MeanInterval(-1e6, 1e6), 1.0, 1)
        limit = measure_dp._explicit_limit(model, named_test_function("gauss"),
                                           "sup")
        assert abs(limit - 1.0) <= 1e-6

    def test_a_check_lattice_on_the_fine_spacing_exits_1(self, tmp_path, capsys):
        # both lattices snap to the step's move, 0.75: the refinement check
        # would compare the root with itself, and the root is 5.8e-3 under
        # the game's value 0.575609
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "mean", "--mu-low", "-963.1",
                   "--mu-high", "963.1", "--schedule", "4", "--phi", "gauss",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "numerical failure: the DP lattice interpolates at n = 4, and its "
            "2001-point check lattice snaps to the same spacing 0.75 as the "
            "4001-point one, so the refinement check cannot see the "
            "interpolation error\n")
        assert not out.exists()

    def test_a_wide_mean_interval_the_lattice_resolves(self, tmp_path):
        # 2003 controls, the two bounds read between two cells; the game is
        # worth max over c of (phi(c - 2) + phi(c + 2))/2
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "mean", "--mu-low", "-1000.5",
                   "--mu-high", "1000.5", "--schedule", "1", "--phi", "gauss",
                   "--out", str(out)) == 0
        header, row = out.read_text().splitlines()
        phi = named_test_function("gauss")
        assert float(row.split(",")[1]) == pytest.approx(
            (phi(np.array([0.0]))[0] + phi(np.array([4.0]))[0]) / 2, abs=1e-12)

    def test_s_shape_with_another_theta_takes_the_pde_limit(self, tmp_path):
        # theta 0.25 is not sigma_low / sigma_high = 0.5, so the theorem's
        # density does not apply: the limit is the G-heat solve's root
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "variance", "--sigma-low", "1",
                   "--sigma-high", "2", "--phi", "s-shape", "--s-theta", "0.25",
                   "--schedule", "125,2000", "--out", str(out)) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        phi = make_s_shaped(SShapeSpec(named_test_function("tanh"), 0.0, 0.25),
                            "phibar")
        u0 = solve_g_heat(VarianceInterval(1.0, 2.0), phi, "sup").u0
        assert all(abs(row[2] - u0) <= 1e-12 for row in rows)
        assert rows[1][3] < rows[0][3]

    def test_explicit_limit_of_a_narrow_variance_interval(self, tmp_path):
        # q is 1e-4 wide right of c and unit-wide left of it; the S-shape's
        # limit is tanh(0) = 0
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "variance", "--sigma-low", "1e-4",
                   "--sigma-high", "1", "--phi", "s-shape", "--s-theta", "1e-4",
                   "--schedule", "125,2000", "--out", str(out)) == 0
        for line in out.read_text().splitlines()[1:]:
            assert abs(float(line.split(",")[2])) <= 1e-12

    def test_grid_too_coarse_exits_1_and_names_the_n(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(measure_dp, "DEFAULT_GRID_POINTS", 41)
        out = tmp_path / "converge.csv"
        assert run("converge", "--model", "mean", "--mu-low", "-0.5",
                   "--mu-high", "0.5", "--phi", "gauss", "--schedule", "2,200",
                   "--out", str(out)) == 1
        assert re.fullmatch(
            r"numerical failure: grid refinement changes the DP value at "
            r"n = 200 by \S+ > 0\.001 \(\d+ against \d+ grid points\)\n",
            capsys.readouterr().err)
        assert not out.exists()

    def test_zero_sigma_is_a_config_error(self, tmp_path, capsys):
        # the mean model accepts sigma = 0 (the lattice oracle runs it); the
        # command keeps its own sigma > 0 check
        assert run("converge", "--model", "mean", "--mu-low", "-0.5",
                   "--mu-high", "0.5", "--sigma", "0", "--phi", "gauss",
                   "--out", str(tmp_path / "converge.csv")) == 2
        assert "sigma" in capsys.readouterr().err
        assert not (tmp_path / "converge.csv").exists()


class TestCheckAndSimulate:
    def test_classical_chain_report(self, tmp_path):
        out = tmp_path / "check.csv"
        code = run("check", "--chain", "classical", "--law", "rademacher",
                   "--ns", "100,400", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "n,statistic,value"
        table = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
                 for r in rows[1:]}
        assert table[("100", "lyapunov")] == 0.1
        assert table[("400", "lyapunov")] == 0.05
        assert table[("100", "feller")] == 0.01

    def test_martingale_chain_report(self, tmp_path):
        out = tmp_path / "check.csv"
        code = run("check", "--chain", "martingale", "--mds", "hall",
                   "--etas", "1,2", "--probs", "0.5,0.5", "--ns", "25",
                   "--reps", "500", "--seed", "7", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "n,condition,value"
        names = {r.split(",")[1] for r in rows[1:]}
        assert "levy_tail_sum" in names and "brown_variance_ratio" in names

    def test_lindeberg_chain_report(self, tmp_path):
        out = tmp_path / "check.csv"
        code = run("check", "--chain", "lindeberg", "--model", "variance",
                   "--sigma-low", "1", "--sigma-high", "2", "--ns", "1,100",
                   "--eps", "0.1", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[1] == "1,worst_case_lindeberg,4"
        assert rows[2] == "100,worst_case_lindeberg,0"

    def test_simulate_mixture(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run("simulate", "--target", "mixture", "--atoms", "1,2",
                   "--probs", "0.5,0.5", "--reps", "20000", "--seed", "3",
                   "--out", str(out))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["second_moment_target"]) == 2.5
        assert float(rows["sample_variance"]) == pytest.approx(2.5, abs=0.15)

    def test_simulate_policy(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run("simulate", "--target", "policy", "--model", "variance",
                   "--sigma-low", "1", "--sigma-high", "2", "--n", "36",
                   "--phi", "gauss", "--side", "sup", "--reps", "4000",
                   "--seed", "11", "--out", str(out))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        gap = abs(float(rows["dp_value"]) - float(rows["policy_estimate"]))
        assert gap <= 3 * float(rows["policy_stderr"])

    def test_simulate_policy_of_one_step(self, tmp_path):
        # n = 1 drifts +-111.25 cells: 225 controls, past an int8 table
        out = tmp_path / "sim.csv"
        code = run("simulate", "--target", "policy", "--model", "mean",
                   "--mu-low", "-0.5", "--mu-high", "0.5", "--phi", "gauss",
                   "--n", "1", "--out", str(out))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        gap = abs(float(rows["dp_value"]) - float(rows["policy_estimate"]))
        assert gap <= 3 * float(rows["policy_stderr"])


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"command": "density", "family": "chen-epstein", "alpha": 0.0,
               "beta": 0.0, "c": 0.0, "grid": "-2:2:11"}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run("density", "--config", str(cfg_path), "--out", str(out_a)) == 0
        # flag overrides the config's alpha
        assert run("density", "--config", str(cfg_path), "--alpha", "1",
                   "--out", str(out_b)) == 0
        assert read(out_a) != read(out_b)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "density",
                                        "family": "chen-epstein",
                                        "turbo": True}))
        out = tmp_path / "x.csv"
        assert run("density", "--config", str(cfg_path), "--out", str(out)) == 2
        assert not out.exists()

    def test_validate_reports_violations(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({
            "command": "converge", "model": "variance", "sigma_low": 2.0,
            "sigma_high": 1.0, "phi": "gauss", "schedule": "10,0"}))
        assert run("validate", "--config", str(cfg_path)) == 0
        text = capsys.readouterr().out
        assert "sigma_low <= sigma_high" in text
        assert "schedule" in text

    def test_validate_reports_too_few_space_points(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({
            "command": "solve", "problem": "g-heat", "sigma_low": 1.0,
            "sigma_high": 2.0, "terminal": "gauss", "space_points": 2}))
        assert run("validate", "--config", str(cfg_path)) == 0
        assert "space_points must be an integer >= 3" in capsys.readouterr().out

    def test_validate_clean_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "good.json"
        cfg_path.write_text(json.dumps({
            "command": "density", "family": "chen-epstein", "alpha": 0.5,
            "beta": 0.0, "c": 0.0, "out": "x.csv"}))
        assert run("validate", "--config", str(cfg_path)) == 0
        assert "no violations" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg,problems", [
        ({"command": "simulate", "target": "hall", "reps": 10},
         ["need reps >= 1000"]),
        ({"command": "simulate", "target": "clt", "reps": 10},
         ["need reps >= 100"]),
        ({"command": "simulate", "target": "hall", "kn": 10},
         ["need k_n >= 100"]),
        ({"command": "check", "chain": "martingale", "reps": 10},
         ["need reps >= 100"]),
        ({"command": "converge", "model": "mean"},
         ["missing phi", "missing mu_low", "missing mu_high"]),
        ({"command": "simulate", "target": "policy", "model": "variance",
          "sigma_low": 1.0, "sigma_high": 2.0, "phi": "abs"},
         ["the adversarial DP needs a bounded payoff"]),
        ({"command": "simulate", "target": "mixture", "atoms": "1,2,3"},
         ["law needs matching non-empty values/probs"]),
    ])
    def test_validate_reports_what_the_run_refuses(self, tmp_path, capsys, cfg,
                                                   problems):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("validate", "--config", str(cfg_path)) == 0
        assert capsys.readouterr().out == "".join(
            [f"validation report: {len(problems)} violation(s)\n"]
            + [f"  - {p}\n" for p in problems])
        out = tmp_path / "never.csv"
        assert run(cfg["command"], "--config", str(cfg_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == "".join(
            f"config error: {p}\n" for p in problems)
        assert not out.exists()

    def test_validate_negative_tolerance_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad2.json"
        cfg_path.write_text(json.dumps({
            "command": "check", "chain": "classical", "eps": -0.5}))
        run("validate", "--config", str(cfg_path))
        assert "eps must be > 0" in capsys.readouterr().out

    def test_parse_grid_errors(self):
        with pytest.raises(ConfigError):
            parse_grid("1:2")
        with pytest.raises(ConfigError):
            parse_grid("2:1:10")
        with pytest.raises(ConfigError):
            parse_grid("a:b:c")

    def test_validate_config_unknown_command(self):
        assert validate_config({"command": "nope"}) == ["unknown command 'nope'"]


class TestDeterminism:
    def test_density_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("density", "--family", "cez", "--alpha", "1",
                       "--beta", "2", "--c", "0", "--out", str(out)) == 0
        assert read(a) == read(b)

    def test_simulation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--target", "clt", "--n", "400", "--reps",
                       "500", "--seed", "99", "--stream", "1",
                       "--out", str(out)) == 0
        assert read(a) == read(b)

    def test_different_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--target", "clt", "--n", "400", "--reps", "500",
            "--seed", "1", "--out", str(a))
        run("simulate", "--target", "clt", "--n", "400", "--reps", "500",
            "--seed", "2", "--out", str(b))
        assert read(a) != read(b)


class TestMalformedValues:
    def test_validate_reports_non_integer_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"command": "solve", "seed": "abc"}))
        assert run("validate", "--config", str(cfg_path)) == 0
        captured = capsys.readouterr()
        assert "seed must be an integer" in captured.out
        assert captured.err == ""

    def test_solve_with_non_numeric_sigma_is_config_error(self, tmp_path,
                                                          capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({
            "command": "solve", "problem": "g-heat", "sigma_low": "x",
            "sigma_high": 2.0, "terminal": "gauss"}))
        out = tmp_path / "never.csv"
        assert run("solve", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "config error: sigma_low must be a number\n"
        assert not out.exists()

    def test_stream_beyond_64_bits_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run("simulate", "--target", "mixture", "--reps", "10",
                   "--stream", str(2**64), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: stream must be an unsigned 64-bit integer\n"
        assert not out.exists()

    def test_negative_mixing_probability_is_config_error(self, tmp_path, capsys):
        # the probabilities sum to 1, so only the sampler sees the sign
        out = tmp_path / "never.csv"
        code = run("check", "--chain", "martingale", "--mds", "hall", "--etas", "1,2",
                   "--probs", "1.5,-0.5", "--ns", "100", "--reps", "100",
                   "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: probabilities must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("cfg,problem", [
        ({"target": "clt", "n": 2.7}, "n must be an integer"),
        ({"target": "clt", "reps": 100.9}, "reps must be an integer"),
        ({"target": "clt", "seed": True}, "seed must be an integer"),
        ({"target": "clt", "stream": False}, "stream must be an integer"),
        ({"target": "policy", "model": "mean", "mu_low": True, "mu_high": 0.5,
          "phi": "gauss"}, "mu_low must be a number"),
        ({"target": "mixture", "atoms": [1, True]},
         "malformed atoms list [1, True]: True is not a number"),
    ], ids=["n", "reps", "seed", "stream", "mu_low", "atoms"])
    def test_config_value_that_its_flag_would_refuse(self, tmp_path, capsys,
                                                     cfg, problem):
        # a bool, or an integer key's number with a fraction: int() and
        # float() would read them, as 0 or 1 or cut off, where a flag exits 2
        self.assert_one_config_error(tmp_path, capsys,
                                     {"command": "simulate", **cfg}, problem)

    @pytest.mark.parametrize("schedule,problem", [
        ([10.9, 20], "malformed schedule list [10.9, 20]: 10.9 is not an integer"),
        ([True, 20], "malformed schedule list [True, 20]: True is not an integer"),
    ], ids=["fraction", "bool"])
    def test_schedule_entry_that_its_flag_would_refuse(self, tmp_path, capsys,
                                                       schedule, problem):
        self.assert_one_config_error(tmp_path, capsys, {
            "command": "converge", "model": "mean", "mu_low": -0.5,
            "mu_high": 0.5, "phi": "gauss", "schedule": schedule}, problem)

    @staticmethod
    def assert_one_config_error(tmp_path, capsys, cfg, problem):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("validate", "--config", str(cfg_path)) == 0
        assert capsys.readouterr().out == \
            f"validation report: 1 violation(s)\n  - {problem}\n"
        out = tmp_path / "never.csv"
        assert run(cfg["command"], "--config", str(cfg_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    def test_integral_numbers_in_a_config_stay_integers(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "command": "simulate", "target": "clt", "n": 400.0, "reps": 500.0,
            "seed": 1.0, "stream": 0.0}))
        assert run("simulate", "--config", str(cfg_path), "--out", str(a)) == 0
        assert run("simulate", "--target", "clt", "--n", "400", "--reps", "500",
                   "--seed", "1", "--out", str(b)) == 0
        assert read(a) == read(b)

    @pytest.mark.parametrize("value", ["x", None, [1, "a"], {"a": 1}, 1e400])
    def test_any_single_value_gives_a_documented_exit(self, tmp_path, capsys,
                                                      value):
        # every key of every command, alone in a config: no traceback, an
        # exit code of 1 or 2 and only config/numerical lines on stderr;
        # validate exits 0 on the same files.  "out" is left out: "x" is a
        # valid output path, and figures needs nothing else to run.
        for command, options in OPTIONS.items():
            if command == "validate":
                continue
            for key in sorted(opt.name for opt in options if opt.name != "out"):
                cfg_path = tmp_path / "cfg.json"
                cfg_path.write_text(json.dumps({"command": command,
                                                key: value}))
                code = run(command, "--config", str(cfg_path))
                err = capsys.readouterr().err
                assert code in (1, 2), (command, key)
                assert err and all(
                    line.startswith(("config error:", "numerical failure:"))
                    for line in err.splitlines()), (command, key, err)
                assert run("validate", "--config", str(cfg_path)) == 0
                assert capsys.readouterr().err == ""


class TestNonFiniteNumbers:
    """nan and +-inf are config errors, from a flag or from a config file."""

    @pytest.mark.parametrize("argv,problem", [
        (["solve", "--problem", "g-heat", "--sigma-low", "1", "--sigma-high", "inf",
          "--terminal", "abs"], "sigma_high must be a finite number"),
        (["solve", "--problem", "g-expectation", "--mu-low", "0", "--mu-high", "inf",
          "--terminal", "gauss"], "mu_high must be a finite number"),
        (["converge", "--model", "variance", "--sigma-low", "1", "--sigma-high", "inf",
          "--phi", "gauss", "--schedule", "10"], "sigma_high must be a finite number"),
        (["simulate", "--target", "policy", "--model", "variance", "--sigma-low", "1",
          "--sigma-high", "inf", "--phi", "gauss", "--n", "10", "--reps", "10"],
         "sigma_high must be a finite number"),
        (["density", "--family", "cez", "--alpha", "inf", "--beta", "1"],
         "alpha must be a finite number"),
        (["converge", "--model", "mean", "--mu-low", "0", "--mu-high", "inf",
          "--phi", "gauss"], "mu_high must be a finite number"),
        (["solve", "--problem", "g-heat", "--sigma-low", "nan", "--sigma-high", "2",
          "--terminal", "abs"], "sigma_low must be a finite number"),
        (["check", "--chain", "martingale", "--mds", "hall", "--etas", "1,-inf"],
         "etas entries must be finite numbers"),
    ])
    def test_one_config_error_and_no_output(self, tmp_path, capsys, argv, problem):
        assert_one_config_error(tmp_path, capsys, argv, problem)


class TestExtremeScales:
    """Finite but extreme scales write finite numbers without a numpy
    warning, or are one config error line."""

    @pytest.mark.parametrize("alpha,beta", [("1.0", "1.94e-246"),
                                            ("1e-300", "1e300")])
    def test_cez_density_stays_quiet(self, tmp_path, capsys, alpha, beta):
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("density", "--family", "cez", "--alpha", alpha,
                       "--beta", beta, "--out", str(out))
        assert code == 0 and capsys.readouterr().err == ""
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))

    @pytest.mark.parametrize("argv,scale", [
        (["--alpha", "1e300", "--beta", "0", "--grid=-1e300:1e300:5"], "2.000e+300"),
        (["--alpha", "1e300", "--grid=-4:4:5"], "1.000e+300"),
        (["--alpha", "1", "--grid=-1e160:1e160:5"], "1.000e+160"),
    ], ids=["both", "alpha", "grid"])
    def test_chen_epstein_curve_whose_squares_overflow(self, tmp_path, capsys,
                                                       argv, scale):
        assert_one_config_error(
            tmp_path, capsys, ["density", "--family", "chen-epstein", *argv],
            "chen-epstein curve needs a finite (2 S)^2, S = |alpha| + |beta| "
            f"+ 2|c| + max(|lo|, |hi|), got S = {scale}")

    def test_grid_whose_span_overflows(self, tmp_path, capsys):
        # hi - lo = 2e308 overflows: np.linspace would write nan and inf
        assert_one_config_error(
            tmp_path, capsys, ["density", "--family", "cez", "--alpha", "1",
                               "--beta", "1", "--grid=-1e308:1e308:3"],
            "grid needs a finite span hi - lo, got [-1e+308, 1e+308]")

    @pytest.mark.parametrize("argv,t", [
        (["--t", "1e200"], "1e+200"),
        (["--mds", "var-feedback", "--sigma-plus", "1e150"], "1"),
    ], ids=["t", "sigma-plus"])
    def test_mcleish_product_past_the_float_range(self, tmp_path, capsys, argv, t):
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("check", "--chain", "martingale", *argv, "--ns", "100",
                       "--reps", "1000", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"numerical failure: the McLeish product at n = 100, "
                              f"t = {t} leaves the float range")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["converge", "--model", "variance", "--sigma-low", "1",
         "--sigma-high", "18446744073709551616", "--phi", "gauss",
         "--schedule", "1"],
        ["solve", "--problem", "g-heat", "--sigma-low", "1",
         "--sigma-high", "18446744073709551616", "--terminal", "gauss",
         "--space-points", "3", "--time-steps", "1", "--tree-steps", "1"],
    ])
    def test_commensurate_scales_far_apart(self, tmp_path, capsys, argv):
        # scales 1 and 2**64 are commensurate, but whole cells of both
        # moves would take about 2**68 lattice points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv, "--out", str(tmp_path / "x.csv"))
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "g-heat", "--sigma-low", "1", "--sigma-high", "1e155",
         "--terminal", "abs"],
        ["converge", "--model", "variance", "--sigma-low", "1", "--sigma-high",
         "1e155", "--phi", "gauss", "--schedule", "10"],
        ["check", "--chain", "lindeberg", "--model", "variance", "--sigma-low", "1",
         "--sigma-high", "1e155"],
    ], ids=["solve", "converge", "lindeberg"])
    def test_variance_bound_whose_square_overflows(self, tmp_path, capsys, argv):
        assert_one_config_error(
            tmp_path, capsys, argv,
            "variance interval needs a finite sigma_high^2, got sigma_high = 1e+155")

    @pytest.mark.parametrize("argv,want", [
        # |X| = 1: the ratio is n^-1000, which underflows to 0.0
        (["--delta", "2000"], lambda n: 0.0),
        # the moment and sigma^3 underflow, the ratio is ~1e150 / sqrt(n)
        (["--law", "bernoulli", "--p", "1e-300"],
         lambda n: (1.0 - 2e-300) / math.sqrt(1e-300 * n)),
    ], ids=["delta-2000", "p-1e-300"])
    def test_lyapunov_ratio_past_the_float_range(self, tmp_path, capsys, argv, want):
        out = tmp_path / "check.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("check", "--chain", "classical", *argv, "--out", str(out))
        assert code == 0 and capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values = {int(n): float(v) for n, name, v in rows if name == "lyapunov"}
        assert sorted(values) == [100, 400, 1600]
        for n, value in values.items():
            assert value == pytest.approx(want(n), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("argv,problem", [
        (["check", "--chain", "lindeberg", "--model", "mean", "--mu-low", "0",
          "--mu-high", "1e200"],
         "mean interval needs finite squared bounds, got [0.0, 1e+200]"),
        (["converge", "--model", "mean", "--mu-low", "0", "--mu-high", "1e200",
          "--phi", "gauss", "--schedule", "10"],
         "mean interval needs finite squared bounds, got [0.0, 1e+200]"),
        (["solve", "--problem", "g-expectation", "--mu-low", "0", "--mu-high",
          "1e200", "--terminal", "gauss"],
         "mean interval needs finite squared bounds, got [0.0, 1e+200]"),
        (["check", "--chain", "lindeberg", "--model", "mean", "--mu-low", "0",
          "--mu-high", "1", "--sigma", "1e200"],
         "mean model needs a finite squared step mu + sigma * eps, "
         "got sigma = 1e+200 on [0.0, 1.0]"),
    ], ids=["lindeberg-mu", "converge-mu", "solve-mu", "lindeberg-sigma"])
    def test_mean_step_whose_square_overflows(self, tmp_path, capsys, argv,
                                              problem):
        assert_one_config_error(tmp_path, capsys, argv, problem)

    @pytest.mark.parametrize("sigma,points,dx", [("1e153", "3", "8.000e+153"),
                                                 ("1e-170", "2001", "8.000e-173")])
    def test_g_heat_spacing_whose_square_leaves_the_float_range(
            self, tmp_path, capsys, sigma, points, dx):
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("solve", "--problem", "g-heat", "--sigma-low", sigma,
                       "--sigma-high", sigma, "--terminal", "gauss",
                       "--space-points", points, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"numerical failure: the grid spacing dx = {dx} squares outside "
            f"the float range; change space_points or rescale the problem\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # sigma_high^2 underflows to 0.0; (dx / sigma_high)^2 = 64
        ["--sigma-low", "1e-162", "--sigma-high", "1e-162", "--terminal", "gauss",
         "--space-points", "3"],
        # (dx / sigma_high)^2 is past the largest float: one step
        ["--sigma-low", "1e-300", "--sigma-high", "1e-300", "--terminal",
         "s-shape", "--s-center", "1e10"],
    ], ids=["underflow", "one-step"])
    def test_g_heat_step_bound_of_a_far_scale(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("solve", "--problem", "g-heat", *argv, "--out", str(out))
        assert code == 0 and capsys.readouterr().err == ""
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1,
                                             usecols=1)))

    def test_lyapunov_ratio_past_the_largest_float(self, tmp_path, capsys):
        # p (1/sqrt(p))^5 / n^1.5 = 1e450 / 1e3
        assert_one_config_error(
            tmp_path, capsys,
            ["check", "--chain", "classical", "--law", "bernoulli", "--p", "1e-300",
             "--delta", "3", "--ns", "100"],
            "the Lyapunov ratio at n = 100, delta = 3 exceeds the largest float")

    @pytest.mark.parametrize("argv", [
        ["--mds", "var-feedback", "--sigma-plus", "1e-300", "--sigma-minus", "1"],
        ["--mds", "hall", "--etas", "1e-300", "--probs", "1"],
        ["--mds", "hall", "--etas", "1e-300,1", "--probs", "0.5,0.5"],
    ], ids=["sigma-plus", "eta", "one-eta-of-two"])
    def test_scale_whose_square_underflows(self, tmp_path, capsys, argv):
        # a path with b_n^2 = 0 would divide by zero in the Levy terms
        assert_one_config_error(
            tmp_path, capsys,
            ["check", "--chain", "martingale", *argv, "--ns", "1", "--reps", "100"],
            "scale 1e-300 squares to 0, so a path's b_n^2 can be 0")

    def test_feedback_sigma_minus_whose_square_underflows(self, tmp_path, capsys):
        # every feedback path starts at sigma_plus, so b_n^2 >= 1
        out = tmp_path / "report.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("check", "--chain", "martingale", "--mds", "var-feedback",
                       "--sigma-plus", "1", "--sigma-minus", "1e-300", "--ns", "1,2",
                       "--reps", "100", "--out", str(out))
        assert code == 0 and capsys.readouterr().err == ""
        assert out.exists()

    def test_feedback_scale_whose_square_overflows(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run("check", "--chain", "martingale", "--mds", "var-feedback",
                   "--sigma-plus", "1e300", "--ns", "5", "--reps", "100",
                   "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: n times a squared scale")
        assert not out.exists()


# every (command, flag) whose value may be a negative number
NUMBER_FLAGS = [(command, "--" + opt.name.replace("_", "-"))
                for command, options in OPTIONS.items() for opt in options
                if opt.kind in (cli._number, cli._floats, cli._grid)]


class TestNegativeValues:
    @pytest.mark.parametrize("command,flag", NUMBER_FLAGS)
    def test_a_negative_number_may_follow_its_flag(self, capsys, command, flag):
        # argparse alone reads -1e-3 as an option, and the flag as lacking
        # its value
        codes, errs = [], []
        for argv in ([command, flag, "-1e-3"], [command, f"{flag}=-1e-3"]):
            codes.append(run(*argv))
            errs.append(capsys.readouterr().err)
        assert codes[0] == codes[1] and errs[0] == errs[1]
        assert "expected one argument" not in errs[0]

    def test_a_flag_is_not_taken_as_a_value(self, capsys):
        assert run("density", "--out", "--seed", "1") == 2
        assert "argument --out: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-3", "0"])
    def test_a_flag_is_only_its_full_name(self, capsys, value):
        # argparse would take --mu-l for --mu-low, but only full names are
        # fused with a negative value
        assert run("check", "--chain", "lindeberg", "--model", "mean",
                   "--mu-l", value, "--mu-high", "1") == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"unrecognized arguments: --mu-l {value}" in err


class TestMissingKeys:
    def test_density_without_family(self, tmp_path, capsys):
        assert run("density", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == "config error: missing family\n"

    def test_g_heat_without_sigma_low(self, tmp_path, capsys):
        code = run("solve", "--problem", "g-heat", "--sigma-high", "2",
                   "--terminal", "abs", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err == "config error: missing sigma_low\n"


# one value of each option kind, as a flag's text and as a JSON value
KIND_SAMPLES = {cli._number: 0.25, cli._integer: 3, cli._text: "gauss",
                cli._grid: "-1:1:5", cli._integers: "1,2", cli._floats: "0.5,0.5"}


class TestOptionTable:
    def test_main_builds_one_parser(self, monkeypatch, tmp_path):
        # the parser outlives a failed parse and serves every later call
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        argv = ["check", "--chain", "lindeberg", "--model", "variance",
                "--sigma-low", "1", "--sigma-high", "2", "--ns", "1"]
        assert run("transmogrify") == 2
        for k in range(2):
            out = tmp_path / f"{k}.csv"
            assert run(*argv, "--out", str(out)) == 0
        assert len(built) == 1
        assert read(tmp_path / "0.csv") == read(tmp_path / "1.csv")

    def test_flag_and_config_key_give_the_same_config(self, tmp_path):
        parser = build_parser()
        cfg_path = tmp_path / "cfg.json"
        for command, options in OPTIONS.items():
            for opt in options:
                if opt.name == "config":
                    continue
                value = opt.choices[-1] if opt.choices else KIND_SAMPLES[opt.kind]
                flag = f"--{opt.name.replace('_', '-')}={value}"
                from_flag = merge_config(parser.parse_args([command, flag]))
                cfg_path.write_text(json.dumps({opt.name: value}))
                from_file = merge_config(parser.parse_args([command, "--config",
                                                            str(cfg_path)]))
                assert ({k: (type(v), v) for k, v in from_flag.items()}
                        == {k: (type(v), v) for k, v in from_file.items()}), \
                    (command, opt.name)
                assert cli._settle(from_flag) == cli._settle(from_file)

    def test_defaults_pass_their_own_checks(self):
        for command in OPTIONS:
            values, problems = cli._settle({"command": command})
            assert problems == [], command
            assert set(values) == {"command"} | {opt.name for opt in OPTIONS[command]}


# The fuzz draws the size keys from these small ranges only, malformed
# values included, so that every drawn config runs in milliseconds; larger
# sizes are not fuzzed.
SIZES = {"n": (1, 12), "reps": (1, 1500), "kn": (1, 150), "space_points": (3, 41),
         "time_steps": (1, 60), "tree_steps": (1, 30), "schedule": (1, 12),
         "ns": (1, 60), "grid": (2, 60)}
NUMBERS = {"p": (0.05, 0.95), "s_theta": (0.05, 1.0), "alpha": (-2.0, 2.0),
           "beta": (-2.0, 2.0), "c": (-1.0, 1.0), "s_center": (-1.0, 1.0),
           "mu_low": (-1.0, 1.0), "mu_high": (-1.0, 1.0), "t": (-2.0, 2.0)}
PAYOFFS = ["gauss", "gauss_half", "normal_cdf", "abs", "neg_abs", "tanh", "clip_linear"]
# keys a run cannot do without: drawn into every config before it is spoilt
ANCHORS = {"family", "problem", "terminal", "model", "phi", "chain", "target",
           "sigma_low", "sigma_high", "mu_low", "mu_high"}
MALFORMED = [None, "x", "", [1, "a"], {"a": 1}, True, "bogus", "1,-1", "-1:1:1",
             -1, 0, 2.5, math.nan, math.inf, -math.inf]
HOSTILE_NUMBERS = [-2.0, 1e-300, 50.0, 1e3, 2**64]


def good_values(opt):
    """Values of one option that its table row accepts."""
    lo, hi = SIZES.get(opt.name, (None, None))
    if opt.choices:
        return st.sampled_from(opt.choices)
    if opt.name in ("terminal", "phi"):
        return st.sampled_from(PAYOFFS + ["s-shape"])
    if opt.name == "s_phi1":
        return st.sampled_from(PAYOFFS)
    if opt.kind is cli._number:
        return st.floats(*NUMBERS.get(opt.name, (0.05, 3.0)))
    if opt.kind is cli._integer:
        return st.integers(lo, hi) if lo else st.integers(0, 2**64 - 1)
    if opt.kind is cli._grid:
        return st.builds("{}:{}:{}".format, st.floats(-6.0, -0.1), st.floats(0.1, 6.0),
                         st.integers(lo, hi))
    if opt.kind is cli._integers:
        return st.lists(st.integers(lo, hi), min_size=1, max_size=3)
    if opt.name == "probs":
        return st.sampled_from(["1", "0.5,0.5", "0.25,0.75", [0.2, 0.3, 0.5]])
    if opt.kind is cli._floats:
        return st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3)
    return st.just("unused")


def bad_values(opt):
    """Malformed or out-of-range values; sizes stay small."""
    if opt.name in SIZES:
        return st.sampled_from(MALFORMED)
    return st.sampled_from(MALFORMED + HOSTILE_NUMBERS)


@st.composite
def spoilt_configs(draw):
    """(command, config): well-typed values in their usual ranges, then up
    to two keys dropped or given a malformed or hostile value."""
    command = draw(st.sampled_from([c for c in OPTIONS if c != "validate"]))
    options = {opt.name: opt for opt in OPTIONS[command]
               if opt.name not in ("config", "out", "grid_out")}
    # a size key left out would run at its default size: always give one
    cfg = {name: draw(good_values(opt)) for name, opt in options.items()
           if name in ANCHORS or name in SIZES or draw(st.booleans())}
    for low, high in (("sigma_low", "sigma_high"), ("mu_low", "mu_high")):
        if low in cfg:
            cfg[low], cfg[high] = sorted((cfg[low], cfg[high]))
    if command == "converge":
        # a limit that no explicit density gives is a 2001-point PDE solve
        # (about 1 s), so converge draws payoffs whose limit has a density
        if cfg["model"] == "mean":
            cfg["phi"] = draw(st.sampled_from(["gauss", "gauss_half"]))
        else:
            side = cfg.setdefault("side", "sup")
            cfg.update(phi="s-shape", s_phi1="tanh",
                       s_envelope="phibar" if side == "sup" else "phi")
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(options)))
        if draw(st.booleans()) and name not in SIZES:
            cfg.pop(name, None)
        else:
            cfg[name] = draw(bad_values(options[name]))
    return command, cfg


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spoilt_configs(), st.booleans())
    def test_whole_configs_give_a_documented_exit(self, drawn, grid_out):
        command, cfg = drawn
        with tempfile.TemporaryDirectory() as work:
            cfg = dict(cfg, command=command, out=os.path.join(work, "out"))
            if grid_out and command == "solve":
                cfg["grid_out"] = os.path.join(work, "grid.csv")
            cfg_path = os.path.join(work, "cfg.json")
            with open(cfg_path, "w") as handle:
                json.dump(cfg, handle)
            problems = validate_config(cfg)
            assert isinstance(problems, list)
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = run(command, "--config", cfg_path)
        assert code in (0, 1, 2), cfg
        lines = err.getvalue().splitlines()
        # a solve whose solution leaves the terminal's range (a tiny grid)
        # still runs, and says so in one warning line
        warned = lines[:1] if code == 0 and command == "solve" else []
        assert all(line.startswith("warning: the solution reaches")
                   for line in warned), (cfg, lines)
        lines = lines[len(warned):]
        assert all(line.startswith(("config error:", "numerical failure:"))
                   for line in lines), (cfg, lines)
        assert (code == 0) == (not lines), (cfg, lines)
        # a config that validate passes is not refused when it runs
        assert problems or code != 2, (cfg, lines)


class TestUnwritableOutput:
    """An --out the commands cannot write is one config error line, exit 2,
    and no temporary file left behind."""

    @staticmethod
    def assert_config_error(code, capsys, root):
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        assert not [p for p in root.rglob("*.tmp")]

    def test_density_out_is_a_directory(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        code = run("density", "--family", "cez", "--alpha", "1", "--beta", "2",
                   "--out", str(target))
        self.assert_config_error(code, capsys, tmp_path)
        assert target.is_dir() and not any(target.iterdir())

    def test_density_out_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "plain.txt"
        blocker.write_text("keep")
        code = run("density", "--family", "cez", "--alpha", "1", "--beta", "2",
                   "--out", str(blocker / "sub" / "curve.csv"))
        self.assert_config_error(code, capsys, tmp_path)
        assert blocker.read_text() == "keep"

    def test_figures_out_is_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "plain.txt"
        blocker.write_text("keep")
        code = run("figures", "--grid=-2:2:41", "--out", str(blocker))
        self.assert_config_error(code, capsys, tmp_path)
        assert blocker.read_text() == "keep"

    def test_simulate_out_is_a_directory(self, tmp_path, capsys):
        code = run("simulate", "--target", "mixture", "--reps", "10",
                   "--out", str(tmp_path))
        self.assert_config_error(code, capsys, tmp_path)


def ref_render_csv(header, rows):
    """The per-cell renderer render_csv replaced, kept as the byte reference."""
    def value(v):
        if isinstance(v, float):
            return f"{v:.15g}"
        return str(v)
    lines = [header]
    lines.extend(",".join(value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def block_rows(block):
    """The rows of one block, each str column repeated on every row."""
    length = max(len(c) for c in block if not isinstance(c, str))
    cells = [[c] * length if isinstance(c, str) else list(c) for c in block]
    return list(zip(*cells))


def assert_same_csv(got, want):
    """got == want, two CSVs as bytes, reporting only the first line that
    differs (a diff of two long texts would take minutes)."""
    assert isinstance(got, bytes) and isinstance(want, bytes)
    got, want = got.split(b"\n"), want.split(b"\n")
    bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
               None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


def assert_blocks_render(blocks):
    rows = [row for block in blocks for row in block_rows(block)]
    want = ref_render_csv("h", rows).encode("utf-8")
    assert_same_csv(csvio.render_csv("h", blocks), want)
    assert_same_csv(csvio.render_csv("h", iter(blocks)), want)


CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan,
                     1e16, 123456789012345678.0]),
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["%", "%s", "%.15g", "50%d", "a,b", "%%"]),
    st.floats(width=32).map(np.float32),
)

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.5e-310,
           1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3, math.inf,
           -math.inf, math.nan]


class TestRenderCsvBytes:
    """Each drawn row is one block of one-cell columns."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=12))
    def test_mixed_rows_match_the_per_cell_renderer(self, rows):
        assert_blocks_render([tuple((v,) for v in row) for row in rows])
        assert_blocks_render([tuple([v] for v in row) for row in rows])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=30),
           st.lists(CELLS, min_size=1, max_size=3))
    def test_type_changes_between_rows(self, floats, tail):
        # a column of floats, a str column, then a row of other cell types
        column = np.array(floats)
        assert_blocks_render([(column, "x", column[::-1]),
                              tuple((v,) for v in tail), (column,)])


# the package source, for tests that run a fresh interpreter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# cells where the 15-digit decimal is a tie, carries to a new power of ten,
# or switches between the fixed and the exponent form
HARD = [123456789012345.5, 123456789012344.5, 999999999999999.5,
        999999999999999.4, 99999999999999.95, 9999999999999995.0,
        9.999999999999995e-05, 9.9999999999999995e-05, 1e-05, 1e-04,
        0.00012345, 1e14, 1e15, 1e16, 1e22, 1e23, 123456789012345.0,
        5e-324, -5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308,
        2.225073858507201e-308, 1.7976931348623157e308, -0.0, 0.0,
        math.inf, -math.inf, math.nan, 0.5, 0.1, 1 / 3, 1000.0, 2.5, -2.5]


def assert_kernel_cells(cells):
    """The kernel's records of a float64 column, padding dropped, are
    Python's "%.15g" of each cell, then "," or, in a row's last column,
    "\n"."""
    for last, end in enumerate(",\n"):
        got = csvio._float_records(cells, last).T.tobytes().translate(None, b"\xff")
        assert got == "".join(f"{v:.15g}{end}" for v in cells.tolist()).encode()


class TestFloatCellKernel:
    """csvio._float_records against Python's "%.15g", also through render_csv."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.integers(csvio.BLOCK_ROWS + 1, 2 * csvio.BLOCK_ROWS + 7),
           st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(0, 1)),
                    max_size=20))
    def test_raw_bit_patterns(self, seed, rows, drawn):
        # every float64, subnormals, infinities and nans included; the drawn
        # patterns land at drawn rows of a column past one block
        bits = np.random.default_rng(seed).integers(0, 2**64, rows, dtype=np.uint64)
        for pattern, at in drawn:
            bits[int(at * (rows - 1))] = pattern
        column = bits.view(np.float64)
        assert_blocks_render([(column, "c", column[::-1])])

    def test_hard_cases(self):
        values = np.array(HARD)
        signed = np.concatenate([values, -values])
        assert_kernel_cells(signed)
        assert_blocks_render([(np.tile(signed, 60),)])

    def test_near_every_power_of_ten(self):
        # each power of ten, its neighbours, and the cells that round up to it
        with np.errstate(over="ignore"):
            tens = 10.0 ** np.arange(-323, 309)
            cells = np.concatenate([
                tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                tens * (1 - 5e-16), tens * (1 - 4.9e-16), tens * 9.999999999999995,
                tens * 0.99999999999999949, tens * 1.5])
        cells = cells[np.isfinite(cells)]
        assert_kernel_cells(cells)

    def test_first_render_imports_nothing(self):
        # a lazy import on the first render (np.unique's, for one) would
        # land in the warm-up op of every benchmark workload
        code = ("import sys\n"
                "import numpy as np\n"
                "from nlclt import csvio\n"
                "before = set(sys.modules)\n"
                "y = np.linspace(-6.0, 6.0, 601)\n"
                "text = csvio.render_csv('y,d', [(y, np.exp(-y * y / 2))])\n"
                "assert text.count(b'\\n') == 602, text[:80]\n"
                "print(sorted(set(sys.modules) - before))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=os.environ | {"PYTHONPATH": SRC},
                             check=True).stdout
        assert out == "[]\n"


class TestCliCsvBytes:
    """Each command's CSV equals the per-cell renderer of its arrays."""

    @pytest.mark.parametrize("family, params", [
        ("chen-epstein", DensityParams(0.5, 0.0, 0.25)),
        ("cez", DensityParams(1.0, 2.0, 0.0)),
    ])
    def test_density(self, tmp_path, family, params):
        out = tmp_path / "d.csv"
        assert run("density", "--family", family, "--alpha", str(params.alpha),
                   "--beta", str(params.beta), "--c", str(params.c),
                   "--grid=-9:9:10001", "--out", str(out)) == 0
        curve = emit_density_curve(params, cli.DENSITY_FAMILIES[family],
                                   parse_grid("-9:9:10001"))
        assert_same_csv(out.read_bytes(),
                        ref_render_csv("y,density", map(tuple, curve)).encode())

    def test_figures(self, tmp_path):
        assert run("figures", "--grid=-7:7:5001", "--out", str(tmp_path)) == 0
        for entry in cli.PAPER_FIGURES:
            name, curves = cli._figure_curves(entry, parse_grid("-7:7:5001"))
            rows = [(y, label, d) for label, curve in curves for y, d in curve]
            assert_same_csv((tmp_path / name).read_bytes(),
                            ref_render_csv("y,curve,density", rows).encode())

    def test_solve_grid_out(self, tmp_path):
        gout = tmp_path / "grid.csv"
        assert run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "2", "--terminal", "abs", "--space-points",
                   "201", "--out", str(tmp_path / "s.csv"), "--grid-out",
                   str(gout)) == 0
        grid = solve_g_heat(VarianceInterval(1.0, 2.0), named_test_function("abs"),
                            "sup", space_points=201)
        rows = [(t, x, u) for t, layer in zip(grid.times, grid.values)
                for x, u in zip(grid.x, layer)]
        assert_same_csv(gout.read_bytes(), ref_render_csv("t,x,u", rows).encode())


class TestCsvEncoding:
    def test_utf8_under_the_c_locale(self, tmp_path):
        # the locale's encoding is ASCII here: a text-mode file without an
        # explicit encoding would raise UnicodeEncodeError
        out = tmp_path / "t.csv"
        code = ("import codecs, locale, sys\n"
                "from nlclt import csvio\n"
                "encoding = locale.getpreferredencoding(False)\n"
                "assert codecs.lookup(encoding).name == 'ascii', encoding\n"
                "csvio.write_csv_atomic(sys.argv[1], 'name,value',"
                " [(['\\u03c3_low', 'u0'], [0.5, 1 / 3])])\n")
        env = os.environ | {"PYTHONPATH": SRC, "LC_ALL": "C", "PYTHONUTF8": "0",
                            "PYTHONCOERCECLOCALE": "0"}
        subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True)
        assert out.read_bytes() == \
            "name,value\n\u03c3_low,0.5\nu0,0.333333333333333\n".encode("utf-8")


class TestRenderCsvBlocks:
    """Blocks of many rows: the one-% template per BLOCK_ROWS rows."""

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193])
    def test_row_counts_about_the_block_size(self, rows):
        assert csvio.BLOCK_ROWS == 4096
        values = np.random.default_rng(rows).standard_normal(rows) * 1e3
        ints = list(range(rows))
        assert_blocks_render([(values, "c", ints, values[::-1])])
        assert_blocks_render([(values, ints), ("tail", values[:3])])

    def test_special_floats(self):
        values = np.array(SPECIAL * 600)   # past one block of rows
        assert_blocks_render([(values, values[::-1])])
        assert_blocks_render([(values.tolist(),)])

    def test_strided_views(self):
        table = np.random.default_rng(3).standard_normal((5000, 3))
        table[::7, 1] = -0.0
        assert not table[:, 0].flags.contiguous
        assert_blocks_render([(table[:, 0], table[:, 2]),
                              (table[::-3, 1], table[1::3, 0])])

    @pytest.mark.parametrize("label", ["%", "%s", "%.15g", ",", "a,b%%",
                                       "%(x)s", "", "cez(1,2,0)"])
    def test_constant_str_columns(self, label):
        values = np.linspace(-1.0, 1.0, 5000)
        assert_blocks_render([(label, values), (values, label, label, values)])

    def test_other_cell_types(self):
        cells = [3, -2**70, True, False, np.int64(-7), np.float32(0.1),
                 np.float64(0.1), 0.1, "%s", None]
        assert_blocks_render([(cells, cells[::-1])])
        ints = np.arange(-5000, 5000, dtype=np.int64)
        bools = ints % 3 == 0
        assert_blocks_render([(ints, bools, ints.astype(float))])

    def test_float32_array_is_not_a_float64_column(self):
        # "%.15g" of np.float32(0.1).tolist() would be 0.100000001490116
        values = np.array([0.1, 1 / 3, -0.0, np.inf, np.nan], dtype=np.float32)
        assert csvio.render_csv("v", [(values,)]) == \
            b"v\n0.1\n0.33333334\n-0.0\ninf\nnan\n"
        assert_blocks_render([(np.tile(values, 1000), "f")])

    @pytest.mark.parametrize("block", [
        (), ("only", "text"), ([1.0, 2.0], [1.0]),
        (np.zeros(3), "a", np.zeros(4)),
    ])
    def test_a_block_needs_equal_columns(self, block):
        with pytest.raises(ValueError):
            csvio.render_csv("h", [block])

    def test_empty_table_is_the_header(self):
        assert csvio.render_csv("h", []) == b"h\n"
        assert csvio.render_csv("h", [(np.zeros(0),)]) == b"h\n"


class TestCsvRowsAsPythonFloats:
    """A float64 column renders "%.15g" over its tolist(), Python floats;
    the bytes must match the per-cell rendering of np.float64 cells."""

    @staticmethod
    def assert_same_bytes(values):
        table = np.array(values, dtype=float).reshape(-1, 1)
        table = np.column_stack([table, table[::-1]])
        frozen = ref_render_csv("a,b", map(tuple, table)).encode()   # np.float64 cells
        assert_same_csv(csvio.render_csv("a,b", [(table[:, 0], table[:, 1])]), frozen)

    def test_special_values(self):
        self.assert_same_bytes(SPECIAL)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_drawn_doubles(self, values):
        self.assert_same_bytes(values)


class TestGridOutBlocks:
    """solve --grid-out writes one block per stored layer: t, x, u."""

    def test_special_values(self):
        x = np.array([-1e300, -0.0, 5e-324, 0.1, 1 / 3])
        values = np.outer([1.0, -2.5e-310, 7.0], x)
        grid = ValueGrid(x=x, times=np.array([1.0, 0.5, 0.0]), values=values,
                         u0=0.0, min_seen=0.0, max_seen=0.0, steps=1,
                         richardson_gap=0.0, dt_ratio=0.0)
        frozen = [(t, xi, ui) for t, layer in zip(grid.times, grid.values)
                  for xi, ui in zip(grid.x, layer)]
        blocks = cli._grid_blocks(grid)
        assert len(blocks) == len(grid.times)
        assert_same_csv(csvio.render_csv("t,x,u", blocks),
                        ref_render_csv("t,x,u", frozen).encode())

    def test_every_layer_in_time_order(self, tmp_path):
        gout = tmp_path / "grid.csv"
        assert run("solve", "--problem", "g-heat", "--sigma-low", "1",
                   "--sigma-high", "1", "--terminal", "gauss",
                   "--space-points", "101", "--out", str(tmp_path / "s.csv"),
                   "--grid-out", str(gout)) == 0
        lines = gout.read_text().splitlines()
        assert lines[0] == "t,x,u"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        times = table[::101, 0]
        assert len(table) == len(times) * 101
        assert times[0] == 1.0
        assert times[-1] == 0.0
        assert np.all(np.diff(times) < 0)
        assert np.all(table.reshape(len(times), 101, 3)[:, :, 0] == times[:, None])


def counting_kernel(monkeypatch):
    """Wrap csvio._float_records; the list of the columns it renders."""
    calls, kernel = [], csvio._float_records

    def counted(column, last):
        calls.append(column)
        return kernel(column, last)

    monkeypatch.setattr(csvio, "_float_records", counted)
    return calls


class TestCsvRepeatedColumns:
    """Within one render_csv call, a float64 column object that an earlier
    block rendered reuses its records."""

    def test_grid_out_renders_its_x_column_once(self, monkeypatch):
        grid = solve_g_heat(VarianceInterval(1.0, 2.0), named_test_function("abs"),
                            "sup", space_points=201)
        calls = counting_kernel(monkeypatch)
        got = csvio.render_csv("t,x,u", cli._grid_blocks(grid))
        # x once, then every layer
        assert len(calls) == 1 + len(grid.times)
        rows = [(t, x, u) for t, layer in zip(grid.times, grid.values)
                for x, u in zip(grid.x, layer)]
        assert_same_csv(got, ref_render_csv("t,x,u", rows).encode())

    def test_figures_render_each_table_s_y_column_once(self, tmp_path, monkeypatch):
        # one chunk of rows per block: y once, then every curve
        calls = counting_kernel(monkeypatch)
        assert run("figures", "--grid=-7:7:4001", "--out", str(tmp_path)) == 0
        curves = [len(entry[1]) for entry in cli.PAPER_FIGURES]
        assert len(calls) == sum(1 + n for n in curves)
        y = parse_grid("-7:7:4001").values()
        for entry in cli.PAPER_FIGURES:
            _, labelled = cli._figure_curves(entry, parse_grid("-7:7:4001"))
            for _, curve in labelled:
                assert curve[:, 0].tobytes() == y.tobytes()

    def test_a_repeated_column_in_blocks_of_many_chunks(self):
        n = 2 * csvio.BLOCK_ROWS + 3
        x = np.random.default_rng(5).standard_normal(n) * 1e3
        u = np.arange(n, dtype=float) / 7
        assert_blocks_render([(x, "a", u), (x, x[::-1]), ("b", x), (x[:5], "c")])


# 0, inf, nan and the cells within 1e-6 of a rounding tie take format_value
FALLBACK = [0.0, -0.0, math.inf, -math.inf, math.nan] + HARD
LABELS = ["\u03c3_low", "%", "%s", "a%%b", "50%d", "cez(1,2,0)", "na\u00efve,\u00e9", ""]


@st.composite
def mixed_blocks(draw):
    """Blocks of 1 to 4 columns: float64 arrays and strided views of them,
    which may recur in later blocks, lists of Python ints and floats, str
    columns and lists of str cells; 1 to 3 blocks of lengths about
    multiples of BLOCK_ROWS."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = csvio.BLOCK_ROWS
    texts = draw(st.lists(st.text(max_size=5), min_size=1, max_size=4))
    blocks, pool = [], []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.sampled_from([1, 2, 3, b - 1, b, b + 1, 2 * b - 1, 2 * b + 1]))
        block = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["float64", "again", "python", "str", "text"]))
            again = [c for c in pool if len(c) == rows]
            if kind == "again" and again:
                block.append(again[draw(st.integers(0, len(again) - 1))])
            elif kind in ("float64", "again"):
                stride = draw(st.sampled_from([1, 2, -1, -3]))
                base = np.where(rng.random(3 * rows) < 0.5,
                                rng.integers(0, 2**64, 3 * rows, dtype=np.uint64)
                                .view(np.float64),
                                rng.standard_normal(3 * rows)
                                * 10.0 ** rng.integers(-8, 17, 3 * rows))
                at = rng.integers(0, 3 * rows, min(3 * rows, 40))
                base[at] = rng.choice(FALLBACK, len(at))
                column = base[::stride][:rows]
                pool.append(column)
                block.append(column)
            elif kind == "python":
                ints = rng.integers(-2**40, 2**40, rows).tolist()
                floats = (rng.standard_normal(rows) * 1e5).tolist()
                block.append([f if i % 2 else n
                              for i, (n, f) in enumerate(zip(ints, floats))])
            elif kind == "str":
                block.append(draw(st.sampled_from(LABELS)))
            else:
                block.append([texts[i % len(texts)] for i in range(rows)])
        if all(isinstance(c, str) for c in block):
            block.append(np.linspace(-1.0, 1.0, rows))
        blocks.append(tuple(block))
    return blocks


@pytest.mark.fork
class TestCsvRecordPath:
    """render_csv against the per-cell renderer, encoded as UTF-8, with the
    rows split over a forked child and without."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(blocks=mixed_blocks())
    @pytest.mark.parametrize("split_rows", [True, False], ids=["forked", "serial"])
    def test_mixed_blocks(self, forked, blocks, split_rows):
        forks = len(forked)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csvio, "SPLIT_MIN_CELLS", 1 if split_rows else math.inf)
            assert_blocks_render(blocks)
        assert len(forked) == forks + 2 * split_rows
        assert_no_child_left()


class TestCsvSplit(ForkProtocol):
    """render_csv's rows split over one forked child; the fork protocol
    comes from ForkProtocol (test_split.py)."""

    hot = (csvio, "_render")
    threshold = (csvio, "SPLIT_MIN_CELLS")
    assert_same = staticmethod(assert_same_csv)

    @staticmethod
    def table(rows=9001):
        y = np.linspace(-3.0, 3.0, rows)
        return [(y, "\u03c3,%", np.exp(-y * y / 2)), (y[::-1], "b", y)]

    @staticmethod
    def reference(blocks):
        rows = [row for block in blocks for row in block_rows(block)]
        return ref_render_csv("y,c,d", rows).encode("utf-8")

    def case(self):
        blocks = self.table()
        return (lambda: csvio.render_csv("y,c,d", blocks),
                lambda: self.reference(blocks))

    def below(self):
        # 27003 cells (the recurring y counts once), above any default
        # table: `density` writes 801 rows and `figures` 1201 per curve
        return self.case()

    def test_work_is_the_cells_outside_str_columns(self, forked):
        # two float64 columns: rows x 2 cells against SPLIT_MIN_CELLS, and a
        # float64 column that recurs counts once
        least = csvio.SPLIT_MIN_CELLS
        assert least == 120_000
        for rows, forks in ((least // 2 - 1, 0), (least // 2, 1)):
            y = np.linspace(-1.0, 1.0, rows)
            blocks = [(y, "c", y * y)]
            assert_same_csv(csvio.render_csv("y,c,d", blocks), self.reference(blocks))
            assert len(forked) == forks
        rows = least // 3 - 1        # 3 * rows < least < 4 * rows
        y = np.linspace(-1.0, 1.0, rows)
        for blocks, forks in (([(y, "a", y * y), (y, "b", -y)], 1),
                              ([(y, "a", y * y), (y.copy(), "b", -y)], 2)):
            assert_same_csv(csvio.render_csv("y,c,d", blocks), self.reference(blocks))
            assert len(forked) == forks
        assert_no_child_left()
