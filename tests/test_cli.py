import json
import math
import os

import numpy as np
import pytest

from nlclt.cli import COMMAND_KEYS, main, parse_grid, validate_config
from nlclt.errors import ConfigError
from nlclt.numerics import std_normal_pdf


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def run(*argv):
    return main(list(argv))


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

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLCLT_THREADS", "2")
        out = tmp_path / "figs"
        assert run("figures", "--out", str(out)) == 0
        assert len(os.listdir(out)) == 5

    def test_bad_thread_env_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLCLT_THREADS", "many")
        assert run("figures", "--out", str(tmp_path / "f")) == 2


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

    def test_g_expectation_with_tree(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = run("solve", "--problem", "g-expectation", "--mu-low", "0",
                   "--mu-high", "0.5", "--side", "sup", "--terminal",
                   "normal_cdf", "--space-points", "1201", "--tree-steps",
                   "500", "--out", str(out))
        assert code == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["abs_gap"]) <= 1e-2


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

    @pytest.mark.parametrize("value", ["x", None, [1, "a"], {"a": 1}, 1e400])
    def test_any_single_value_gives_a_documented_exit(self, tmp_path, capsys,
                                                      value):
        # every key of every command, alone in a config: no traceback, an
        # exit code of 1 or 2 and only config/numerical lines on stderr;
        # validate exits 0 on the same files
        for command, keys in COMMAND_KEYS.items():
            if command == "validate":
                continue
            for key in sorted(keys | {"seed", "stream"}):
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
