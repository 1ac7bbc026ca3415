"""CLI and config-file tests: parsing, experiment kinds, and reproducibility."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdelab
from spdelab import cli
from spdelab.cli import main
from spdelab.config import (
    KINDS,
    KNOWN_KEYS,
    ConfigError,
    build_model,
    build_solver,
    parse_config_text,
)
from spdelab.solver import EXACT_GAUSSIAN, EXPONENTIAL_EULER

BASE_MODEL = """
model.N = 16
model.covariance = example5
model.drift = zero
model.diffusion = additive
model.r = 0
model.p = 2
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_values_and_comments(self):
        cfg = parse_config_text("kind = simulate\n# note\nmodel.N = 8  # trailing\n")
        assert cfg.kind == "simulate"
        assert cfg.get_int("model.N") == 8

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("kind = simulate\nmodel.N 8\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.N = 8\nmodel.N = 9\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config_text("kind = frobnicate\n")

    def test_empty_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"empty key \(line 2\)"):
            parse_config_text("kind = simulate\n= 3\n")

    def test_missing_key_names_the_key(self):
        cfg = parse_config_text("kind = simulate\n")
        with pytest.raises(ConfigError, match="solver.T"):
            cfg.get_float("solver.T")

    def test_bad_number_names_key_and_line(self):
        cfg = parse_config_text("kind = simulate\nsolver.T = soon\n")
        with pytest.raises(ConfigError, match=r"solver.T.*line 2"):
            cfg.get_float("solver.T")

    @pytest.mark.parametrize("line", ["solver.step = 100", "solver.methd = exact-gaussian"])
    def test_misspelled_key_is_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"unknown key \(key '{key}', line 2\)"):
            parse_config_text(f"kind = simulate\n{line}\n")

    def test_every_key_the_library_reads_is_known(self):
        read = set()
        for path in Path(spdelab.__file__).parent.glob("*.py"):
            read |= keys_read(path.read_text())
        assert read and read <= KNOWN_KEYS, sorted(read - KNOWN_KEYS)

    # a key that nothing reads, like the removed lemmas.slack, must not stay known
    def test_every_known_key_is_a_literal_of_the_library(self):
        literals = set()
        for path in Path(spdelab.__file__).parent.glob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "KNOWN_KEYS":
                    continue
                literals |= {node.value for node in ast.walk(stmt)
                             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert KNOWN_KEYS <= literals, sorted(KNOWN_KEYS - literals)

    # int() raises OverflowError on an infinity and ValueError on a NaN, so the
    # entries must be checked before they are converted
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_integer_list_entry_names_key_and_line(self, tmp_path, capsys, value):
        config = write_config(tmp_path, f"kind = example-section5\nseries.N = 10, {value}\n")
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: expected integers, got {value} (key 'series.N', line 2)\n"

    def test_key_reader_sees_accessors_membership_and_set(self):
        source = (
            'def f(cfg, self, key):\n'
            '    cfg.get_int("a.b", 1); self.get_choice("kind", KINDS); cfg.get_str(key)\n'
            '    if "c.d" not in cfg and "e" in cfg.entries and "=" in key:\n'
            '        cfg.set("f.g", 2)\n'
        )
        assert keys_read(source) == {"a.b", "kind", "c.d", "e", "f.g"}


class TestBuildModel:
    @staticmethod
    def build(text):
        return build_model(parse_config_text(text))

    def test_constant_covariance(self):
        model = self.build(
            "model.N = 4\nmodel.covariance = constant\nmodel.covariance.value = 2.5\n"
        )
        np.testing.assert_array_equal(model.covariance.variances, np.full(4, 2.5))
        default = self.build("model.N = 3\nmodel.covariance = constant\n")
        np.testing.assert_array_equal(default.covariance.variances, np.ones(3))

    def test_custom_covariance(self):
        model = self.build(
            "model.N = 3\nmodel.covariance = custom\nmodel.covariance.values = 0,2,0.5\n"
        )
        np.testing.assert_array_equal(model.covariance.variances, [0.0, 2.0, 0.5])

    def test_custom_covariance_of_the_wrong_length_names_the_key(self):
        with pytest.raises(
            ConfigError,
            match=r"custom covariance needs 4 values, got 3 "
            r"\(key 'model.covariance.values', line 3\)",
        ):
            self.build("model.N = 4\nmodel.covariance = custom\nmodel.covariance.values = 1,2,3\n")

    def test_diffusion_multipliers_broadcast_one_value_or_take_n(self):
        one = self.build("model.N = 3\nmodel.diffusion.multipliers = 0.5\n")
        np.testing.assert_array_equal(one.diffusion.multipliers, np.full(3, 0.5))
        each = self.build("model.N = 3\nmodel.diffusion.multipliers = 1,2,3\n")
        np.testing.assert_array_equal(each.diffusion.multipliers, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("key", ["model.diffusion.multipliers", "model.drift.multipliers"])
    def test_multipliers_need_one_or_n_values(self, key):
        with pytest.raises(ConfigError,
                           match=rf"need 1 or 4 values, got 2 \(key '{key}', line 3\)"):
            self.build(f"model.N = 4\nmodel.drift = linear\n{key} = 1,2\n")

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("model.covariance = constant\nmodel.covariance.value = -1\n", "model.covariance.value"),
            ("model.covariance = constant\nmodel.covariance.value = nan\n", "model.covariance.value"),
            ("model.covariance = custom\nmodel.covariance.values = 1,nan\n",
             "model.covariance.values"),
            ("model.drift = linear\nmodel.drift.multipliers = nan\n", "model.drift.multipliers"),
            ("model.diffusion.multipliers = inf\n", "model.diffusion.multipliers"),
        ],
    )
    def test_non_finite_or_negative_values_name_key_and_line(self, lines, key):
        line = lines.count("\n") + 1
        with pytest.raises(ConfigError, match=rf"must be finite.* \(key '{key}', line {line}\)"):
            self.build(f"model.N = 2\n{lines}")

    @pytest.mark.parametrize("role", ["drift", "diffusion"])
    def test_unknown_scalar_function_names_key_and_line(self, role):
        with pytest.raises(
            ConfigError, match=rf"'nope' not in \('cos', .*\(key 'model.{role}.function', line 3\)"
        ):
            self.build(f"model.N = 4\nmodel.{role} = nemytskii\nmodel.{role}.function = nope\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_moment_order_rejected(self, value):
        with pytest.raises(
            ConfigError,
            match=rf"moment order p must be finite, got {value} \(key 'model.p', line 2\)",
        ):
            self.build(f"model.N = 4\nmodel.p = {value}\n")

    # ModelSpec decides each of these, and the config error names the key at
    # fault; a norm that overflows is rejected by its check, with no numpy warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lines, message",
        [
            ("model.r = 1.5\n",
             r"additive models allow r in \[0, 1\], got 1.5 \(key 'model.r', line 2\)"),
            ("model.p = 1\n", r"moment order must be >= 2, got 1.0 \(key 'model.p', line 2\)"),
            ("model.drift = nemytskii\nmodel.drift.function = tanh\nmodel.drift.grid = 20\n",
             r"Nemytskii grid size 20 must be >= 2 \* 16 \(key 'model.drift.grid', line 4\)"),
            ("model.diffusion = nemytskii\nmodel.diffusion.function = cos\n"
             "model.diffusion.grid = 20\n",
             r"Nemytskii grid size 20 must be >= 2 \* 16 \(key 'model.diffusion.grid', line 4\)"),
            ("model.initial = 1e300\n", r"initial state must have a finite smoothness norm "
             r"at r \+ 1 \(key 'model.initial', line 2\)"),
            # the covariance, the multipliers and r all enter this norm: no one key is at fault
            ("model.diffusion.multipliers = 1e200\n",
             "weighted Hilbert-Schmidt norm of the diffusion is not finite"),
        ],
        ids=["model.r", "model.p", "model.drift.grid", "model.diffusion.grid", "model.initial",
             "hilbert-schmidt-norm"],
    )
    def test_model_rejection_names_key_and_line(self, lines, message):
        with pytest.raises(ConfigError, match=f"^invalid model: {message}$"):
            self.build(f"model.N = 16\n{lines}")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_final_time_rejected(self, value):
        cfg = parse_config_text(f"solver.T = {value}\nsolver.seed = 0\n")
        with pytest.raises(ConfigError, match=f"final time T must be finite, got {value}"):
            build_solver(cfg)

    def test_zero_modes_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"model.N must be >= 1, got 0 \(key 'model.N', line 1\)"):
            self.build("model.N = 0\n")

    @pytest.mark.parametrize(
        "line, method",
        [
            ("", EXPONENTIAL_EULER),
            ("solver.method = euler\n", EXPONENTIAL_EULER),
            ("solver.method = exact-gaussian\n", EXACT_GAUSSIAN),
        ],
    )
    def test_solver_method_is_read_into_the_solver_config(self, line, method):
        cfg = parse_config_text(f"solver.T = 0.1\nsolver.seed = 0\n{line}")
        assert build_solver(cfg).method == method

    def test_unknown_solver_method_names_key_and_line(self):
        cfg = parse_config_text("solver.T = 0.1\nsolver.method = rk4\n")
        with pytest.raises(ConfigError, match=r"'rk4' not in .*\(key 'solver.method', line 2\)"):
            build_solver(cfg)


def keys_read(source: str) -> set[str]:
    """Key literals read through a typed accessor, `in cfg` or `cfg.set`."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr.startswith("get_") or node.func.attr == "set")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            keys.add(node.args[0].value)
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and ast.unparse(node.comparators[0]) in ("cfg", "cfg.entries")
        ):
            keys.add(node.left.value)
    return keys


class TestRunSeries:
    def test_divergent_series_table(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = example-section5\n"
            "series.r = 0.25\nseries.t = 0.1\nseries.N = 1000,10000,100000\n"
            "solver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "N,partial_sum"
        sums = [float(row.split(",")[1]) for row in lines[2:]]
        assert sums[0] < sums[1] < sums[2]
        assert "non-decaying" in capsys.readouterr().out

    # the verdict compares the first increment with the last: one increment always
    # reads "non-decaying" against itself, and no increment has no verdict at all
    @pytest.mark.parametrize("n_values", ["1000", "1000,10000"])
    def test_verdict_needs_two_increments(self, tmp_path, capsys, n_values):
        config = write_config(
            tmp_path,
            f"kind = example-section5\nseries.r = 0\nseries.N = {n_values}\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[0].startswith("series r=0 t=0.1: partial sums ")
        assert "increments" not in captured.out and "decaying" not in captured.out
        rows = (tmp_path / "out" / "series.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == [int(v) for v in n_values.split(",")]

    def test_seed_warning_when_missing(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = simulate\nsolver.T = 0.01\nsolver.steps = 2\nsolver.paths = 3\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert "defaulting to 0" in capsys.readouterr().err


class TestRunSimulate:
    def test_degenerate_time_writes_initial_snapshot_only(self, tmp_path):
        config = write_config(
            tmp_path,
            BASE_MODEL
            + "kind = simulate\nmodel.initial = 1,2\nsolver.T = 0\nsolver.steps = 1\n"
            + "solver.paths = 5\nsolver.seed = 1\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()[2:]
        assert len(rows) == 16  # one row per mode, single snapshot
        assert all(row.split(",")[0] == "0.0" for row in rows)
        assert rows[0].split(",")[2] == "1.0"  # the initial coefficient
        assert all(row.split(",")[3] == "0.0" for row in rows)  # deterministic start

    # two times on one grid step would leave one snapshot row of the run unset
    def test_two_snapshot_times_on_one_grid_step_are_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = simulate\nsolver.T = 1\nsolver.steps = 10\nsolver.paths = 4\n"
            "solver.seed = 1\nsolver.snapshots = 0.3, 0.3000000000001\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid solver section: snapshot times 0.3 and 0.3000000000001 "
            "fall on grid steps 3 and 3, which must increase (h = 0.1) "
            "(key 'solver.snapshots', line 13)\n"
        )
        assert list((tmp_path / "out").glob("*.csv")) == []

    # F(x) = -2000 x makes the modes with lam_k < 2000 grow like e^{(2000 - lam_k) t},
    # which overflows long before T = 4
    STIFF = (
        "kind = simulate\nmodel.N = 8\nmodel.drift = linear\n"
        "model.drift.multipliers = -2000\nsolver.T = 4\nsolver.steps = 400\n"
        "solver.paths = 4\n"
    )
    NON_FINITE = r"error: non-finite state on path \d+ at step \d+ of 400 \(t = [\d.]+\)"
    STIFF_WARNING = (
        "warning: step h = 0.01 with linear drift multiplier f_1 = -2000 gives "
        "h*max|f_k| = 20 >= 1; the Euler drift term may be unstable"
    )

    # an overflow warning escaping the solver would raise here instead of reaching stderr
    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_stops_the_run(self, tmp_path, capsys):
        config = write_config(tmp_path, self.STIFF + "solver.seed = 1\n")
        code = main(["run", str(config), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == self.STIFF_WARNING
        assert re.fullmatch(self.NON_FINITE, err[1]), err
        assert len(err) == 2
        assert not (tmp_path / "out" / "snapshots.csv").exists()

    def test_warnings_are_printed_when_the_run_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, self.STIFF)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: solver.seed not set; defaulting to 0"
        assert err[1] == self.STIFF_WARNING
        assert re.fullmatch(self.NON_FINITE, err[2])
        assert len(err) == 3

    LINEAR = (
        "kind = simulate\nmodel.N = 4\nmodel.drift = linear\nsolver.T = 0.01\n"
        "solver.steps = 2\nsolver.paths = 3\nsolver.seed = 1\n"
    )

    # h = 0.005: f_2 = -250 gives h |f_2| = 1.25, so the run warns and still completes
    def test_stiff_linear_drift_warns_without_failing(self, tmp_path, capsys):
        config = write_config(tmp_path, self.LINEAR + "model.drift.multipliers = 1, -250, 30, 2\n")
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: step h = 0.005 with linear drift multiplier f_2 = -250 gives "
            "h*max|f_k| = 1.25 >= 1; the Euler drift term may be unstable\n"
        )
        assert (tmp_path / "out" / "snapshots.csv").exists()

    def test_moderate_linear_drift_is_silent(self, tmp_path, capsys):
        config = write_config(tmp_path, self.LINEAR + "model.drift.multipliers = 1, -150, 30, 2\n")
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


class TestRunProbes:
    def test_temporal_probe_emits_tables_and_summary(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL
            + "kind = probe-temporal\nsolver.T = 0.004\nsolver.steps = 200\n"
            + "solver.paths = 300\nsolver.seed = 7\n"
            + "probe.s = 0\nprobe.anchor = 0.002\n"
            + "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "slope≈" in out and "predicted 0.5" in out
        table = (tmp_path / "out" / "temporal_s0.csv").read_text().splitlines()
        assert table[1] == "lag,estimate,stderr"
        assert len(table) == 12
        fits = (tmp_path / "out" / "holder_fits.csv").read_text().splitlines()
        assert fits[1] == "s,slope,stderr,predicted"

    # the last two lags put anchor + lag on one grid step, 300
    def test_two_lags_on_one_grid_step_are_rejected(self, tmp_path, capsys):
        lags = [m * 5e-4 for m in (1, 2, 3, 5, 8, 13, 22, 36, 60)] + [0.05, 0.0500000000001]
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.2\nsolver.steps = 400\n"
            "solver.paths = 4\nsolver.seed = 1\nprobe.s = 0\nprobe.anchor = 0.1\n"
            f"probe.lags = {', '.join(map(repr, lags))}\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: snapshot times {0.1 + 0.05} and "
                              f"{0.1 + 0.0500000000001} fall on grid steps 300 and 300, "
                              "which must increase (h = 0.0005)")
        assert err.endswith("(key 'probe.lags', line 15)\n")
        assert list((tmp_path / "out").glob("*.csv")) == []

    def test_spatial_probe_summary(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = probe-spatial\nmodel.N = 32\nsolver.T = 0.1\nsolver.steps = 20\n"
            "solver.paths = 200\nsolver.seed = 3\nsolver.method = exact-gaussian\n"
            "probe.s = 1\nprobe.sweep_N = 4,8,16,32\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert "gaps decreasing" in capsys.readouterr().out
        rows = (tmp_path / "out" / "spatial_sweep.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == [4, 8, 16, 32]

    def test_single_value_sweep_has_no_gap_line(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = probe-spatial\nmodel.N = 16\nsolver.T = 0.1\nsolver.steps = 10\n"
            "solver.paths = 50\nsolver.seed = 3\nprobe.sweep_N = 16\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 and "gaps" not in captured.out
        rows = (tmp_path / "out" / "spatial_sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == 1 and rows[0].startswith("16,")

    @pytest.mark.parametrize(
        "probe",
        [
            "kind = probe-temporal\nsolver.T = 0.004\nsolver.steps = 200\n"
            "probe.s = 0, 0.5, 1\nprobe.anchor = 0.002\n"
            "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n",
            "kind = probe-spatial\nsolver.T = 0.1\nsolver.steps = 10\n"
            "probe.sweep_N = 2, 4, 8, 16\n",
        ],
        ids=["temporal", "spatial"],
    )
    def test_probe_simulates_the_ensemble_once(self, probe, tmp_path, capsys, map_paths_calls):
        config = write_config(
            tmp_path, BASE_MODEL + probe + "solver.paths = 40\nsolver.seed = 2\nsolver.workers = 2\n"
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert len(map_paths_calls) == 1


class TestRunVerifiers:
    def test_lemma_suite_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-lemmas\nsolver.seed = 0\n"
            "lemmas.bound_draws = 150\nlemmas.exactness_draws = 20\nlemmas.paths = 1500\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    # small enough to be fast; at seed 3 the 200 bound draws include ratios
    # within 10% of the sharp difference bound, and every exactness draw counts
    SMALL_SUITE = {"bound_draws": 200, "exactness_draws": 5, "mc_paths": 200, "seed": 3}

    @staticmethod
    def outcomes(checks):
        return {c.name: c.passed for c in checks}

    def test_small_suite_passes_unpatched(self):
        assert all(self.outcomes(cli.verify_lemmas(**self.SMALL_SUITE)).values())

    # called directly, a size that tests nothing is rejected before any draw
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "size, value, message",
        [("bound_draws", 0, "bound_draws must be >= 1, got 0"),
         ("exactness_draws", 0, "exactness_draws must be >= 1, got 0"),
         ("mc_paths", 1, "mc_paths must be >= 2, got 1")],
    )
    def test_suite_that_tests_nothing_is_rejected(self, size, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.verify_lemmas(**{**self.SMALL_SUITE, size: value})

    def test_inexact_energy_fails_exactness(self, monkeypatch):
        exact = cli.stochastic_convolution_energy
        monkeypatch.setattr(cli, "stochastic_convolution_energy",
                            lambda *args: exact(*args) * (1.0 + 1e-7))
        assert not self.outcomes(cli.verify_lemmas(**self.SMALL_SUITE))["convolution_exactness"]

    def test_undersized_difference_constant_fails_its_bound(self, monkeypatch):
        sharp = cli.smoothing_constant

        def shrunk(kind, exponent):
            return sharp(kind, exponent) * (0.9 if kind == "difference" else 1.0)

        monkeypatch.setattr(cli, "smoothing_constant", shrunk)
        outcomes = self.outcomes(cli.verify_lemmas(**self.SMALL_SUITE))
        assert not outcomes["difference_smoothing"]
        assert outcomes["power_smoothing"] and outcomes["convolution_flow_bound"]

    def test_assumption_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 256\nmodel.r = 0\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "drift_lipschitz: PASS" in out
        assert "diffusion_growth: PASS" in out

    def test_assumption_report_on_a_linear_drift(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 4\nmodel.drift = linear\n"
            "model.drift.multipliers = 1,-3,2,0.5\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        # the Lipschitz constant of a diagonal drift is sup |f_k|
        assert "drift_lipschitz: PASS constant=3.0" in capsys.readouterr().out.splitlines()

    def test_assumption_report_flags_divergent_weighting(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 256\nmodel.r = 0.5\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        assert "diffusion_growth: FAIL" in capsys.readouterr().out


class TestReproducibility:
    CONFIG = (
        BASE_MODEL
        + "kind = probe-temporal\nsolver.T = 0.004\nsolver.steps = 200\n"
        + "solver.paths = 150\nsolver.seed = 11\n"
        + "probe.s = 0,0.5\nprobe.anchor = 0.002\n"
        + "probe.lags = 2e-5,4e-5,6e-5,1e-4,1.6e-4,2.6e-4,4.4e-4,7.2e-4,1.2e-3,2e-3\n"
    )

    def test_identical_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        for run in ("a", "b"):
            assert main(["run", str(config), "--output-dir", str(tmp_path / run)]) == 0
        for name in ("temporal_s0.csv", "temporal_s1.csv", "holder_fits.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "w1"), "--workers", "1"]) == 0
        assert main(["run", str(config), "--output-dir", str(tmp_path / "w4"), "--workers", "4"]) == 0
        for name in ("temporal_s0.csv", "temporal_s1.csv", "holder_fits.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "s11")]) == 0
        assert main(["run", str(config), "--output-dir", str(tmp_path / "s12"), "--seed", "12"]) == 0
        a = (tmp_path / "s11" / "temporal_s0.csv").read_text()
        b = (tmp_path / "s12" / "temporal_s0.csv").read_text()
        assert a != b
        assert "solver.seed=12" in b.splitlines()[0]


class TestCommandLine:
    def test_list_registry(self, capsys):
        assert main(["--list-registry"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "cos: Lipschitz constant 1",
            "identity: Lipschitz constant 1",
            "one: Lipschitz constant 0",
            "sigmoid: Lipschitz constant 0.25",
            "sin: Lipschitz constant 1",
            "tanh: Lipschitz constant 1",
        ]

    def test_bad_config_returns_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, "kind = simulate\nsolver.T = never\n")
        assert main(["run", str(config)]) == 2
        assert "solver.T" in capsys.readouterr().err

    # a kind without a runner would pass the parser and fail only at run time
    def test_every_kind_has_a_runner(self):
        assert tuple(cli._RUNNERS) == KINDS

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    # the last lag reaches 7 steps past the anchor at step 5, beyond T = 10 steps
    def test_lag_past_the_final_time_is_named_as_such(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.01\nsolver.steps = 10\n"
            "solver.paths = 4\nsolver.seed = 1\nprobe.s = 0\n"
            "probe.lags = 0.001,0.002,0.003,0.004,0.005,0.007\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "lies outside [0, T] = [0, 0.01]" in err
        assert "not a grid point" not in err

    # the default anchor is grid step steps // 2 = 100, and the lags reach 100 steps past it
    def test_default_lags_fit_an_odd_step_count(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.01\nsolver.steps = 201\n"
            "solver.paths = 4\nsolver.seed = 1\nprobe.s = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "temporal_s0.csv").read_text().splitlines()[2:]
        lags = [float(row.split(",")[0]) for row in rows]
        assert len(lags) == 10
        assert lags[-1] / lags[0] == pytest.approx(100.0)

    def test_too_few_steps_for_default_lags_name_the_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.01\nsolver.steps = 150\n"
            "solver.paths = 4\nsolver.seed = 1\nprobe.s = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: only 75 steps follow the anchor")
        assert "two decades" in err and "probe.lags" in err

    # each size check of build_model names the line of the key at fault
    @pytest.mark.parametrize(
        "lines, message",
        [
            ("model.N = 0\n", "model.N must be >= 1, got 0 (key 'model.N', line 4)"),
            ("model.N = 4\nmodel.covariance = custom\nmodel.covariance.values = 1,2,3\n",
             "custom covariance needs 4 values, got 3 (key 'model.covariance.values', line 6)"),
            ("model.N = 4\nmodel.diffusion.multipliers = 1,2\n",
             "need 1 or 4 values, got 2 (key 'model.diffusion.multipliers', line 5)"),
            ("model.N = 4\nmodel.initial = 1,2,3,4,5\n",
             "initial state has 5 coefficients for 4 modes (key 'model.initial', line 5)"),
        ],
        ids=["model.N", "model.covariance.values", "model.diffusion.multipliers",
             "model.initial"],
    )
    def test_model_size_error_names_key_and_line(self, tmp_path, capsys, lines, message):
        config = write_config(
            tmp_path, "kind = simulate\nsolver.T = 0.01\nsolver.seed = 0\n" + lines
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    # SolverConfig decides each of these, and the probe's times are checked
    # against its grid; the config error names the key at fault
    @pytest.mark.parametrize(
        "kind, fault, rest, message",
        [
            ("simulate", "solver.steps = 0", "solver.T = 0.01",
             "invalid solver section: need at least one step, got 0 (key 'solver.steps', line 3)"),
            ("simulate", "solver.paths = 0", "solver.T = 0.01",
             "invalid solver section: need at least one path, got 0 (key 'solver.paths', line 3)"),
            ("simulate", "solver.T = -1", "",
             "invalid solver section: final time must be >= 0, got -1.0 (key 'solver.T', line 3)"),
            ("simulate", "solver.snapshots = 0.003", "solver.T = 0.01\nsolver.steps = 4",
             "invalid solver section: time 0.003 is not a grid point (h = 0.0025) "
             "(key 'solver.snapshots', line 3)"),
            ("simulate", "solver.snapshots = 0.02", "solver.T = 0.01\nsolver.steps = 4",
             "invalid solver section: time 0.02 lies outside [0, T] = [0, 0.01] "
             "(key 'solver.snapshots', line 3)"),
            ("simulate", "solver.snapshots = 0.005, 0.0025", "solver.T = 0.01\nsolver.steps = 4",
             "invalid solver section: snapshot times 0.005 and 0.0025 fall on grid steps 2 "
             "and 1, which must increase (h = 0.0025) (key 'solver.snapshots', line 3)"),
            ("probe-temporal", "probe.anchor = 0.01234", "solver.T = 0.1\nsolver.steps = 200",
             "time 0.01234 is not a grid point (h = 0.0005) (key 'probe.anchor', line 3)"),
            ("probe-temporal", "probe.anchor = 0.2", "solver.T = 0.1\nsolver.steps = 200",
             "time 0.2 lies outside [0, T] = [0, 0.1] (key 'probe.anchor', line 3)"),
            ("probe-temporal", "probe.lags = 0.0003",
             "solver.T = 0.1\nsolver.steps = 200\nprobe.anchor = 0.01",
             f"time {0.01 + 0.0003} is not a grid point (h = 0.0005) (key 'probe.lags', line 3)"),
            ("probe-temporal", "probe.lags = 0.095",
             "solver.T = 0.1\nsolver.steps = 200\nprobe.anchor = 0.01",
             f"time {0.01 + 0.095} lies outside [0, T] = [0, 0.1] (key 'probe.lags', line 3)"),
        ],
        ids=["solver.steps", "solver.paths", "solver.T", "snapshot-off-grid",
             "snapshot-past-T", "snapshots-decreasing", "anchor-off-grid", "anchor-past-T",
             "lag-off-grid", "lag-past-T"],
    )
    def test_solver_and_probe_time_errors_name_key_and_line(self, tmp_path, capsys, kind,
                                                           fault, rest, message):
        config = write_config(
            tmp_path, f"kind = {kind}\nsolver.seed = 0\n{fault}\n{rest}\nmodel.N = 4\nprobe.s = 0\n"
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list((tmp_path / "out").glob("*.csv")) == []

    # a check that draws nothing passes vacuously, and one path has no standard error
    @pytest.mark.parametrize(
        "key, value, least",
        [("lemmas.bound_draws", 0, 1), ("lemmas.exactness_draws", -3, 1), ("lemmas.paths", 1, 2)],
    )
    def test_lemma_suite_that_tests_nothing_is_rejected(self, tmp_path, capsys, key, value,
                                                        least):
        sizes = {"lemmas.bound_draws": 5, "lemmas.exactness_draws": 2, "lemmas.paths": 50}
        sizes[key] = value
        config = write_config(
            tmp_path, "kind = verify-lemmas\nsolver.seed = 0\n"
            + "".join(f"{k} = {v}\n" for k, v in sizes.items()),
        )
        line = 3 + list(sizes).index(key)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: {key} must be >= {least}, got {value} (key '{key}', line {line})\n"
        )
        assert captured.out == ""
        assert list((tmp_path / "out").glob("*.csv")) == []

    def test_misspelled_key_exits_with_a_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "kind = simulate\nsolver.T = 0.01\nsolver.methd = exact-gaussian\n"
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        assert "unknown key (key 'solver.methd', line 3)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Runs every config through `cli.main` in a fresh interpreter and lists the scipy
# modules loaded by then; it then imports scipy itself, as a positive control
# that the listing sees a scipy import.
_STARTUP_SCRIPT = """
import json, sys
from spdelab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, *configs = sys.argv[1:]
codes = [cli.main(["run", c, "--output-dir", out]) for c in configs]
loaded = scipy_modules()
import scipy
print(json.dumps({"codes": codes, "scipy": loaded, "control": scipy_modules()}))
"""


class TestStartup:
    CONFIGS = {
        "simulate": "kind = simulate\nmodel.N = 8\nmodel.drift = nemytskii\n"
        "model.drift.function = tanh\nmodel.drift.grid = 16\n"
        "solver.T = 0.01\nsolver.steps = 2\nsolver.paths = 3\nsolver.seed = 0\n",
        "probe-temporal": BASE_MODEL + "kind = probe-temporal\nsolver.T = 0.004\n"
        "solver.steps = 200\nsolver.paths = 20\nsolver.seed = 0\nprobe.s = 0\n"
        "probe.anchor = 0.002\nprobe.lags = 2e-5,4e-5,1e-4,1.6e-4,2.6e-4,7.2e-4,1.2e-3,2e-3\n",
        "probe-spatial": "kind = probe-spatial\nmodel.N = 16\nsolver.T = 0.1\n"
        "solver.steps = 4\nsolver.paths = 20\nsolver.seed = 0\n"
        "solver.method = exact-gaussian\nprobe.s = 1\nprobe.sweep_N = 4,8,16\n",
        "example-section5": "kind = example-section5\nseries.N = 100,1000\nsolver.seed = 0\n",
        "verify-assumptions": "kind = verify-assumptions\nmodel.N = 16\n"
        "model.diffusion = nemytskii\nmodel.diffusion.function = cos\n"
        "model.diffusion.grid = 32\nsolver.seed = 0\n",
        "verify-lemmas": "kind = verify-lemmas\nsolver.seed = 0\nlemmas.bound_draws = 5\n"
        "lemmas.exactness_draws = 2\nlemmas.paths = 50\n",
    }

    def test_no_command_imports_scipy(self, tmp_path):
        paths = [str(write_config(tmp_path, text, f"{kind}.cfg"))
                 for kind, text in self.CONFIGS.items()]
        src = str(Path(spdelab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path / "out"), *paths],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [0] * len(paths)
        assert result["scipy"] == []
        assert "scipy" in result["control"]
