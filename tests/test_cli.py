"""CLI and config-file tests: parsing, experiment kinds, and reproducibility."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spdelab
from spdelab.cli import main
from spdelab.config import ConfigError, parse_config_text

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

    def test_missing_key_names_the_key(self):
        cfg = parse_config_text("kind = simulate\n")
        with pytest.raises(ConfigError, match="solver.T"):
            cfg.get_float("solver.T")

    def test_bad_number_names_key_and_line(self):
        cfg = parse_config_text("kind = simulate\nsolver.T = soon\n")
        with pytest.raises(ConfigError, match=r"solver.T.*line 2"):
            cfg.get_float("solver.T")


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

    # F(x) = -2000 x makes the modes with lam_k < 2000 grow like e^{(2000 - lam_k) t},
    # which overflows long before T = 4
    STIFF = (
        "kind = simulate\nmodel.N = 8\nmodel.drift = linear\n"
        "model.drift.multipliers = -2000\nsolver.T = 4\nsolver.steps = 400\n"
        "solver.paths = 4\n"
    )
    NON_FINITE = r"error: non-finite state on path \d+ at step \d+ of 400 \(t = [\d.]+\)"

    # an overflow warning escaping the solver would raise here instead of reaching stderr
    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_stops_the_run(self, tmp_path, capsys):
        config = write_config(tmp_path, self.STIFF + "solver.seed = 1\n")
        code = main(["run", str(config), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(self.NON_FINITE + "\n", err), err
        assert not (tmp_path / "out" / "snapshots.csv").exists()

    def test_warnings_are_printed_when_the_run_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, self.STIFF)
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: solver.seed not set; defaulting to 0"
        assert re.fullmatch(self.NON_FINITE, err[1])
        assert len(err) == 2


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

    def test_assumption_report(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "kind = verify-assumptions\nmodel.N = 256\nmodel.r = 0\nsolver.seed = 0\n",
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "drift_lipschitz: PASS" in out
        assert "diffusion_growth: PASS" in out

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
        out = capsys.readouterr().out
        assert "identity" in out and "tanh" in out

    def test_bad_config_returns_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, "kind = simulate\nsolver.T = never\n")
        assert main(["run", str(config)]) == 2
        assert "solver.T" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


# Runs every config but the last through `cli.main` in a fresh interpreter, lists
# the scipy modules loaded by then, and then runs the last config (verify-lemmas).
_STARTUP_SCRIPT = """
import json, sys
from spdelab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, *configs, lemmas = sys.argv[1:]
codes = [cli.main(["run", c, "--output-dir", out]) for c in configs]
loaded = scipy_modules()
lemmas_code = cli.main(["run", lemmas, "--output-dir", out])
print(json.dumps({"codes": codes, "scipy": loaded, "lemmas_code": lemmas_code,
                  "scipy_after_lemmas": bool(scipy_modules())}))
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

    def test_only_verify_lemmas_imports_scipy(self, tmp_path):
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
        assert result["codes"] == [0] * (len(paths) - 1)
        assert result["scipy"] == []
        assert result["lemmas_code"] == 0
        assert result["scipy_after_lemmas"]
