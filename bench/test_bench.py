"""Tests of the benchmark itself: its output checks and its trace accounting."""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from spdelab import cli, noise, solver  # noqa: E402

SMALL = {
    "additive": workloads.additive_command(N=16, T=0.02, steps=20, paths=256),
    "nemytskii": workloads.nemytskii_command(N=16, grid=64, T=0.02, steps=20, paths=256),
    "temporal": workloads.temporal_command(N=16, paths=128, workers=1),
    "spatial": workloads.spatial_command(sweep_N=(16, 32, 64), paths=256, workers=2),
    "lemmas": workloads.lemmas_command(bound_draws=50, exactness_draws=5, paths=200),
    "series": workloads.series_command(N_values=(100, 1000, 10000)),
    "assumptions": workloads.assumptions_command(N=16, grid=64),
}


def run_cli(command, tmp_path, capsys, main=cli.main):
    config = tmp_path / "run.cfg"
    config.write_text(command.config)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = main(["run", str(config), "--seed", "3", "--output-dir", str(out_dir)])
    assert code == 0
    return out_dir, capsys.readouterr().out


def rewrite_column(path, column, change):
    """Apply `change(row values)` to one column of a CLI table in place."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    index = header.index(column)
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        values = dict(zip(header, map(float, cells)))
        cells[index] = repr(change(values))
        rows.append(",".join(cells))
    path.write_text("\n".join(lines[:2] + rows) + "\n")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_accept_real_output(name, tmp_path, capsys):
    command = SMALL[name]
    out_dir, stdout = run_cli(command, tmp_path, capsys)
    assert command.check(out_dir, stdout) == []


def test_additive_check_rejects_scaled_variances(tmp_path, capsys):
    command = SMALL["additive"]
    out_dir, stdout = run_cli(command, tmp_path, capsys)
    rewrite_column(out_dir / "snapshots.csv", "variance", lambda row: 1.2 * row["variance"])
    assert command.check(out_dir, stdout)


def test_nemytskii_check_rejects_shifted_means(tmp_path, capsys):
    command = SMALL["nemytskii"]
    out_dir, stdout = run_cli(command, tmp_path, capsys)
    rewrite_column(out_dir / "snapshots.csv", "mean",
                   lambda row: row["mean"] + 5.0 * math.sqrt(row["variance"] / 255))
    assert command.check(out_dir, stdout)


def test_checks_reject_missing_output_and_failed_lines(tmp_path):
    assert SMALL["additive"].check(tmp_path, "") == ["snapshots.csv: missing"]
    (tmp_path / "lemmas.csv").write_text(
        "# config: kind=verify-lemmas\ncheck,draws,violations,worst,passed\n"
        "power_smoothing,10,0,0.5,true\n"
    )
    check = SMALL["lemmas"].check
    assert check(tmp_path, "power_smoothing: PASS (violations 0/10)\n") == []
    assert check(tmp_path, "power_smoothing: FAIL (violations 1/10)\n")


def test_self_times_share_concurrent_time():
    # parent [0, 10] with children on two threads: a [0, 6] and b [2, 10]
    own = tracing.self_times(np.array([-1, 0, 0]), np.array([0.0, 0.0, 2.0]),
                             np.array([10.0, 6.0, 10.0]))
    assert own == pytest.approx([0.0, 4.0, 6.0])
    # nested on one thread: self time is the duration minus the child's
    own = tracing.self_times(np.array([-1, 0]), np.array([0.0, 1.0]), np.array([5.0, 3.0]))
    assert own == pytest.approx([3.0, 2.0])


@pytest.mark.parametrize("name, workers", [("additive", 1), ("nemytskii", 2)])
def test_traced_self_times_add_up_to_the_wall(name, workers, tmp_path, capsys):
    command = SMALL[name]
    command = workloads.Command(
        command.name,
        command.config.replace("solver.workers = 1", f"solver.workers = {workers}"),
        command.check,
    )
    originals = (solver.map_paths, noise.NoiseStream.step_normals, cli.write_csv)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        start = time.perf_counter()
        out_dir, stdout = run_cli(command, tmp_path, capsys, tracer.wrap("cli.main", cli.main))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert (solver.map_paths, noise.NoiseStream.step_normals, cli.write_csv) == originals
    assert command.check(out_dir, stdout) == []

    metrics = tracing.layer_metrics([tracer.spans()], wall)
    self_keys = set(tracing.SELF_METRIC.values()) | {"other.self_s"}
    assert all(metrics[key] >= 0.0 for key in self_keys)
    assert sum(metrics[key] for key in self_keys) == pytest.approx(wall, rel=1e-9)
    assert metrics["noise.step_normals.calls"] == 256 * 20
    assert metrics["solver.path_steps"] == 256 * 20
    assert metrics["solver.blocks"] == 2
    assert 0.0 < metrics["solver.parallel_efficiency"] <= 1.0
    assert metrics["cli.write_csv.calls"] == 1 and metrics["cli.write_csv.bytes"] > 0
    transform_calls = metrics["transforms.synthesize.calls"] + metrics["transforms.analyze.calls"]
    assert (transform_calls > 0) == (name == "nemytskii")
