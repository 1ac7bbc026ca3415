"""spdelab benchmark: one workload, run through the public CLI in fresh processes.

    python3 bench/run.py --workload additive-probes --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55   # every workload in turn

Each pass over the workload spawns one set-up probe (`setup_probe.py`) and then
every command of the workload, `python -m spdelab.cli run CONFIG --seed SEED`,
each with a fresh, empty output directory whose CSV files are checked against
closed forms. Passes repeat until the next one would overrun `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics, medians
over the passes: `wall_s` (spawn to exit of the workload's commands, summed),
`setup_s` (spawn to exit of the set-up probe) and `peak_rss_mb` (largest peak
resident set among the commands). With `--trace 1` each pass runs the
workload once untraced and once under `tracing.py`, and the last line reports
the per-layer metrics, medians over the traced passes, plus the layer sweeps.

Failed commands and failed checks are counted in `attempted`/`failed`; their
ratio is printed as `failed_frac`. Working files go to `.bench_run/` at the
root of the checkout; per-pass outputs are deleted once checked.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import sweeps
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s


@dataclass
class Finished:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Attempted and failed operations: each command run and each output check."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, what: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {message}" for message in failures[:5])
        return not failures


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv: list[str], log_stem: Path, deadline: float) -> Finished:
    """Run `python argv...` to completion; wall time is spawn to exit."""
    out, err = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    actions = [
        (os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, path in ((1, out), (2, err))
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.0))
        wall = time.perf_counter() - start
        if not exited:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    code = os.waitstatus_to_exitcode(status) if exited else -signal.SIGKILL
    return Finished(code, wall, usage.ru_maxrss / 1024.0, out.read_text(), err.read_text())


def ran(tally: Tally, what: str, result: Finished) -> bool:
    failures = [] if result.code == 0 else [
        f"exit code {result.code}: {result.stderr.strip()[-300:]}"
    ]
    return tally.add(what, failures)


class Runner:
    """One benchmark run of one workload: its configs, working directory and tally."""

    def __init__(self, workload, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.tally = Tally()
        self.passes = 0
        self.configs = []
        for i, command in enumerate(workload.commands):
            path = run_dir / f"{i}-{command.name}.cfg"
            path.write_text(command.config)
            self.configs.append(path)

    def _pass_dir(self, label: str) -> Path:
        self.passes += 1
        path = self.run_dir / f"pass{self.passes}-{label}"
        path.mkdir()
        return path

    def setup(self) -> float:
        pass_dir = self._pass_dir("setup")
        result = spawn([str(BENCH / "setup_probe.py"), *map(str, self.configs)],
                       pass_dir / "setup", self.deadline)
        ran(self.tally, "setup", result)
        shutil.rmtree(pass_dir)
        return result.wall

    def commands(self, traced: bool = False) -> tuple[float, float, Path, list[Path]]:
        """One pass over the workload: summed wall, peak RSS, the pass directory
        (the caller deletes it) and, when traced, the span files in it."""
        pass_dir = self._pass_dir("traced" if traced else "plain")
        wall, rss, spans = 0.0, 0.0, []
        for i, (command, config) in enumerate(zip(self.workload.commands, self.configs)):
            out_dir = pass_dir / f"{i}-{command.name}"
            out_dir.mkdir()
            cli_args = ["run", str(config), "--seed", str(self.seed), "--output-dir", str(out_dir)]
            if traced:
                spans.append(pass_dir / f"{i}.npz")
                run_id = f"{self.workload.name}-s{self.seed}-pass{self.passes}-{i}"
                argv = [str(BENCH / "tracing.py"), "--spans", str(spans[-1]),
                        "--run-id", run_id, "--", *cli_args]
            else:
                argv = ["-m", "spdelab.cli", *cli_args]
            result = spawn(argv, pass_dir / str(i), self.deadline)
            wall += result.wall
            rss = max(rss, result.rss_mb)
            if ran(self.tally, command.name, result):
                self.tally.add(f"check {command.name}", command.check(out_dir, result.stdout))
        return wall, rss, pass_dir, spans


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """End-to-end samples: passes of (set-up probe, workload) until `seconds` is spent."""
    runner.setup()  # warm-up: compiled modules and the file cache, which users pay once
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        samples["setup_s"].append(runner.setup())
        wall, rss, pass_dir, _ = runner.commands()
        shutil.rmtree(pass_dir)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        now = time.monotonic()
        if now + (now - pass_start) > min(start + seconds, runner.deadline):
            return samples


def measure_traced(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Per-layer samples: pairs of (untraced pass, traced pass), then the sweeps."""
    sys.path.insert(0, str(SRC))  # the sweeps call spdelab in this process
    runner.setup()
    samples: dict[str, list[float]] = {}
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        plain_wall, _, plain_dir, _ = runner.commands()
        shutil.rmtree(plain_dir)
        traced_wall, _, traced_dir, span_files = runner.commands(traced=True)
        if all(path.is_file() for path in span_files):
            metrics = tracing.layer_metrics([tracing.load(p) for p in span_files], traced_wall)
            metrics["trace.overhead_s"] = traced_wall - plain_wall
            for key, value in metrics.items():
                samples.setdefault(key, []).append(value)
        shutil.rmtree(traced_dir)
        now = time.monotonic()
        if now + (now - pass_start) > min(start + seconds, runner.deadline):
            break
    layer, failures = sweeps.transform_sweep(runner.seed)
    runner.tally.add("transform sweep", failures)
    layer.update(sweeps.noise_sweep(runner.seed))
    for key, value in layer.items():
        samples[key] = [value]
    return samples


def environment(seed: int) -> dict:
    """Machine, versions and commit the result was measured with."""
    info = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        info[package] = importlib.metadata.version(package)
    info["cpu_model"] = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    info["caches"] = caches
    info["commit"] = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            info["commit"] = result.stdout.strip()
    return info


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric in one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def run_workload(workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; print its summary lines and return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    label = f"{workload.name}-s{seed}-t{trace}"
    run_dir = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, run_dir, deadline)
        if trace:
            samples = measure_traced(runner, seconds)
        else:
            samples = measure(runner, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = metric_units("per_layer" if trace else "end_to_end")
    tally = runner.tally
    tally.add("metrics", [f"{name} was not measured" for name in units if not samples.get(name)])
    for message in tally.messages:
        print(f"FAILED {workload.name} {message}", file=sys.stderr)
    metrics = {
        name: {"value": statistics.median(samples.get(name) or [0.0]), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    env = environment(seed)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "trace": trace, "environment": env,
              "samples": samples, **result}
    (results_dir / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {workload.name}: {workload.why}")
    print(f"# environment {json.dumps(env)}")
    for name, entry in metrics.items():
        n = len(samples.get(name, []))
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']} (median of {n})")
    print(f"{workload.name} failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} commands and checks)")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spdelab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int, help="passed to every command")
    parser.add_argument("--seconds", required=True, type=float,
                        help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if not (SRC / "spdelab" / "cli.py").is_file():
        print(f"error: no spdelab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
