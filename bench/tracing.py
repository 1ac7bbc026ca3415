"""Span tracing of spdelab's layers, installed from outside the library.

`Tracer.install` replaces the functions callers use to enter each layer with
wrappers that record a span: name, start, end and parent. Parents are tracked
per thread; a span opened on a pool thread with no span of its own has the
enclosing `map_paths` span as parent, so 2-worker runs nest correctly. Spans
stay in memory until `save` writes them out.

Run as a script, this module executes one CLI command in-process under the
tracer and writes its spans to an .npz file when the command ends:

    python3 bench/tracing.py --spans OUT.npz --run-id ID -- run CONFIG --seed S

Only the standard library is imported before the timed `import spdelab.cli`.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

# Span name -> per-layer metric that its self time adds to.
SELF_METRIC = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "cli.verify_lemmas": "cli.verify_lemmas.self_s",
    "cli.write_csv": "cli.write_csv.self_s",
    "config.parse": "config.self_s",
    "config.build_model": "config.self_s",
    "config.build_solver": "config.self_s",
    "noise.stream_init": "noise.stream_init.self_s",
    "noise.step_normals": "noise.step_normals.self_s",
    "solver.map_paths": "solver.self_s",
    "solver.block": "solver.self_s",
    "models.drift": "models.drift.self_s",
    "models.diffusion": "models.diffusion.self_s",
    "models.assumptions": "models.assumptions.self_s",
    "transforms.synthesize": "transforms.self_s",
    "transforms.analyze": "transforms.self_s",
    "probes.probe": "probes.self_s",
    "probes.reduce": "probes.reduce.self_s",
    "probes.estimate_lp_norm": "probes.estimate_lp_norm.self_s",
    "spectrum.smoothing_constant": "spectrum.smoothing_constant.self_s",
    "spectrum.convolution": "spectrum.convolution.self_s",
}

# Span name -> per-layer metric that counts its calls.
CALL_METRIC = {
    "cli.write_csv": "cli.write_csv.calls",
    "noise.step_normals": "noise.step_normals.calls",
    "noise.stream_init": "noise.streams_created",
    "solver.map_paths": "solver.map_paths.calls",
    "solver.block": "solver.blocks",
    "transforms.synthesize": "transforms.synthesize.calls",
    "transforms.analyze": "transforms.analyze.calls",
    "probes.estimate_lp_norm": "probes.estimate_lp_norm.calls",
    "spectrum.smoothing_constant": "spectrum.smoothing_constant.calls",
}

# Counters recorded by the wrappers next to the spans.
COUNTERS = ("cli.write_csv.bytes", "solver.path_steps", "solver.worker_s", "transforms.flop")


class _ThreadLog:
    """Spans closed on one thread, in columns, plus that thread's counters."""

    __slots__ = ("stack", "sid", "name", "parent", "start", "end", "counts")

    def __init__(self):
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}

    def close(self, sid, name, parent, start, end):
        self.sid.append(sid)
        self.name.append(name)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._pool_parent = -1
        self._restore: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a root span timed by the caller."""
        self._log().close(next(self._ids), self._name_id(name), -1, start, end)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(log, args, kwargs, result)` adds counters."""
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log = self._log()
            sid = next(self._ids)
            stack = log.stack
            parent = stack[-1] if stack else self._pool_parent
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                log.close(sid, nid, parent, start, end)
            if after is not None:
                after(log, args, kwargs, result)
            return result

        return traced

    def _wrap_map_paths(self, fn):
        signature = inspect.signature(fn)

        def entered(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["reduce_block"] = self.wrap(
                "probes.reduce", bound.arguments["reduce_block"]
            )
            log = self._log()
            outer, self._pool_parent = self._pool_parent, log.stack[-1]
            start = time.perf_counter()
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._pool_parent = outer
                log.count("solver.worker_s",
                          max(1, bound.arguments["workers"]) * (time.perf_counter() - start))

        return self.wrap("solver.map_paths", entered)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point of the imported spdelab package."""
        import numpy as np
        from spdelab import cli, noise, probes, solver, transforms

        def csv_bytes(log, args, kwargs, result):
            log.count("cli.write_csv.bytes", Path(args[0]).stat().st_size)

        def path_steps(log, args, kwargs, result):
            model, config, indices = args[:3]
            log.count("solver.path_steps", len(indices) * config.steps)

        def synthesize_flop(log, args, kwargs, result):
            rows, points = result.shape
            log.count("transforms.flop", 2.0 * rows * np.shape(args[0])[-1] * points)

        def analyze_flop(log, args, kwargs, result):
            rows, modes = result.shape
            log.count("transforms.flop", 2.0 * rows * modes * np.shape(args[0])[-1])

        targets = [
            (cli, "parse_config_file", "config.parse", None),
            (cli, "build_model", "config.build_model", None),
            (cli, "build_solver", "config.build_solver", None),
            (cli, "write_csv", "cli.write_csv", csv_bytes),
            (cli, "verify_lemmas", "cli.verify_lemmas", None),
            (cli, "validate_assumptions", "models.assumptions", None),
            (cli, "smoothing_constant", "spectrum.smoothing_constant", None),
            (cli, "stochastic_convolution_energy", "spectrum.convolution", None),
            (cli, "deterministic_convolution_norm", "spectrum.convolution", None),
            (noise.NoiseStream, "__init__", "noise.stream_init", None),
            (noise.NoiseStream, "step_normals", "noise.step_normals", None),
            (solver, "_simulate_block", "solver.block", path_steps),
            (solver, "_drift_rows", "models.drift", None),
            (solver, "_diffusion_rows", "models.diffusion", None),
            (transforms, "synthesize", "transforms.synthesize", synthesize_flop),
            (transforms, "analyze", "transforms.analyze", analyze_flop),
            (probes, "temporal_probe", "probes.probe", None),
            (probes, "spatial_sweep", "probes.probe", None),
            (probes, "example_series_report", "probes.probe", None),
            (probes, "estimate_lp_norm", "probes.estimate_lp_norm", None),
        ]
        for owner, attr, name, after in targets:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after))
        map_paths = self._wrap_map_paths(solver.map_paths)
        self._patch(solver, "map_paths", map_paths)
        self._patch(probes, "map_paths", map_paths)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """All closed spans as arrays ordered by span id, plus names and counters."""
        import numpy as np

        with self._lock:
            logs = list(self._logs)
        columns = {
            key: np.concatenate([np.frombuffer(getattr(log, key), dtype=dtype) for log in logs])
            for key, dtype in (("sid", np.int64), ("name", np.int32), ("parent", np.int64),
                               ("start", np.float64), ("end", np.float64))
        }
        order = np.argsort(columns.pop("sid"), kind="stable")
        out = {key: value[order] for key, value in columns.items()}
        counts = {key: 0.0 for key in COUNTERS}
        for log in logs:
            for key, value in log.counts.items():
                counts[key] += value
        out["names"] = list(self.names)
        out["counts"] = counts
        out["run_id"] = self.run_id
        return out

    def save(self, path: Path) -> None:
        import numpy as np

        data = self.spans()
        counts = data.pop("counts")
        np.savez(
            path,
            names=np.array(data.pop("names")),
            run_id=np.array(data.pop("run_id")),
            count_keys=np.array(list(counts)),
            count_values=np.array(list(counts.values())),
            **data,
        )


def load(path: Path) -> dict:
    """Spans written by `Tracer.save`, in the form `Tracer.spans` returns."""
    import numpy as np

    with np.load(path) as data:
        out = {key: data[key] for key in ("name", "parent", "start", "end")}
        out["names"] = data["names"].tolist()
        out["run_id"] = str(data["run_id"])
        out["counts"] = dict(zip(data["count_keys"].tolist(), data["count_values"].tolist()))
    return out


def self_times(parent, start, end) -> list[float]:
    """Self time of every span; span i has id i.

    At each instant the open spans without open children are the leaves, and
    the instant is shared equally among them. On one thread this is the span's
    duration minus its children's; across threads it splits wall time between
    concurrent work, so self times always sum to the time covered by any span.
    """
    import numpy as np

    n = len(start)
    if n == 0:
        return []
    times = np.concatenate([start, end])
    kind = np.repeat([0, 1], n)  # at equal times, starts before ends
    ids = np.arange(n)
    tiebreak = np.concatenate([ids, -ids])  # parents open first and close last
    order = np.lexsort((tiebreak, kind, times)).tolist()
    times = times.tolist()
    parents = np.asarray(parent).tolist()
    own = [0.0] * n
    open_children = [0] * n
    is_open = [False] * n
    leaves: set[int] = set()
    previous = times[order[0]]
    for event in order:
        now = times[event]
        if leaves and now > previous:
            share = (now - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = now
        i = event % n
        p = parents[i]
        if event < n:
            is_open[i] = True
            leaves.add(i)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return own


def layer_metrics(runs: list[dict], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: `runs` are its commands' spans, `wall`
    the summed lifetimes of their processes."""
    import numpy as np

    metrics = {key: 0.0 for key in set(SELF_METRIC.values()) | set(CALL_METRIC.values())}
    busy = {"noise.step_normals": 0.0, "transforms": 0.0, "map_paths": 0.0, "blocks": 0.0}
    counts = {key: 0.0 for key in COUNTERS}
    for run in runs:
        names = np.array(run["names"])[run["name"]]
        own = np.array(self_times(run["parent"], run["start"], run["end"]))
        duration = run["end"] - run["start"]
        for name in set(names.tolist()):
            mask = names == name
            if name in SELF_METRIC:
                metrics[SELF_METRIC[name]] += float(own[mask].sum())
            if name in CALL_METRIC:
                metrics[CALL_METRIC[name]] += int(mask.sum())
        busy["noise.step_normals"] += float(duration[names == "noise.step_normals"].sum())
        busy["transforms"] += float(duration[np.char.startswith(names, "transforms.")].sum())
        map_spans = np.flatnonzero(names == "solver.map_paths")
        busy["map_paths"] += float(duration[map_spans].sum())
        in_pool = np.isin(run["parent"], map_spans)
        busy["blocks"] += float(duration[in_pool].sum())
        for key, value in run["counts"].items():
            counts[key] += value
    metrics["other.self_s"] = wall - sum(metrics[key] for key in set(SELF_METRIC.values()))
    metrics["trace.wall_s"] = wall
    calls = metrics["noise.step_normals.calls"]
    metrics["noise.us_per_call"] = 1e6 * busy["noise.step_normals"] / calls if calls else 0.0
    metrics["solver.path_steps"] = counts["solver.path_steps"]
    metrics["solver.path_steps_per_s"] = (
        counts["solver.path_steps"] / busy["map_paths"] if busy["map_paths"] else 0.0
    )
    metrics["solver.parallel_efficiency"] = (
        busy["blocks"] / counts["solver.worker_s"] if counts["solver.worker_s"] else 0.0
    )
    metrics["cli.write_csv.bytes"] = counts["cli.write_csv.bytes"]
    metrics["transforms.gflop"] = counts["transforms.flop"] / 1e9
    metrics["transforms.gflops"] = (
        metrics["transforms.gflop"] / busy["transforms"] if busy["transforms"] else 0.0
    )
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path, help="output .npz file")
    parser.add_argument("--run-id", required=True, help="identifier stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments of spdelab.cli")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    start = time.perf_counter()
    from spdelab import cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    tracer.save(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
