"""The benchmark's workloads: pinned spdelab configs, the CLI commands that run
them, and the closed-form check each command's output must pass.

Sizes are chosen so that one pass over a workload's commands takes a few
seconds on a 2-core machine, which leaves room for several passes, and so
their median, inside one benchmark run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    """One `spdelab run` invocation: its config text and the check of its output."""

    name: str
    config: str
    check: Callable[[Path, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


def _render(pairs: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


def _numbers(values) -> str:
    return ", ".join(repr(v) for v in values)


def additive_command(N=64, T=0.05, steps=100, paths=2048) -> Command:
    snapshots = (0.0, T / 2, T)
    config = _render({
        "kind": "simulate",
        "model.N": N,
        "model.covariance": "example5",
        "model.drift": "zero",
        "model.diffusion": "additive",
        "solver.method": "euler",
        "solver.T": T,
        "solver.steps": steps,
        "solver.paths": paths,
        "solver.snapshots": _numbers(snapshots),
        "solver.workers": 1,
    })
    check = partial(checks.check_additive, N=N, T=T, steps=steps, paths=paths,
                    snapshots=snapshots)
    return Command("simulate", config, check)


def nemytskii_model(N: int, grid: int) -> dict:
    return {
        "model.N": N,
        "model.drift": "nemytskii",
        "model.drift.function": "tanh",
        "model.drift.grid": grid,
        "model.diffusion": "nemytskii",
        "model.diffusion.function": "cos",
        "model.diffusion.grid": grid,
    }


def nemytskii_command(N=64, grid=256, T=0.05, steps=100, paths=2048) -> Command:
    snapshots = (0.0, T / 2, T)
    config = _render({
        "kind": "simulate",
        **nemytskii_model(N, grid),
        "solver.method": "euler",
        "solver.T": T,
        "solver.steps": steps,
        "solver.paths": paths,
        "solver.snapshots": _numbers(snapshots),
        "solver.workers": 1,
    })
    check = partial(checks.check_nemytskii, N=N, paths=paths, snapshots=snapshots)
    return Command("simulate", config, check)


# Lags in steps: 10 values spanning two decades, as the Hölder fit requires.
TEMPORAL_LAG_STEPS = (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)


def temporal_command(N=64, h=5e-4, anchor_step=20, paths=256, s_values=(0.0, 0.5),
                     lag_steps=TEMPORAL_LAG_STEPS, workers=2) -> Command:
    steps = anchor_step + max(lag_steps)
    config = _render({
        "kind": "probe-temporal",
        "model.N": N,
        "model.covariance": "example5",
        "model.drift": "zero",
        "model.diffusion": "additive",
        "solver.method": "euler",
        "solver.T": steps * h,
        "solver.steps": steps,
        "solver.paths": paths,
        "solver.workers": workers,
        "probe.s": _numbers(s_values),
        "probe.anchor": anchor_step * h,
        "probe.lags": _numbers(m * h for m in lag_steps),
    })
    check = partial(checks.check_temporal, N=N, h=h, anchor_step=anchor_step,
                    lag_steps=lag_steps, s_values=s_values)
    return Command("probe-temporal", config, check)


def spatial_command(sweep_N=(64, 128, 256, 512), T=0.05, steps=10, paths=256,
                    workers=2) -> Command:
    config = _render({
        "kind": "probe-spatial",
        "model.N": max(sweep_N),
        "model.covariance": "example5",
        "model.drift": "zero",
        "model.diffusion": "additive",
        "solver.method": "exact-gaussian",
        "solver.T": T,
        "solver.steps": steps,
        "solver.paths": paths,
        "solver.workers": workers,
        "probe.sweep_N": _numbers(sweep_N),
    })
    check = partial(checks.check_spatial, T=T, paths=paths, sweep_N=sweep_N)
    return Command("probe-spatial", config, check)


def lemmas_command(bound_draws=500, exactness_draws=50, paths=200) -> Command:
    config = _render({
        "kind": "verify-lemmas",
        "lemmas.bound_draws": bound_draws,
        "lemmas.exactness_draws": exactness_draws,
        "lemmas.paths": paths,
    })
    return Command("verify-lemmas", config, checks.check_all_pass_csv("lemmas.csv"))


def series_command(r=0.25, t=0.1, N_values=(1000, 10000, 100000)) -> Command:
    config = _render({
        "kind": "example-section5",
        "series.r": r,
        "series.t": t,
        "series.N": _numbers(N_values),
    })
    check = partial(checks.check_series, r=r, t=t, N_values=N_values)
    return Command("example-section5", config, check)


def assumptions_command(N=64, grid=256) -> Command:
    config = _render({
        "kind": "verify-assumptions",
        **nemytskii_model(N, grid),
        "model.r": 0.0,
    })
    return Command("verify-assumptions", config, checks.check_all_pass_csv("assumptions.csv"))


# Two workloads, each a group of commands that stresses its own layers, so an
# optimisation of one layer shows on one workload and is absent or diluted on
# the other. Two long runs rather than more short ones: on a 2-vCPU Xeon VM,
# machine speed drifts by +-25% over about a minute, and a run must span most
# of that cycle for its median to be steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "additive-probes",
            "additive ensemble, then temporal and spatial probes on 2 workers: noise, the "
            "per-path loop, exact stepper, probe reductions and thread pool; no transforms",
            (additive_command(), temporal_command(), spatial_command()),
        ),
        Workload(
            "nemytskii-analytic",
            "Nemytskii ensemble, lemma suite, section-5 series, assumption probes: sine "
            "transforms, pointwise functions, quadrature, spectrum; noise diluted",
            (nemytskii_command(), lemmas_command(), series_command(), assumptions_command()),
        ),
    )
}
