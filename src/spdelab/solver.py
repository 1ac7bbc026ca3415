"""Time integration of the mild solution on the truncated eigenbasis.

Two steppers share the same per-(path, step) noise draws and so are pathwise
coupled: the one-step frozen-integrand exponential scheme
x_{j+1} = E(h)[x_j - h F(x_j) + G(x_j) dW_j], and, for linear models driven by
state-independent diagonal noise, the exact Gaussian transition of each mode.
Paths are independent given their streams and may be executed concurrently.
For models without a Nemytskii term a path's result is a pure function of
(model, config, path index).  A Nemytskii term goes through the dense sine
transforms, whose matrix products BLAS rounds differently for different row
counts, so a row's last bits (about 1e-15 relative) depend on the block it is
computed in.  ``map_paths`` fixes the blocks from the path count and
``block_size`` alone, so results never depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .models import (
    AdditiveDiagonalDiffusion,
    ModelSpec,
    ZeroDrift,
    _diffusion_rows,
    _drift_rows,
)
from .noise import NoiseIncrement, NoiseStream
from .spectrum import SpectralCoeffs

EXPONENTIAL_EULER = "exponential-euler"
EXACT_GAUSSIAN = "exact-gaussian"
_METHODS = (EXPONENTIAL_EULER, EXACT_GAUSSIAN)


@dataclass(frozen=True)
class SolverConfig:
    """Uniform time grid, ensemble size, seed, and snapshot times.

    Snapshot times must be grid points j * (T / steps); no interpolation is
    ever performed between steps.
    """

    T: float
    steps: int
    paths: int
    master_seed: int = 0
    snapshot_times: tuple[float, ...] = field(default=None)  # defaults to (0, T)

    def __post_init__(self):
        if self.T < 0.0:
            raise ValueError(f"final time must be >= 0, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if self.paths < 1:
            raise ValueError(f"need at least one path, got {self.paths}")
        times = self.snapshot_times
        if times is None:
            times = (0.0, self.T) if self.T > 0.0 else (0.0,)
        times = tuple(float(t) for t in times)
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        object.__setattr__(self, "snapshot_times", times)
        self.snapshot_steps()  # validate alignment eagerly

    @property
    def h(self) -> float:
        return self.T / self.steps

    def step_of(self, t: float) -> int:
        """Grid index of time t; rejects off-grid times."""
        if self.T == 0.0:
            if t != 0.0:
                raise ValueError(f"time {t} outside the degenerate grid {{0}}")
            return 0
        j = int(round(t / self.h))
        if j < 0 or j > self.steps or abs(j * self.h - t) > 1e-9 * max(self.T, 1.0):
            raise ValueError(f"time {t} is not a grid point (h = {self.h})")
        return j

    def snapshot_steps(self) -> list[int]:
        return [self.step_of(t) for t in self.snapshot_times]


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots (time, state) of one path."""

    times: tuple[float, ...]
    states: tuple[SpectralCoeffs, ...]

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def snapshots(self) -> tuple[tuple[float, SpectralCoeffs], ...]:
        return tuple(zip(self.times, self.states))

    def state_at(self, t: float) -> SpectralCoeffs:
        for time, state in zip(self.times, self.states):
            if time == t:
                return state
        raise KeyError(f"no snapshot at time {t}")


def exponential_euler_step(
    model: ModelSpec, x: SpectralCoeffs, dW: NoiseIncrement, h: float
) -> SpectralCoeffs:
    """One step of the frozen-integrand exponential scheme, E(h)[x - h F(x) + G(x) dW]."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if x.dimension != model.dimension or dW.dimension != model.dimension:
        raise ValueError("dimension mismatch in exponential Euler step")
    decay = np.exp(-model.operator.eigenvalues * h)
    return SpectralCoeffs(_euler_rows(model, decay, h, x.values[None, :], dW.values[None, :])[0])


def _euler_rows(
    model: ModelSpec, decay: np.ndarray, h: float, states: np.ndarray, increments: np.ndarray
) -> np.ndarray:
    """The exponential Euler update, row-wise on matching (paths, modes) arrays."""
    return decay * (
        states - h * _drift_rows(model, states) + _diffusion_rows(model, states, increments)
    )


def _require_linear_additive(model: ModelSpec) -> np.ndarray:
    if not isinstance(model.drift, ZeroDrift):
        raise ValueError("exact transition sampling requires zero drift")
    if not isinstance(model.diffusion, AdditiveDiagonalDiffusion):
        raise ValueError("exact transition sampling requires additive diagonal diffusion")
    return model.diffusion.multipliers


def _simulate_block(
    model: ModelSpec,
    config: SolverConfig,
    path_indices: Sequence[int],
    method: str = EXPONENTIAL_EULER,
) -> np.ndarray:
    """Snapshots for a block of paths; returns array (block, n_snapshots, modes)."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {_METHODS}")
    n = model.dimension
    block = len(path_indices)
    snap_steps = config.snapshot_steps()
    out = np.empty((block, len(snap_steps), n))
    state = np.tile(model.initial.values, (block, 1))

    record = {j: i for i, j in enumerate(snap_steps)}
    if 0 in record:
        out[:, record[0], :] = state
    if config.T == 0.0:
        return out

    h = config.h
    streams = [NoiseStream(config.master_seed, i) for i in path_indices]
    z = np.empty((block, n))
    lam = model.operator.eigenvalues
    decay = np.exp(-lam * h)

    if method == EXACT_GAUSSIAN:
        g = _require_linear_additive(model)
        transition_sd = np.sqrt(
            g**2 * model.covariance.variances * (-np.expm1(-2.0 * lam * h)) / (2.0 * lam)
        )

        def advance(rows: np.ndarray, normals: np.ndarray) -> np.ndarray:
            return decay * rows + transition_sd * normals

    else:
        noise_sd = np.sqrt(model.covariance.variances * h)

        def advance(rows: np.ndarray, normals: np.ndarray) -> np.ndarray:
            return _euler_rows(model, decay, h, rows, noise_sd * normals)

    # an overflow or invalid operation leaves a non-finite state, which the check reports
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(config.steps):
            for b, stream in enumerate(streams):
                z[b] = stream.step_normals(j, n)
            state = advance(state, z)
            if not np.isfinite(state).all():
                bad = path_indices[np.flatnonzero(~np.isfinite(state).all(axis=1))[0]]
                raise ValueError(
                    f"non-finite state on path {bad} at step {j + 1} of {config.steps} "
                    f"(t = {(j + 1) * h:g})"
                )
            if j + 1 in record:
                out[:, record[j + 1], :] = state
    return out


def _trajectory_from_rows(config: SolverConfig, rows: np.ndarray) -> Trajectory:
    return Trajectory(
        times=tuple(config.snapshot_times),
        states=tuple(SpectralCoeffs(rows[i]) for i in range(rows.shape[0])),
    )


def simulate_path(model: ModelSpec, config: SolverConfig, path_index: int) -> Trajectory:
    """Integrate one path with the exponential Euler scheme; pure in its arguments."""
    rows = _simulate_block(model, config, [path_index], EXPONENTIAL_EULER)
    return _trajectory_from_rows(config, rows[0])


def exact_ou_path(model: ModelSpec, config: SolverConfig, path_index: int) -> Trajectory:
    """Sample the linear additive model exactly through its Gaussian mode transitions.

    Mode k evolves by x_k(t + h) = e^{-lam_k h} x_k(t) + xi with
    xi ~ N(0, g_k^2 q_k (1 - e^{-2 lam_k h}) / (2 lam_k)); the standard normal
    draws are shared with the exponential Euler scheme, which couples the two
    pathwise and makes this the oracle for integrator error measurements.
    """
    _require_linear_additive(model)
    rows = _simulate_block(model, config, [path_index], EXACT_GAUSSIAN)
    return _trajectory_from_rows(config, rows[0])


def map_paths(
    model: ModelSpec,
    config: SolverConfig,
    reduce_block: Callable[[np.ndarray], np.ndarray],
    method: str = EXPONENTIAL_EULER,
    workers: int = 1,
    block_size: int = 128,
) -> np.ndarray:
    """Apply a per-path reduction over the whole ensemble, in path order.

    ``reduce_block`` maps a snapshot array (block, n_snapshots, modes) to an
    array whose first axis is the block; results are concatenated in path-index
    order.  The block partition is fixed by the configuration alone, so the
    result is independent of ``workers``.
    """
    blocks = [
        list(range(start, min(start + block_size, config.paths)))
        for start in range(0, config.paths, block_size)
    ]

    def run_one(indices: list[int]) -> np.ndarray:
        return np.asarray(reduce_block(_simulate_block(model, config, indices, method)))

    if workers <= 1:
        parts = [run_one(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_one, blocks))
    return np.concatenate(parts, axis=0)


def ensemble_snapshots(
    model: ModelSpec,
    config: SolverConfig,
    method: str = EXPONENTIAL_EULER,
    workers: int = 1,
) -> np.ndarray:
    """Snapshot array (paths, n_snapshots, modes) for the full ensemble."""
    return map_paths(model, config, lambda rows: rows, method=method, workers=workers)
