"""Time integration of the mild solution on the truncated eigenbasis.

Two steppers read the same per-(path, step) standard normals, the synchronous
coupling: the one-step frozen-integrand exponential scheme
x_{j+1} = E(h)[x_j - h F(x_j) + G(x_j) dW_j], and, for linear models driven by
state-independent diagonal noise, the exact Gaussian transition of each mode.
That is not one Brownian path driving both: on resolved modes the per-step
mean-square gap is 3/4 of the same-path error's, the same rate, another constant.
``SolverConfig.method`` names the stepper, so a configuration fixes it for
every run and no entry point takes it as an argument; ``map_paths`` rejects a
model the exact stepper cannot sample before its first block, at any T.
Every run goes through one kernel, ``_simulate_block``, which advances a block
of paths together and returns their snapshots as an array (block,
n_snapshots, modes).  ``map_paths`` is the one public way to run it: it splits
the ensemble into such blocks and reduces each one, and with the identity as
its reduction it returns the snapshots (paths, n_snapshots, modes) of them
all.  ``_euler_rows`` is the scheme's update of a (paths, modes) array of
states, and ``_drift_rows`` and ``_diffusion_rows`` are its only evaluation of
F and G dW.  Paths are independent given their streams, and the blocks run one
after another on the calling thread.  For models without a Nemytskii term a
path's result is a pure function of (model, config, path index).  A Nemytskii
term goes through the dense sine transforms, whose matrix products BLAS rounds
differently for different row counts, so a row's last bits (about 1e-15
relative) depend on the block it is computed in.  ``map_paths`` fixes the
blocks from the path count and ``BLOCK_SIZE`` alone.  The synthesis products
also round by BLAS's thread count, which OpenBLAS takes from the machine's
cores unless ``OPENBLAS_NUM_THREADS`` is set before numpy loads, so such a run
repeats bit for bit only on one machine and thread count.

Each call of ``_simulate_block`` creates one dict of scratch arrays for its
block: the grid values of states and noise, the pointwise images, and the
drift and diffusion rows.  ``_scratch`` hands them out by name, allocated on
the first step and reused by every later one, and the state, noise and
finiteness rows are updated in place.  What ``_drift_rows`` and
``_diffusion_rows`` return is an array of that dict, valid until their next
call with it.  Each path's stream writes its normals straight into that
path's row of the block's noise buffer, through row views made once per
block, so a step allocates no block-sized array and no per-path draw array.
The dict is local to the call: it is never shared between blocks.  Each
step synthesizes the states at most once per grid size, so a Nemytskii drift
and diffusion on one grid evaluate the same grid values.  In-place updates
keep the operation order of the textbook formulas, so results are bitwise
those of the allocating form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import transforms
from .models import SCALAR_FUNCTIONS, Diagonal, ModelError, ModelSpec, Nemytskii
from .noise import NoiseStream

EXPONENTIAL_EULER = "exponential-euler"
EXACT_GAUSSIAN = "exact-gaussian"
_METHODS = (EXPONENTIAL_EULER, EXACT_GAUSSIAN)
BLOCK_SIZE = 128  # paths per block of `map_paths`


@dataclass(frozen=True)
class SolverConfig:
    """Uniform time grid, ensemble size, seed, snapshot times and stepper.

    Snapshot times must be grid points j * (T / steps) on strictly increasing
    steps, whose indices ``snapshot_steps`` holds; no interpolation is ever
    performed between steps.  ``method`` names the stepper every run of this
    configuration uses: ``EXPONENTIAL_EULER`` or ``EXACT_GAUSSIAN``.  Every
    rejection is a `ModelError` naming the field at fault.
    """

    T: float
    steps: int
    paths: int
    master_seed: int = 0
    snapshot_times: tuple[float, ...] = field(default=None)  # defaults to (0, T)
    method: str = EXPONENTIAL_EULER
    snapshot_steps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ModelError(f"unknown method {self.method!r}, expected one of {_METHODS}",
                             "method")
        if not math.isfinite(self.T):
            raise ModelError(f"final time T must be finite, got {self.T}", "T")
        if self.T < 0.0:
            raise ModelError(f"final time must be >= 0, got {self.T}", "T")
        if self.steps < 1:
            raise ModelError(f"need at least one step, got {self.steps}", "steps")
        if self.paths < 1:
            raise ModelError(f"need at least one path, got {self.paths}", "paths")
        if self.master_seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.master_seed}", "master_seed")
        times = self.snapshot_times
        if times is None:
            times = (0.0, self.T) if self.T > 0.0 else (0.0,)
        times = tuple(float(t) for t in times)
        try:
            steps = tuple(self.step_of(t) for t in times)
        except ValueError as exc:
            raise ModelError(str(exc), "snapshot_times") from None
        for t1, t2, j1, j2 in zip(times, times[1:], steps, steps[1:]):
            if j2 <= j1:  # the kernel fills one snapshot row per grid step, in time order
                raise ModelError(f"snapshot times {t1} and {t2} fall on grid steps {j1} and {j2}, "
                                 f"which must increase (h = {self.h})", "snapshot_times")
        object.__setattr__(self, "snapshot_times", times)
        object.__setattr__(self, "snapshot_steps", steps)

    @property
    def h(self) -> float:
        return self.T / self.steps

    def step_of(self, t: float) -> int:
        """Grid index of time t; rejects times outside [0, T] and off-grid times."""
        if self.T == 0.0:
            if t != 0.0:
                raise ValueError(f"time {t} outside the degenerate grid {{0}}")
            return 0
        tol = 1e-9 * max(self.T, 1.0)
        if not -tol <= t <= self.T + tol:
            raise ValueError(f"time {t} lies outside [0, T] = [0, {self.T}]")
        j = int(round(t / self.h))
        if j < 0 or j > self.steps or abs(j * self.h - t) > tol:
            raise ValueError(f"time {t} is not a grid point (h = {self.h})")
        return j


def _scratch(work: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float array `work[name]`, allocated on first use and again when `shape` changes."""
    arr = work.get(name)
    if arr is None or arr.shape != shape:
        arr = work[name] = np.empty(shape)
    return arr


def _pointwise(spec: Nemytskii, state_grid: Callable[[int], np.ndarray],
               out: np.ndarray) -> np.ndarray:
    """The spec's function of the states' grid values, written into `out` when
    it is a numpy ufunc; other functions allocate."""
    fn, values = SCALAR_FUNCTIONS[spec.function].fn, state_grid(spec.grid_size)
    return fn(values, out=out) if isinstance(fn, np.ufunc) else fn(values)


def _drift_rows(model: ModelSpec, states: np.ndarray, work: dict[str, np.ndarray],
                state_grid: Callable[[int], np.ndarray]) -> np.ndarray:
    """Diagonal or Nemytskii drift F evaluated row-wise on a (paths, modes) state array.

    A Nemytskii drift on an M-point grid reads the states' grid values from
    `state_grid(M)`.  The result is an array of `work`.
    """
    drift = model.drift
    if isinstance(drift, Diagonal):
        return np.multiply(states, drift.multipliers, out=_scratch(work, "drift", states.shape))
    grid_shape = (len(states), drift.grid_size - 1)
    values = _pointwise(drift, state_grid, _scratch(work, "drift values", grid_shape))
    return transforms.analyze(values, model.dimension, out=_scratch(work, "drift", states.shape))


def _diffusion_rows(model: ModelSpec, states: np.ndarray, increments: np.ndarray,
                    work: dict[str, np.ndarray],
                    state_grid: Callable[[int], np.ndarray]) -> np.ndarray:
    """G(state) dW evaluated row-wise on matching (paths, modes) arrays.

    A Nemytskii diffusion on an M-point grid reads the states' grid values
    from `state_grid(M)`.  The result is an array of `work`.
    """
    diffusion = model.diffusion
    if isinstance(diffusion, Diagonal):
        out = _scratch(work, "diffusion", increments.shape)
        return np.multiply(increments, diffusion.multipliers, out=out)
    grid_shape = (len(states), diffusion.grid_size - 1)
    values = _pointwise(diffusion, state_grid, _scratch(work, "diffusion values", grid_shape))
    noise_values = transforms.synthesize(increments, diffusion.grid_size,
                                         out=_scratch(work, "noise grid", grid_shape))
    np.multiply(values, noise_values, out=noise_values)
    return transforms.analyze(noise_values, model.dimension,
                              out=_scratch(work, "diffusion", increments.shape))


def _euler_rows(
    model: ModelSpec,
    decay: np.ndarray,
    h: float,
    states: np.ndarray,
    increments: np.ndarray,
    work: dict[str, np.ndarray],
) -> None:
    """Advance (paths, modes) `states` in place to decay * ((x - h F(x)) + G(x) dW)."""

    @functools.cache  # the states are synthesized at most once per grid size
    def state_grid(m: int) -> np.ndarray:
        out = _scratch(work, f"state grid {m}", (len(states), m - 1))
        return transforms.synthesize(states, m, out=out)

    # both terms are evaluated before `states` changes
    g_dw = _diffusion_rows(model, states, increments, work, state_grid)
    if model.drift is not None:  # no drift is skipped: x - h * 0 is x, bitwise
        h_drift = _drift_rows(model, states, work, state_grid)
        h_drift *= h
        states -= h_drift
    states += g_dw
    states *= decay


def _require_linear_additive(model: ModelSpec) -> None:
    """Reject a model the exact stepper cannot sample, one with a drift or a
    non-diagonal diffusion, with a `ModelError` against the method."""
    if model.drift is not None:
        raise ModelError("exact transition sampling requires zero drift", "method")
    if not isinstance(model.diffusion, Diagonal):
        raise ModelError("exact transition sampling requires additive diagonal diffusion",
                         "method")


def _simulate_block(
    model: ModelSpec,
    config: SolverConfig,
    path_indices: Sequence[int],
) -> np.ndarray:
    """Snapshots for a block of paths; returns array (block, n_snapshots, modes).

    With ``config.method == EXACT_GAUSSIAN`` the linear additive model is
    sampled exactly through its Gaussian mode transitions: mode k evolves by
    x_k(t + h) = e^{-lam_k h} x_k(t) + xi with
    xi ~ N(0, g_k^2 q_k (1 - e^{-2 lam_k h}) / (2 lam_k)), whose standard
    deviation is ``transition_sd``.  Its normals are the Euler scheme's (the
    synchronous coupling of the module docstring).  ``map_paths``, the only
    caller, has already refused a model the exact stepper cannot sample, so the
    block reads the diagonal diffusion's multipliers unchecked.
    """
    exact = config.method == EXACT_GAUSSIAN
    n = model.dimension
    block = len(path_indices)
    out = np.empty((block, len(config.snapshot_steps), n))
    state = np.tile(model.initial, (block, 1))

    record = {j: i for i, j in enumerate(config.snapshot_steps)}
    if 0 in record:
        out[:, record[0], :] = state
    if config.T == 0.0:
        return out

    h = config.h
    streams = [NoiseStream(config.master_seed, i) for i in path_indices]
    z = np.empty((block, n))
    z_rows = list(z)  # row views, filled in place by each path's stream
    finite = np.empty((block, n), dtype=bool)
    work: dict[str, np.ndarray] = {}  # this call's own: never shared between blocks
    lam = model.eigenvalues
    decay = np.exp(-lam * h)

    if exact:
        g = model.diffusion.multipliers
        transition_sd = np.sqrt(
            g**2 * model.covariance * (-np.expm1(-2.0 * lam * h)) / (2.0 * lam)
        )

        def advance(rows: np.ndarray, normals: np.ndarray) -> None:
            rows *= decay
            normals *= transition_sd
            rows += normals

    else:
        noise_sd = np.sqrt(model.covariance * h)

        def advance(rows: np.ndarray, normals: np.ndarray) -> None:
            normals *= noise_sd
            _euler_rows(model, decay, h, rows, normals, work)

    # an overflow or invalid operation leaves a non-finite state, which the check reports
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(config.steps):
            for stream, row in zip(streams, z_rows):
                stream.step_normals(j, n, row)
            advance(state, z)
            if not np.isfinite(state, out=finite).all():
                bad = path_indices[np.flatnonzero(~finite.all(axis=1))[0]]
                raise ValueError(
                    f"non-finite state on path {bad} at step {j + 1} of {config.steps} "
                    f"(t = {(j + 1) * h:g})"
                )
            if j + 1 in record:
                out[:, record[j + 1], :] = state
    return out


def map_paths(
    model: ModelSpec,
    config: SolverConfig,
    reduce_block: Callable[[np.ndarray], np.ndarray],
    workers: int = 1,
) -> np.ndarray:
    """Apply a per-path reduction over the whole ensemble, in path order.

    ``reduce_block`` maps a snapshot array (block, n_snapshots, modes) to an
    array whose first axis is the block.  Each block is a ``range`` of
    ``BLOCK_SIZE`` path indices, the last one possibly shorter; the blocks
    run in path order on the calling thread, and their results are
    concatenated.  With ``config.method == EXACT_GAUSSIAN`` a model the exact
    stepper cannot sample is a `ModelError` against the method before the first
    block, at any T.  ``workers`` is ignored: ``bench/tracing.py`` binds the
    parameter by name, and it goes when the tracer reads library-owned timers
    (ROADMAP item 1).
    """
    if config.method == EXACT_GAUSSIAN:
        _require_linear_additive(model)
    blocks = [range(start, min(start + BLOCK_SIZE, config.paths))
              for start in range(0, config.paths, BLOCK_SIZE)]
    return np.concatenate(
        [np.asarray(reduce_block(_simulate_block(model, config, b))) for b in blocks], axis=0
    )
