"""Monte-Carlo regularity probes: moment norms, Hölder-exponent fits, sweeps.

All estimators consume per-path statistics produced by the solver in path
order, so aggregation is independent of execution order.  The temporal probes
use common-path coupling: both times of every increment are read from the same
trajectory.  A probe checks its arguments before any path runs, and rejects a
bad one with a `ModelError` naming the argument.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import Diagonal, ModelError, ModelSpec, Nemytskii
from .solver import SolverConfig, map_paths
from .spectrum import dirichlet_eigenvalues, hdot_norm


@dataclass(frozen=True)
class HolderEstimate:
    """Fitted log-log slope of a modulus against the predicted Hölder exponent."""

    slope: float
    intercept: float
    slope_stderr: float
    predicted: float


def predicted_temporal_exponent(r: float, s: float) -> float:
    """Theoretical Hölder exponent min(1/2, (1 + r - s)/2) of t -> X(t) in the s-norm."""
    return min(0.5, 0.5 * (1.0 + r - s))


def estimate_lp_norm(samples: Sequence[float], p: float) -> tuple[float, float]:
    """Estimate (E[|samples|^p])^{1/p} with a delta-method standard error."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError(f"need at least two samples, got {arr.size}")
    if not math.isfinite(p):
        raise ValueError(f"moment order p must be finite, got {p}")
    if p < 2.0:
        raise ValueError(f"moment order must be >= 2, got {p}")
    powered = np.abs(arr) ** p
    moment = float(np.mean(powered))
    if moment == 0.0:
        return 0.0, 0.0
    moment_se = float(np.std(powered, ddof=1) / math.sqrt(arr.size))
    estimate = moment ** (1.0 / p)
    return estimate, moment_se * estimate / (p * moment)


def _top_weight(exponent: float, n_modes: int) -> float:
    """lam_N^exponent at N = n_modes, inf if it overflows.

    Every lam_k exceeds 1, so when any weight lam_k^exponent of the first N
    modes overflows, this one does.
    """
    with np.errstate(over="ignore"):  # an overflow gives inf, which the callers reject
        return float(dirichlet_eigenvalues(n_modes)[-1] ** exponent)


def _check_increment_arguments(s_values: Sequence[float], lags: Sequence[float] | None,
                               n_modes: int) -> None:
    """A `ModelError` against `s_values` if it is empty or holds an s that is not
    finite or overflows lam_N^s on `n_modes` modes, or against `lags` if it is
    given and empty."""
    if len(s_values) == 0:
        raise ModelError("need at least one smoothness value", "s_values")
    for s in s_values:
        if not math.isfinite(s):
            raise ModelError(f"smoothness s must be finite, got {s}", "s_values")
        if not math.isfinite(_top_weight(s, n_modes)):
            raise ModelError(f"lam_N^s overflows at N = {n_modes} for s = {s:g}", "s_values")
    if lags is not None and len(lags) == 0:
        raise ModelError("need at least one lag", "lags")


def _increment_config(config: SolverConfig, anchor: float, lags: Sequence[float]) -> SolverConfig:
    """`config` snapshotting the anchor, then each anchor + lag in the given order;
    a time SolverConfig rejects is a `ModelError` against `anchor` or `lags`."""
    try:
        config.step_of(anchor)
    except ValueError as exc:
        raise ModelError(str(exc), "anchor") from None
    try:
        return dataclasses.replace(config, snapshot_times=(anchor, *(anchor + lag for lag in lags)))
    except ModelError as exc:
        raise ModelError(str(exc), "lags") from None


def increment_samples(
    model: ModelSpec,
    config: SolverConfig,
    s_values: Sequence[float],
    anchor: float,
    lags: Sequence[float],
) -> np.ndarray:
    """Samples of ||X(anchor + lag) - X(anchor)||_s for every s in `s_values` and every lag.

    Before any path runs, `s_values` must be non-empty, finite and small
    enough that lam_N^s is finite at the model's N, and `lags` non-empty.
    The run snapshots the anchor and then each anchor + lag in the given
    order, so every time is a grid point in [0, T] and each lag falls on a
    later step than the one before.  Otherwise a `ModelError` names
    `s_values`, `anchor` or `lags`.
    Both times of an increment are read from the same path, and every (s, lag)
    column from the same ensemble: one ``map_paths`` run serves them all.
    Returns an array (len(s_values), len(lags), paths).
    """
    _check_increment_arguments(s_values, lags, model.dimension)
    run_config = _increment_config(config, anchor, lags)

    def reduce_block(rows: np.ndarray) -> np.ndarray:
        diffs = rows[:, 1:, :] - rows[:, :1, :]
        return np.stack([hdot_norm(s, diffs) for s in s_values], axis=1)

    table = map_paths(model, run_config, reduce_block)
    return np.moveaxis(table, 0, -1)


def _fit_lags(lags: Sequence[float]) -> np.ndarray:
    """`lags` as an array if a Hölder fit can use them: at least 8, strictly
    increasing and spanning two decades; otherwise a `ModelError` against
    `lags`."""
    lags = np.array(lags, dtype=float)
    if lags.size < 8:
        raise ModelError(f"need at least 8 lags, got {lags.size}", "lags")
    if np.any(np.diff(lags) <= 0.0):
        raise ModelError("lags must be strictly increasing", "lags")
    if lags[-1] / lags[0] < 100.0 * (1.0 - 1e-12):
        raise ModelError("lags must span at least a factor of 100", "lags")
    return lags


def fit_holder_exponent(
    per_lag_estimates: Sequence[tuple[float, float]], predicted: float
) -> HolderEstimate:
    """Ordinary least squares of log(estimate) on log(lag).

    Requires lags that `_fit_lags` accepts and positive estimates.
    """
    lags = _fit_lags([lag for lag, _ in per_lag_estimates])
    estimates = np.array([est for _, est in per_lag_estimates], dtype=float)
    if np.any(estimates <= 0.0):
        raise ValueError("estimates must be positive for a log-log fit")
    x, y = np.log(lags), np.log(estimates)
    n = x.size
    x_centered = x - x.mean()
    sxx = float(np.sum(x_centered**2))
    slope = float(np.sum(x_centered * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    stderr = float(np.sqrt(np.sum(residuals**2) / (n - 2) / sxx))
    return HolderEstimate(slope, intercept, stderr, float(predicted))


def geometric_lag_multiples(count: int, max_multiple: int) -> list[int]:
    """Distinct integer step multiples, approximately geometric from 1 to max_multiple.

    Rejects a (count, max_multiple) pair whose rounded geometric multiples collide.
    """
    if count < 2 or max_multiple < count:
        raise ValueError("need count >= 2 and max_multiple >= count")
    mults = np.unique(np.round(max_multiple ** (np.arange(count) / (count - 1))).astype(int))
    if mults.size < count:
        raise ValueError(
            f"{count} geometric multiples up to {max_multiple} collide after rounding"
        )
    return mults.tolist()


def temporal_probe(
    model: ModelSpec,
    config: SolverConfig,
    s_values: Sequence[float],
    anchor: float | None = None,
    lags: Sequence[float] | None = None,
) -> list[tuple[HolderEstimate, list[tuple[float, float, float]]]]:
    """Fit the temporal Hölder exponent at each smoothness s from increments off an anchor.

    The increments X(anchor + lag) - X(anchor) of one ensemble serve every s,
    and their moments are taken at the model's p.  Returns, per s in
    `s_values`, the fit and the per-lag table (lag, estimate, stderr).  The
    anchor defaults to grid step steps // 2, and the lags to 10 near-geometric
    multiples of h up to min(max(steps // 4, 100), k) h, where k >= 100 steps
    follow the anchor.  Before any path runs, each argument is checked, with
    the rules of `increment_samples` before the fit's rule on the lags, and a
    `ModelError` names the one at fault: `s_values`, `anchor`, `lags` or, for
    fewer than two paths, `paths`.
    """
    _check_increment_arguments(s_values, lags, model.dimension)
    if anchor is None:
        anchor = config.steps // 2 * config.h
    if lags is None:
        steps_left = config.steps - _increment_config(config, anchor, ()).snapshot_steps[0]
        if steps_left < 100:
            raise ModelError(f"only {steps_left} steps follow the anchor; the fit needs lags "
                             "spanning two decades", "lags")
        mults = geometric_lag_multiples(10, min(max(config.steps // 4, 100), steps_left))
        lags = [m * config.h for m in mults]
    _increment_config(config, anchor, lags)  # the grid's verdict comes before the fit's
    _fit_lags(lags)
    if config.paths < 2:  # a moment estimate needs a standard error
        raise ModelError(f"need at least two paths, got {config.paths}", "paths")
    samples = increment_samples(model, config, s_values, anchor, lags)
    results = []
    for s, per_lag in zip(s_values, samples):
        table = [(float(lag), *estimate_lp_norm(arr, model.p)) for lag, arr in zip(lags, per_lag)]
        fit = fit_holder_exponent(
            [(lag, est) for lag, est, _ in table], predicted_temporal_exponent(model.r, s)
        )
        results.append((fit, table))
    return results


def _leading(spec, n_modes: int):
    """A `Diagonal` spec cut to its first n_modes multipliers; any other spec as is."""
    return Diagonal(spec.multipliers[:n_modes]) if isinstance(spec, Diagonal) else spec


def _increasing(n_values: Sequence[int]) -> list[int]:
    """`n_values` as a list if it is non-empty and strictly increases; otherwise
    a `ModelError` against `n_values`."""
    n_values = list(n_values)
    if not n_values:
        raise ModelError("need at least one truncation dimension", "n_values")
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])):
        raise ModelError("truncation dimensions must be strictly increasing", "n_values")
    return n_values


def truncate_model(model: ModelSpec, n_modes: int) -> ModelSpec:
    """Restrict a model to its first n_modes eigenmodes (consistent sub-spectrum)."""
    n = model.dimension
    if not 1 <= n_modes <= n:
        raise ModelError(f"cannot truncate a {n}-mode model to {n_modes} modes", "n_modes")
    if n_modes == n:
        return model
    return ModelSpec(
        dimension=n_modes,
        covariance=model.covariance[:n_modes],
        drift=_leading(model.drift, n_modes),
        diffusion=_leading(model.diffusion, n_modes),
        initial=model.initial[:n_modes],
        r=model.r,
        p=model.p,
    )


def spatial_sweep(
    model: ModelSpec,
    config: SolverConfig,
    s: float,
    n_values: Sequence[int],
) -> list[tuple[int, float]]:
    """Estimated sup over snapshots of the (s, p) moment norm at growing truncations.

    Truncation n is the model on its leading n modes.  The noise is addressed
    per (path, step, mode), so every truncation reads the same draws.  With no
    Nemytskii term (no or a diagonal drift, a diagonal diffusion) each mode
    evolves on its own, elementwise, so the first n modes of a run at the
    largest truncation are bitwise the run at n: one ensemble, reduced over
    every prefix, serves the whole sweep.  A Nemytskii term couples the modes
    through the sine transforms, so such a model runs once per truncation.
    Either way successive values differ by the added modes' contribution, and
    `s`, every truncation, lam_N^s at the largest N and then the path count
    (at least two) are checked before the first run.
    """
    if not math.isfinite(s):
        raise ModelError(f"smoothness s must be finite, got {s}", "s")
    n_values = _increasing(n_values)
    if n_values[0] < 1:
        raise ModelError(f"truncation dimensions must be >= 1, got {n_values[0]}", "n_values")
    decoupled = not any(isinstance(term, Nemytskii) for term in (model.drift, model.diffusion))
    runs = [n_values] if decoupled else [[n] for n in n_values]
    subs = [truncate_model(model, run[-1]) for run in runs]
    if not math.isfinite(_top_weight(s, n_values[-1])):
        raise ModelError(f"lam_N^s overflows at N = {n_values[-1]} for s = {s:g}", "s")
    if config.paths < 2:  # a moment estimate needs a standard error
        raise ModelError(f"need at least two paths, got {config.paths}", "paths")
    results = []
    for run, sub in zip(runs, subs):
        def reduce_block(rows: np.ndarray) -> np.ndarray:
            return np.stack([hdot_norm(s, rows[..., :n]) for n in run], axis=1)

        norms = map_paths(model=sub, config=config, reduce_block=reduce_block)
        for k, n in enumerate(run):
            value = max(
                estimate_lp_norm(norms[:, k, i], model.p)[0] for i in range(norms.shape[2])
            )
            results.append((n, value))
    return results


def example_series_partial_sum(r: float, t: float, n_modes: int) -> float:
    """Partial sum (1/2) sum_{k=2}^{N} (k^2 pi^2)^r (1 - e^{-2 k^2 pi^2 t}) / (k ln(k)^2).

    This is the exact second moment E||X(t)||_{1+r}^2 of the borderline example
    (identity diffusion, log-weighted covariance, zero initial state) at
    truncation N: the It/o isometry turns the stochastic integral into this
    deterministic series. For r >= 0 it converges iff r = 0: at r > 0 the
    terms behave like pi^{2r} k^{2r-1}/ln(k)^2, which is not summable. At
    r = 0 the terms are at most 1/(k ln(k)^2), which decreases with
    antiderivative -1/ln(k), so by the integral test the tail beyond N is at
    most 1/(2 ln N).  An r for which lam_N^r overflows is rejected before any
    term is summed, and a partial sum that is not finite after.
    """
    if not t > 0.0:  # NaN too
        raise ModelError(f"time must be positive, got {t}", "t")
    if not math.isfinite(t):
        raise ModelError(f"time must be finite, got {t}", "t")
    if not math.isfinite(r):
        raise ModelError(f"r must be finite, got {r}", "r")
    if n_modes < 2:
        raise ModelError(f"need at least two modes, got {n_modes}", "n_modes")
    if not math.isfinite(_top_weight(r, n_modes)):
        raise ModelError(f"lam_N^r overflows at N = {n_modes} for r = {r:g}", "r")
    k = np.arange(2, n_modes + 1, dtype=float)
    lam = dirichlet_eigenvalues(n_modes)[1:]
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected next
        terms = lam**r * (-np.expm1(-2.0 * lam * t)) / (k * np.log(k) ** 2)
        total = 0.5 * float(np.sum(terms))
    if not math.isfinite(total):
        raise ModelError(f"partial sum at N = {n_modes} is not finite for r = {r:g}", "r")
    return total


def example_series_report(
    r: float, t: float, n_values: Sequence[int]
) -> tuple[tuple[int, float], ...]:
    """(N, partial sum) pairs of the explicit second-moment series at growing truncations.

    r is checked against the largest N before any partial sum is taken.
    """
    n_values = _increasing(n_values)
    n_max = n_values[-1]
    if n_max >= 2 and not math.isfinite(_top_weight(r, n_max)):  # N < 2 is the sum's rejection
        raise ModelError(f"lam_N^r overflows at N = {n_max} for r = {r:g}", "r")
    return tuple((int(n), example_series_partial_sum(r, t, n)) for n in n_values)

