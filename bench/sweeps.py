"""Layer sweeps: public spdelab functions timed in isolation at fixed sizes.

They record the cost of one noise draw per mode count, and the dense sine
transforms next to `scipy.fft.dst(type=1)` at the same shapes: the crossover
to measure before any swap to an FFT.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.fft

NOISE_MODES = (16, 64, 256, 512)
TRANSFORM_SHAPES = ((128, 64, 256), (128, 256, 1024))  # (rows, modes, grid M)


def per_call_us(fn, repeats: int = 5, target_s: float = 0.02) -> float:
    """Median over `repeats` batches of the mean time of one `fn()` call, in us."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= target_s / 4:
            break
        calls *= 4
    batches = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(batches)


def noise_sweep(seed: int) -> dict[str, float]:
    from spdelab.noise import NoiseStream

    metrics = {}
    for n in NOISE_MODES:
        stream = NoiseStream(seed, 0)
        steps = iter(range(1 << 40))
        metrics[f"noise.sweep.N{n}.us_per_call"] = per_call_us(
            lambda: stream.step_normals(next(steps), n)
        )
    return metrics


def dst_synthesize(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """`transforms.synthesize` through DST-I: zero-pad to M-1 points, scale by 1/sqrt(2)."""
    padded = np.zeros((coeffs.shape[0], grid - 1))
    padded[:, : coeffs.shape[1]] = coeffs
    return scipy.fft.dst(padded, type=1, axis=1) / np.sqrt(2.0)


def dst_analyze(values: np.ndarray, modes: int) -> np.ndarray:
    """`transforms.analyze` through DST-I: keep the first N outputs, scale by 1/(sqrt(2) M)."""
    grid = values.shape[1] + 1
    return scipy.fft.dst(values, type=1, axis=1)[:, :modes] / (np.sqrt(2.0) * grid)


def transform_sweep(seed: int) -> tuple[dict[str, float], list[str]]:
    """Timings per shape, and failures where dense and DST results disagree."""
    from spdelab import transforms

    rng = np.random.default_rng(seed)
    metrics, failures = {}, []
    for rows, modes, grid in TRANSFORM_SHAPES:
        key = f"transforms.sweep.{rows}x{modes}.M{grid}"
        coeffs = rng.standard_normal((rows, modes))
        values = transforms.synthesize(coeffs, grid)
        for name, dense, fast in (
            ("synthesize", values, dst_synthesize(coeffs, grid)),
            ("analyze", transforms.analyze(values, modes), dst_analyze(values, modes)),
        ):
            if not np.allclose(dense, fast, rtol=1e-9, atol=1e-9 * np.max(np.abs(dense))):
                failures.append(f"{key}: dense and DST {name} disagree")
        if not np.allclose(transforms.analyze(values, modes), coeffs, rtol=1e-9, atol=1e-9):
            failures.append(f"{key}: analyze does not invert synthesize")
        metrics[f"{key}.synthesize_us"] = per_call_us(lambda: transforms.synthesize(coeffs, grid))
        metrics[f"{key}.analyze_us"] = per_call_us(lambda: transforms.analyze(values, modes))
        metrics[f"{key}.dst_us"] = per_call_us(lambda: dst_synthesize(coeffs, grid))
    return metrics, failures
