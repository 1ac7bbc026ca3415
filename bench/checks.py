"""Closed-form checks of the CSV files the spdelab CLI writes.

The checks do not import spdelab: each recomputes the expected value from the
model's closed form with numpy. A Monte-Carlo number passes when it lies within
Z standard errors of its expectation. Z = 6 bounds the chance of a false
failure by about 2e-9 per number under the normal approximation, so the few
hundred numbers of one run fail by chance far less than once in a thousand
runs, whatever the seed. Deterministic numbers must match to a relative 1e-9.

Every check takes (output directory, captured stdout) and returns a list of
failure messages, empty when the output is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

Z = 6.0
RTOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI table; the first line is the `# config:` comment."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config:"):
        raise ValueError(f"{path.name}: missing '# config:' line")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _table(out_dir: Path, name: str, header: list[str]) -> np.ndarray | str:
    """Numeric table of `name`, or a failure message."""
    path = out_dir / name
    if not path.is_file():
        return f"{name}: missing"
    try:
        got_header, rows = read_csv(path)
        values = np.array(rows, dtype=float)
    except ValueError as exc:
        return f"{name}: unreadable ({exc})"
    if got_header != header:
        return f"{name}: header {got_header} != {header}"
    if not np.all(np.isfinite(values)):
        return f"{name}: non-finite values"
    return values


def eigenvalues(n: int) -> np.ndarray:
    """Dirichlet Laplacian on (0, 1): lambda_k = (k pi)^2."""
    return (np.arange(1, n + 1) * math.pi) ** 2


def example5_variances(n: int) -> np.ndarray:
    """q_1 = 0 and q_k = 1 / (k ln(k)^2) for k >= 2."""
    q = np.zeros(n)
    k = np.arange(2, n + 1, dtype=float)
    q[1:] = 1.0 / (k * np.log(k) ** 2)
    return q


def euler_variance(n: int, h: float, j: int) -> np.ndarray:
    """Per-mode variance after j exponential-Euler steps from 0, unit additive noise.

    x_{j+1} = b (x_j + sqrt(q h) z_j) with b = e^{-lambda h}, so
    Var x_j = q h a (1 - a^j) / (1 - a) with a = b^2.
    """
    a = np.exp(-2.0 * eigenvalues(n) * h)
    return example5_variances(n) * h * a * (1.0 - a**j) / (1.0 - a)


def _snapshot_rows(values, n, snapshots, name) -> list[str]:
    expected = np.repeat(np.asarray(snapshots, dtype=float), n)
    modes = np.tile(np.arange(1, n + 1), len(snapshots))
    if values.shape != (n * len(snapshots), 4):
        return [f"{name}: shape {values.shape}, expected {(n * len(snapshots), 4)}"]
    if not (np.allclose(values[:, 0], expected, rtol=RTOL, atol=0.0)
            and np.array_equal(values[:, 1], modes)):
        return [f"{name}: (time, mode) columns do not match the snapshot grid"]
    return []


def check_additive(out_dir, stdout, *, N, T, steps, paths, snapshots) -> list[str]:
    """Each mode's variance and mean against the scheme's exact law N(0, Var x_j).

    The CSV variance has divisor n, so its mean is Var (n - 1)/n and its
    standard error Var sqrt(2 / (n - 1)). Modes are independent, so besides
    every single mode, the summed z-score of each snapshot must stay within Z
    sqrt(modes): that catches a small bias shared by all modes.
    """
    values = _table(Path(out_dir), "snapshots.csv", ["time", "mode", "mean", "variance"])
    if isinstance(values, str):
        return [values]
    failures = _snapshot_rows(values, N, snapshots, "snapshots.csv")
    if failures:
        return failures
    h = T / steps
    for i, t in enumerate(snapshots):
        block = values[i * N:(i + 1) * N]
        exact = euler_variance(N, h, int(round(t / h)))
        mean, var = block[:, 2], block[:, 3]
        zero = exact == 0.0
        if np.any(mean[zero] != 0.0) or np.any(var[zero] != 0.0):
            failures.append(f"t={t:g}: noiseless modes moved")
        live = ~zero
        if not np.any(live):
            continue
        se_var = exact[live] * math.sqrt(2.0 / (paths - 1))
        z_var = (var[live] - exact[live] * (paths - 1) / paths) / se_var
        z_mean = mean[live] / np.sqrt(exact[live] / paths)
        worst = int(np.argmax(np.abs(z_var)))
        if abs(z_var[worst]) > Z:
            failures.append(f"t={t:g}: variance z-score {z_var[worst]:.2f} > {Z}")
        pooled = float(np.sum(z_var)) / math.sqrt(z_var.size)
        if abs(pooled) > Z:
            failures.append(f"t={t:g}: pooled variance z-score {pooled:.2f} > {Z}")
        if np.max(np.abs(z_mean)) > Z:
            failures.append(f"t={t:g}: mean z-score {np.max(np.abs(z_mean)):.2f} > {Z}")
    return failures


def check_nemytskii(out_dir, stdout, *, N, paths, snapshots) -> list[str]:
    """Every mean within Z standard errors of 0, every value finite.

    tanh is odd, cos is even and the initial state is 0, so x -> -x maps the
    scheme driven by W to the scheme driven by -W: the law is symmetric and
    every mean is exactly 0.
    """
    values = _table(Path(out_dir), "snapshots.csv", ["time", "mode", "mean", "variance"])
    if isinstance(values, str):
        return [values]
    failures = _snapshot_rows(values, N, snapshots, "snapshots.csv")
    if failures:
        return failures
    mean, var = values[:, 2], values[:, 3]
    still = var == 0.0
    if np.any(mean[still] != 0.0):
        failures.append("a mode without spread has a nonzero mean")
    z = np.abs(mean[~still]) / np.sqrt(var[~still] / (paths - 1))
    if z.size and np.max(z) > Z:
        failures.append(f"mean z-score {np.max(z):.2f} > {Z}")
    return failures


def check_temporal(out_dir, stdout, *, N, h, anchor_step, lag_steps, s_values) -> list[str]:
    """Each per-lag (E||X(t+l) - X(t)||_s^2)^{1/2} estimate against its closed form.

    With m = anchor step, l = lag steps and b = e^{-lambda h}:
    x_{m+l} - x_m = (b^l - 1) x_m + sum_{i<l} b^{l-i} sqrt(q h) z_{m+i}, so
    Var = (b^l - 1)^2 Var x_m + q h a (1 - a^l) / (1 - a) with a = b^2.
    The estimate must lie within Z of its reported (delta-method) stderr.
    """
    out_dir = Path(out_dir)
    failures = []
    lam = eigenvalues(N)
    b = np.exp(-lam * h)
    anchor_var = euler_variance(N, h, anchor_step)
    for idx, s in enumerate(s_values):
        name = f"temporal_s{idx}.csv"
        values = _table(out_dir, name, ["lag", "estimate", "stderr"])
        if isinstance(values, str):
            failures.append(values)
            continue
        if values.shape != (len(lag_steps), 3):
            failures.append(f"{name}: shape {values.shape}")
            continue
        for (lag, estimate, stderr), l in zip(values, lag_steps):
            inc_var = (b**l - 1.0) ** 2 * anchor_var + euler_variance(N, h, l)
            exact = math.sqrt(float(np.sum(lam**s * inc_var)))
            if not math.isclose(lag, l * h, rel_tol=RTOL):
                failures.append(f"{name}: lag {lag} != {l * h}")
            elif not stderr > 0.0 or abs(estimate - exact) > Z * stderr:
                failures.append(
                    f"{name}: lag {lag:g} estimate {estimate:.6g} vs exact {exact:.6g} "
                    f"(stderr {stderr:.3g})"
                )
    fits = _table(out_dir, "holder_fits.csv", ["s", "slope", "stderr", "predicted"])
    if isinstance(fits, str):
        failures.append(fits)
    elif fits.shape != (len(s_values), 4):
        failures.append(f"holder_fits.csv: shape {fits.shape}")
    return failures


def check_spatial(out_dir, stdout, *, T, paths, sweep_N) -> list[str]:
    """Each sweep value^2 against (1/2) sum_{k=2}^N q_k (1 - e^{-2 lambda_k T}).

    The exact stepper draws x_k(T) ~ N(0, v_k), v_k = q_k (1 - e^{-2 lambda_k T}) /
    (2 lambda_k), so value^2 is a mean of sum_k lambda_k x_k^2 over the paths:
    expectation sum_k lambda_k v_k, variance 2 sum_k (lambda_k v_k)^2 / paths.
    """
    values = _table(Path(out_dir), "spatial_sweep.csv", ["N", "value"])
    if isinstance(values, str):
        return [values]
    if values.shape != (len(sweep_N), 2) or list(values[:, 0]) != list(sweep_N):
        return [f"spatial_sweep.csv: rows {values[:, 0].tolist()} != {list(sweep_N)}"]
    failures = []
    for n, value in values:
        n = int(n)
        lam = eigenvalues(n)
        weighted = 0.5 * example5_variances(n) * -np.expm1(-2.0 * lam * T)
        exact = float(np.sum(weighted))
        se = math.sqrt(2.0 * float(np.sum(weighted**2)) / paths)
        if abs(value**2 - exact) > Z * se:
            failures.append(f"N={n}: value^2 {value**2:.6g} vs exact {exact:.6g} (se {se:.3g})")
    return failures


def series_partial_sum(r: float, t: float, n: int) -> float:
    """(1/2) sum_{k=2}^N (k^2 pi^2)^r (1 - e^{-2 k^2 pi^2 t}) / (k ln(k)^2)."""
    k = np.arange(2, n + 1, dtype=float)
    lam = (k * math.pi) ** 2
    return 0.5 * float(np.sum(lam**r * -np.expm1(-2.0 * lam * t) / (k * np.log(k) ** 2)))


def check_series(out_dir, stdout, *, r, t, N_values) -> list[str]:
    """Partial sums equal the closed form; for r > 0 the increments grow."""
    values = _table(Path(out_dir), "series.csv", ["N", "partial_sum"])
    if isinstance(values, str):
        return [values]
    if values.shape != (len(N_values), 2) or list(values[:, 0]) != list(N_values):
        return [f"series.csv: rows {values[:, 0].tolist()} != {list(N_values)}"]
    failures = []
    for n, value in values:
        exact = series_partial_sum(r, t, int(n))
        if not math.isclose(value, exact, rel_tol=RTOL):
            failures.append(f"N={int(n)}: partial sum {value!r} != {exact!r}")
    increments = np.diff(values[:, 1])
    if not (np.all(increments > 0.0) and np.all(np.diff(increments) > 0.0)):
        failures.append(f"increments {increments.tolist()} are not positive and growing")
    return failures


def check_all_pass_csv(name: str):
    """Check for a verification command: every stdout line and every CSV row reads PASS."""

    def check(out_dir, stdout) -> list[str]:
        path = Path(out_dir) / name
        if not path.is_file():
            return [f"{name}: missing"]
        try:
            header, rows = read_csv(path)
        except ValueError as exc:
            return [str(exc)]
        lines = [line for line in stdout.splitlines() if line.strip()]
        failures = [f"stdout: {line}" for line in lines if ": PASS" not in line]
        passed = [row[header.index("passed")] for row in rows]
        if not rows or any(p != "true" for p in passed):
            failures.append(f"{name}: passed column {passed}")
        if len(lines) != len(rows):
            failures.append(f"stdout has {len(lines)} lines for {len(rows)} checks")
        return failures

    return check
