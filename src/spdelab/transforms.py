"""Dense sine-basis transforms between eigenmode coefficients and grid values.

Synthesis evaluates u(y_j) = sum_k x_k sqrt(2) sin(k pi y_j) on the interior
grid y_j = j/M, j = 1..M-1; analysis applies the matching trapezoid quadrature
of the basis inner products.  With grid size M >= 2N the discrete orthogonality
is exact, so analysis inverts synthesis on band-limited data.

Both transforms take an optional ``out=``: a C-contiguous float array of the
result's shape, (rows, M-1) for synthesis and (rows, n_modes) for analysis,
that must not overlap the input.  The result is written there and returned,
and is bitwise the same as without ``out``; the solver passes buffers it
reuses across steps so that no grid-sized array is allocated per step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def sine_basis_matrix(n_modes: int, grid_size: int) -> np.ndarray:
    """Matrix S[k-1, j-1] = sqrt(2) sin(k pi j / M), shape (n_modes, M-1)."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    if grid_size < 2 * n_modes:
        raise ValueError(
            f"grid size must be >= 2 * n_modes to avoid aliasing, "
            f"got M={grid_size} for N={n_modes}"
        )
    k = np.arange(1, n_modes + 1)[:, None]
    j = np.arange(1, grid_size)[None, :]
    mat = np.sqrt(2.0) * np.sin(k * np.pi * j / grid_size)
    mat.setflags(write=False)
    return mat


def synthesize(
    coeff_rows: np.ndarray, grid_size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Grid values of the functions whose coefficient rows are given."""
    coeff_rows = np.atleast_2d(coeff_rows)
    basis = sine_basis_matrix(coeff_rows.shape[1], grid_size)
    return np.matmul(coeff_rows, basis, out=out)


def analyze(value_rows: np.ndarray, n_modes: int, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficient rows recovered by trapezoid quadrature against the basis."""
    value_rows = np.atleast_2d(value_rows)
    grid_size = value_rows.shape[1] + 1
    basis = sine_basis_matrix(n_modes, grid_size)
    out = np.matmul(value_rows, basis.T, out=out)
    out /= grid_size  # in place: the same bits as `value_rows @ basis.T / grid_size`
    return out
