"""Diagonal operator calculus on the eigenbasis of a positive self-adjoint operator.

Everything here acts mode-wise on a truncated spectrum 0 < lam_1 <= ... <= lam_N:
the heat semigroup e^{-tA}, fractional powers A^{r/2}, the fractional-space norms
||x||_s = (sum_n lam_n^s x_n^2)^{1/2}, and the closed-form time integrals of the
semigroup that control smoothing (their sharp one-dimensional constants included).

scipy is imported lazily, inside `_sup_over_positive_axis`, so that importing this
module loads numpy only; of the CLI commands, only `verify-lemmas` reaches a
sharp interior constant and pays the scipy import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a one-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralOperator:
    """Truncated eigenvalue sequence of the linear operator A.

    The eigenvalues must be strictly positive and nondecreasing; the truncation
    dimension is the length of the sequence.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.eigenvalues)
        if arr.size == 0:
            raise ValueError("operator needs at least one eigenvalue")
        if not np.all(np.isfinite(arr)):
            raise ValueError("eigenvalues must be finite")
        if arr[0] <= 0.0:
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Coefficients of an element of the state space against the eigenbasis."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def dimension(self) -> int:
        return int(self.values.size)

    def __add__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        return SpectralCoeffs(self.values + other.values)

    def __sub__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        return SpectralCoeffs(self.values - other.values)

    def __rmul__(self, scalar: float) -> "SpectralCoeffs":
        return SpectralCoeffs(float(scalar) * self.values)


def _check_dimensions(op: SpectralOperator, x: SpectralCoeffs) -> None:
    if op.dimension != x.dimension:
        raise ValueError(
            f"dimension mismatch: operator has {op.dimension} modes, "
            f"coefficients have {x.dimension}"
        )


def dirichlet_laplacian_1d(n_modes: int) -> SpectralOperator:
    """Spectrum lam_k = k^2 pi^2 of the 1-d Dirichlet Laplacian on (0, 1)."""
    if n_modes < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {n_modes}")
    k = np.arange(1, n_modes + 1, dtype=float)
    return SpectralOperator((k * np.pi) ** 2)


def apply_semigroup(op: SpectralOperator, t: float, x: SpectralCoeffs) -> SpectralCoeffs:
    """Heat flow e^{-tA} x, acting as e^{-lam_n t} on mode n.  Requires t >= 0."""
    if t < 0.0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    _check_dimensions(op, x)
    return SpectralCoeffs(np.exp(-op.eigenvalues * t) * x.values)


def apply_fractional_power(op: SpectralOperator, r: float, x: SpectralCoeffs) -> SpectralCoeffs:
    """A^{r/2} x = sum_n lam_n^{r/2} x_n e_n; any real r (lam_1 > 0)."""
    _check_dimensions(op, x)
    return SpectralCoeffs(op.eigenvalues ** (r / 2.0) * x.values)


def hdot_norm(op: SpectralOperator, s: float, x: SpectralCoeffs) -> float:
    """Fractional-space norm ||x||_s = sqrt(sum_n lam_n^s x_n^2)."""
    _check_dimensions(op, x)
    return float(np.sqrt(np.sum(op.eigenvalues**s * x.values**2)))


_SMOOTHING_KINDS = ("power", "difference", "integral", "convolution")


def _sup_over_positive_axis(f) -> float:
    """Sharp supremum of a unimodal f on (0, oo): log-grid bracket, then golden search.

    When the grid argmax sits on a boundary (maximizer pushed out by an exponent
    within rounding of an edge case) the refinement switches to a bounded search
    over a widened log range.
    """
    from scipy.optimize import minimize_scalar  # lazy: keeps scipy off the CLI's start-up path

    grid = np.logspace(-8.0, 4.0, 481)
    vals = f(grid)
    i = int(np.argmax(vals))
    res = None
    if 0 < i < grid.size - 1:
        try:
            res = minimize_scalar(
                lambda w: -f(math.exp(w)),
                bracket=(math.log(grid[i - 1]), math.log(grid[i]), math.log(grid[i + 1])),
                method="golden",
                options={"xtol": 1e-14},
            )
        except ValueError:  # flat bracket, fall through to the bounded search
            res = None
    if res is None:
        lo = -120.0 if i == 0 else math.log(grid[max(i - 1, 0)])
        hi = 40.0 if i == grid.size - 1 else math.log(grid[min(i + 1, grid.size - 1)])
        res = minimize_scalar(
            lambda w: -f(math.exp(w)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-14},
        )
    return float(max(f(math.exp(res.x)), vals[i]))


def smoothing_constant(kind: str, exponent: float) -> float:
    """Sharp constant of the semigroup smoothing estimates, as a 1-d supremum.

    kind="power":        sup_u u^mu e^{-u}            = (mu/e)^mu   (mu >= 0)
    kind="difference":   sup_u (1 - e^{-u})  / u^nu                 (nu in [0, 1])
    kind="integral":     sup_u (1 - e^{-2u}) / u^{1-rho}            (rho in [0, 1])
    kind="convolution":  sup_u (1 - e^{-u})  / u^{1-rho}            (rho in [0, 1])

    Interior suprema are located by golden-section search after bracketing on a
    log grid; the edge exponents have the closed-form limits hard-wired.
    """
    if kind not in _SMOOTHING_KINDS:
        raise ValueError(f"unknown smoothing kind {kind!r}, expected one of {_SMOOTHING_KINDS}")
    if kind == "power":
        mu = float(exponent)
        if mu < 0.0:
            raise ValueError(f"power exponent must be >= 0, got {mu}")
        if mu == 0.0:
            return 1.0
        return (mu / math.e) ** mu

    e = float(exponent)
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"exponent for kind {kind!r} must lie in [0, 1], got {e}")

    if kind == "difference":
        if e == 0.0 or e == 1.0:
            return 1.0
        return _sup_over_positive_axis(lambda u: -np.expm1(-u) / u**e)
    if kind == "integral":
        if e == 1.0:
            return 1.0
        if e == 0.0:
            return 2.0
        return _sup_over_positive_axis(lambda u: -np.expm1(-2.0 * u) / u ** (1.0 - e))
    # convolution
    if e == 1.0 or e == 0.0:
        return 1.0
    return _sup_over_positive_axis(lambda u: -np.expm1(-u) / u ** (1.0 - e))


def _check_interval(tau1: float, tau2: float) -> float:
    if tau1 < 0.0:
        raise ValueError(f"interval start must be >= 0, got {tau1}")
    if tau2 <= tau1:
        raise ValueError(f"interval must satisfy tau1 < tau2, got [{tau1}, {tau2}]")
    return tau2 - tau1


def stochastic_convolution_energy(
    op: SpectralOperator, rho: float, tau1: float, tau2: float, x: SpectralCoeffs
) -> float:
    """Exact value of int_{tau1}^{tau2} ||A^{rho/2} E(tau2 - sigma) x||^2 dsigma.

    Mode-wise the integral evaluates to the closed-form series
    (1/2) sum_n x_n^2 lam_n^{rho-1} (1 - e^{-2 lam_n (tau2 - tau1)}).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    _check_dimensions(op, x)
    delta = _check_interval(tau1, tau2)
    lam = op.eigenvalues
    terms = x.values**2 * lam ** (rho - 1.0) * (-np.expm1(-2.0 * lam * delta))
    return 0.5 * float(np.sum(terms))


def deterministic_convolution_norm(
    op: SpectralOperator, rho: float, tau1: float, tau2: float, x: SpectralCoeffs
) -> float:
    """Exact value of ||A^rho int_{tau1}^{tau2} E(tau2 - sigma) x dsigma||.

    Mode-wise the squared norm is sum_n x_n^2 ((1 - e^{-lam_n delta}) / lam_n^{1-rho})^2.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    _check_dimensions(op, x)
    delta = _check_interval(tau1, tau2)
    lam = op.eigenvalues
    factors = -np.expm1(-lam * delta) / lam ** (1.0 - rho)
    return float(np.sqrt(np.sum(x.values**2 * factors**2)))
