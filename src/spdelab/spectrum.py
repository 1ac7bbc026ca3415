"""Diagonal operator calculus on the eigenbasis of a positive self-adjoint operator.

Everything here acts mode-wise on a truncated spectrum 0 < lam_1 <= ... <= lam_N:
the fractional-space norms ||x||_s = (sum_n lam_n^s x_n^2)^{1/2}, and the
closed-form time integrals of the heat semigroup e^{-tA} that control smoothing
(their sharp one-dimensional constants included).  A vector of mode
coefficients x is a plain one-dimensional float array of length N.

The sharp constants come from a scalar root of u / expm1(u) = nu, so the module
needs numpy and the standard library only.
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


def _check_dimensions(op: SpectralOperator, x: np.ndarray) -> None:
    if op.dimension != x.size:
        raise ValueError(
            f"dimension mismatch: operator has {op.dimension} modes, "
            f"coefficients have {x.size}"
        )


def dirichlet_laplacian_1d(n_modes: int) -> SpectralOperator:
    """Spectrum lam_k = k^2 pi^2 of the 1-d Dirichlet Laplacian on (0, 1)."""
    if n_modes < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {n_modes}")
    k = np.arange(1, n_modes + 1, dtype=float)
    return SpectralOperator((k * np.pi) ** 2)


def hdot_norm(op: SpectralOperator, s: float, x: np.ndarray) -> float:
    """Fractional-space norm ||x||_s = sqrt(sum_n lam_n^s x_n^2)."""
    _check_dimensions(op, x)
    return float(np.sqrt(np.sum(op.eigenvalues**s * x**2)))


_SMOOTHING_KINDS = ("power", "difference", "integral", "convolution")


def _difference_sup(nu: float) -> float:
    """C(nu) = sup_{u>0} (1 - e^{-u}) / u^nu for 0 < nu < 1, and its value 1 at nu = 0 and nu = 1.

    The maximiser u* is the unique root of u / expm1(u) = nu.  Since
    e^{-u} <= u / expm1(u) <= e^{-u/2}, it lies in [-log nu, -2 log nu].  The root
    is found by Newton steps on F(w) = log(u / expm1(u)) - log(nu) in w = log u,
    whose slope 1 - u - u/expm1(u) is negative; a step that leaves the current
    bracket is replaced by bisection.  For u > 1 the log ratio is evaluated as
    log u - u - log1p(-e^{-u}), which stays finite up to subnormal nu.
    """
    if not 0.0 < nu < 1.0:  # the edges; 1 - rho also rounds to 1 for rho below 2^-53
        return 1.0
    log_nu = math.log(nu)
    lo, hi = math.log(-log_nu), math.log(-2.0 * log_nu)  # F(lo) >= 0 >= F(hi)
    w = 0.5 * (lo + hi)
    for _ in range(200):
        u = math.exp(w)
        if u > 1.0:
            log_ratio = math.log(u) - u - math.log1p(-math.exp(-u))
        else:
            log_ratio = math.log(u / math.expm1(u))
        f = log_ratio - log_nu
        if f == 0.0:
            break
        if f > 0.0:
            lo = w
        else:
            hi = w
        slope = 1.0 - u - math.exp(log_ratio)
        step = f / slope if slope < 0.0 else math.inf
        if not lo < w - step < hi:
            step = w - 0.5 * (lo + hi)
        w -= step
        if abs(step) <= 1e-15 or hi - lo <= 1e-15:
            break
    u = math.exp(w)
    return -math.expm1(-u) / u**nu


def smoothing_constant(kind: str, exponent: float) -> float:
    """Sharp constant of the semigroup smoothing estimates, as a 1-d supremum.

    kind="power":        sup_u u^mu e^{-u}            = (mu/e)^mu   (mu >= 0)
    kind="difference":   sup_u (1 - e^{-u})  / u^nu                 (nu in [0, 1])
    kind="integral":     sup_u (1 - e^{-2u}) / u^{1-rho}            (rho in [0, 1])
    kind="convolution":  sup_u (1 - e^{-u})  / u^{1-rho}            (rho in [0, 1])

    The three last kinds reduce to C(nu) = sup_u (1 - e^{-u}) / u^nu: "difference"
    is C(nu), "convolution" is C(1 - rho), and "integral" is 2^{1-rho} C(1 - rho)
    after the substitution v = 2u.  For 0 < nu < 1 the supremum is attained at the
    root u* of u / expm1(u) = nu, found by a safeguarded Newton iteration in log u;
    at the edges nu = 0 and nu = 1 it is 1.
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
        return _difference_sup(e)
    if kind == "integral":
        return 2.0 ** (1.0 - e) * _difference_sup(1.0 - e)
    return _difference_sup(1.0 - e)  # convolution


def _check_interval(tau1: float, tau2: float) -> float:
    if tau1 < 0.0:
        raise ValueError(f"interval start must be >= 0, got {tau1}")
    if tau2 <= tau1:
        raise ValueError(f"interval must satisfy tau1 < tau2, got [{tau1}, {tau2}]")
    return tau2 - tau1


def stochastic_convolution_energy(
    op: SpectralOperator, rho: float, tau1: float, tau2: float, x: np.ndarray
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
    terms = x**2 * lam ** (rho - 1.0) * (-np.expm1(-2.0 * lam * delta))
    return 0.5 * float(np.sum(terms))


def deterministic_convolution_norm(
    op: SpectralOperator, rho: float, tau1: float, tau2: float, x: np.ndarray
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
    return float(np.sqrt(np.sum(x**2 * factors**2)))
