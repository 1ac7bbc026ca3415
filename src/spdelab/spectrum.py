"""Diagonal operator calculus on the eigenbasis of the Dirichlet Laplacian on (0, 1).

The operator A is -d^2/dx^2 with zero boundary values, whose sine eigenmodes
e_k(x) = sqrt(2) sin(k pi x) have the eigenvalues lam_k = (k pi)^2.  A vector
of mode coefficients x is a plain one-dimensional float array of the modes
1..N, so its length fixes the truncation.  Everything here acts mode-wise on
that truncated spectrum: the fractional-space norms
||x||_s = (sum_n lam_n^s x_n^2)^{1/2}, and the closed-form time integrals of
the heat semigroup e^{-tA} that control smoothing (their sharp
one-dimensional constants included).  The norm also takes an array of such
rows and measures each.

The sharp constants come from a scalar root of u / expm1(u) = nu, so the module
needs numpy and the standard library only.
"""

from __future__ import annotations

import math

import numpy as np


def dirichlet_eigenvalues(n: int) -> np.ndarray:
    """The read-only eigenvalues lam_k = (k pi)^2, k = 1..n, of the Dirichlet Laplacian.

    Each entry depends on k alone, so the first n entries of a longer array
    are bitwise this one.
    """
    if n < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    lam = (k * np.pi) ** 2
    lam.setflags(write=False)
    return lam


def hdot_norm(s: float, x: np.ndarray) -> float | np.ndarray:
    """Fractional-space norm ||x||_s = sqrt(sum_n lam_n^s x_n^2) over the last axis.

    One vector of N coefficients gives a float; an array (..., N) gives the
    array (...) of its rows' norms, each the same reduction as the vector's.
    """
    lam = dirichlet_eigenvalues(x.shape[-1])
    norm = np.sqrt(np.sum(lam**s * x**2, axis=-1))
    return float(norm) if x.ndim == 1 else norm


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


def _check_window(
    rho: float, tau1: float, tau2: float, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """The window length tau2 - tau1 and the eigenvalues of the modes of the vector x."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if x.ndim != 1:
        raise ValueError(f"need one vector of mode coefficients, coefficients have shape {x.shape}")
    if tau1 < 0.0:
        raise ValueError(f"interval start must be >= 0, got {tau1}")
    if tau2 <= tau1:
        raise ValueError(f"interval must satisfy tau1 < tau2, got [{tau1}, {tau2}]")
    return tau2 - tau1, dirichlet_eigenvalues(x.size)


def stochastic_convolution_energy(rho: float, tau1: float, tau2: float, x: np.ndarray) -> float:
    """Exact value of int_{tau1}^{tau2} ||A^{rho/2} E(tau2 - sigma) x||^2 dsigma.

    Mode-wise the integral evaluates to the closed-form series
    (1/2) sum_n x_n^2 lam_n^{rho-1} (1 - e^{-2 lam_n (tau2 - tau1)}).
    """
    delta, lam = _check_window(rho, tau1, tau2, x)
    terms = x**2 * lam ** (rho - 1.0) * (-np.expm1(-2.0 * lam * delta))
    return 0.5 * float(np.sum(terms))


def deterministic_convolution_norm(rho: float, tau1: float, tau2: float, x: np.ndarray) -> float:
    """Exact value of ||A^rho int_{tau1}^{tau2} E(tau2 - sigma) x dsigma||.

    Mode-wise the squared norm is sum_n x_n^2 ((1 - e^{-lam_n delta}) / lam_n^{1-rho})^2.
    """
    delta, lam = _check_window(rho, tau1, tau2, x)
    factors = -np.expm1(-lam * delta) / lam ** (1.0 - rho)
    return float(np.sqrt(np.sum(x**2 * factors**2)))
