"""What the tests build and compare against, in one place.

- `make_model` is the tests' one builder of a `ModelSpec`, and
  `linear_additive_model` is its zero-drift, constant-diagonal-diffusion case.
- `kernel_normals` reads the standard normals the simulation kernel draws, in
  its layout, for the tests that redo the kernel's steps by hand.
- `quad_energy` and `quad_flow_norm` are adaptive quadratures of the integrals
  that define the library's two convolution series.
- `GaussianLaw` and `euler_gap_variance` give the linear additive model's
  Gaussian laws.

With zero drift and a diagonal diffusion g, each mode of the model is, under
either stepper, the linear recursion x_{j+1} = b x_j + sigma z_j in the
shared standard normals z_j, with b = e^{-lam h}:
- the exact stepper adds sigma^2 = g^2 q (1 - e^{-2 lam h}) / (2 lam), the
  Ornstein-Uhlenbeck transition, so its law at a time t is the solution's;
- the exponential Euler step x_{j+1} = e^{-lam h}(x_j + g sqrt(q h) z_j) adds
  sigma^2 = g^2 q h e^{-2 lam h}, which damps the modes with lam h >~ 1.
So the snapshot at t = j h from x0 is Gaussian with mean e^{-lam t} x0 and
variance S (1 - e^{-2 lam t}), where S = sigma^2 / (1 - b^2) is the
stationary variance: g^2 q / (2 lam) exactly, g^2 q h / (e^{2 lam h} - 1) for
Euler.  An increment over a lag l from a snapshot at t has variance
(1 - e^{-lam l})^2 V(t) + V(l), and the two steppers' gap under the shared
normals has variance (sigma_Euler - sigma_exact)^2 (1 - e^{-2 lam t}) /
(1 - e^{-2 lam h}).  A centred Gaussian Z with independent modes of
variances v has E||Z||_s^2 = sum w and E||Z||_s^4 = (sum w)^2 + 2 sum w^2,
with w = lam^s v.

Nothing here runs the solver or uses the library's convolution series, so the
tests can judge both against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad, quad_vec

from spdelab.models import Diagonal, ModelSpec
from spdelab.noise import NoiseStream, example_covariance
from spdelab.probes import fit_holder_exponent
from spdelab.spectrum import dirichlet_eigenvalues


def make_model(n=8, drift=None, diffusion=None, r=0.0, initial=None, covariance=None, p=2.0):
    """A model on n modes of the Dirichlet Laplacian, with the example covariance,
    the identity diagonal diffusion and x0 = 0 unless given."""
    return ModelSpec(
        dimension=n,
        covariance=covariance if covariance is not None else example_covariance(n),
        drift=drift,
        diffusion=diffusion if diffusion is not None else Diagonal(np.ones(n)),
        initial=initial if initial is not None else np.zeros(n),
        r=r,
        p=p,
    )


def linear_additive_model(n=8, g=1.0, x0=None, covariance=None, r=0.0) -> ModelSpec:
    """Zero drift and diffusion g on n modes, the example covariance and x0 = 0 by default."""
    return make_model(n, diffusion=Diagonal(np.full(n, g)), r=r, initial=x0, covariance=covariance)


def kernel_normals(seed: int, path_indices: Sequence[int], steps: int, n: int) -> np.ndarray:
    """The (steps, paths, n) standard normals the kernel reads for these paths:
    entry [j, b] is the first n normals of step j on path `path_indices[b]`."""
    streams = [NoiseStream(seed, path) for path in path_indices]
    return np.array([[stream.step_normals(j, n) for stream in streams] for j in range(steps)])


def quad_energy(rho, tau1, tau2, x):
    """Adaptive quadrature of the defining integral of the convolution energy."""
    lam = dirichlet_eigenvalues(x.size)
    weights = x**2 * lam**rho

    def integrand(u):
        return float(np.sum(weights * np.exp(-2.0 * lam * u)))

    value, _ = quad(integrand, 0.0, tau2 - tau1, epsabs=0.0, epsrel=1e-12, limit=800)
    return value


def quad_flow_norm(rho, tau1, tau2, x):
    """Adaptive quadrature of the vector integral, then the weighted norm."""
    lam = dirichlet_eigenvalues(x.size)
    vector, _ = quad_vec(
        lambda u: np.exp(-lam * u) * x, 0.0, tau2 - tau1, epsrel=1e-12, limit=800
    )
    return float(np.sqrt(np.sum((lam**rho * vector) ** 2)))


def _squared_diffusion(model: ModelSpec) -> np.ndarray:
    return model.diffusion.multipliers**2 * model.covariance


@dataclass(frozen=True)
class GaussianLaw:
    """One stepper's law of the linear additive model, as arrays over the modes.

    The stationary variance is `weight / rate`; `h` is the Euler step, whose
    law holds on its grid only, and None for the exact law, which holds at
    every time.
    """

    lam: np.ndarray
    x0: np.ndarray
    weight: np.ndarray
    rate: np.ndarray
    h: float | None

    @classmethod
    def exact(cls, model: ModelSpec) -> GaussianLaw:
        """The exact stepper's law, the solution's: stationary variance g^2 q / (2 lam)."""
        lam = model.eigenvalues
        return cls(lam, model.initial, _squared_diffusion(model), 2.0 * lam, None)

    @classmethod
    def euler(cls, model: ModelSpec, h: float) -> GaussianLaw:
        """The exponential Euler scheme's law at step h: stationary variance
        g^2 q h e^{-2 lam h} / (1 - e^{-2 lam h})."""
        lam = model.eigenvalues
        step_variance = _squared_diffusion(model) * h * np.exp(-2.0 * lam * h)
        return cls(lam, model.initial, step_variance, -np.expm1(-2.0 * lam * h), h)

    def _on_grid(self, t: float) -> float:
        if self.h is not None and not math.isclose(t / self.h, round(t / self.h), abs_tol=1e-9):
            raise ValueError(f"time {t} is not on the Euler grid of step {self.h}")
        return t

    def mean(self, t: float) -> np.ndarray:
        return np.exp(-self.lam * self._on_grid(t)) * self.x0

    def variance(self, t: float) -> np.ndarray:
        return self.weight * -np.expm1(-2.0 * self.lam * self._on_grid(t)) / self.rate

    def stationary_variance(self) -> np.ndarray:
        return self.weight / self.rate

    def increment_variance(self, t: float, lag: float) -> np.ndarray:
        """Variance of X(t + lag) - X(t), a Gaussian whatever x0 is."""
        return np.expm1(-self.lam * lag) ** 2 * self.variance(t) + self.variance(lag)

    def norm_moments(self, s: float, variance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E||Z||_s^2 and E||Z||_s^4 of a centred Gaussian with these mode variances,
        reduced over the last axis."""
        w = self.lam**s * variance
        second = np.sum(w, axis=-1)
        return second, second**2 + 2.0 * np.sum(w**2, axis=-1)

    def moment_slope(self, s: float, t: float, lags: Sequence[float], p: float) -> float:
        """Least-squares log-log slope of (E||X(t + lag) - X(t)||_s^p)^{1/p} over
        the lags, at p = 2 or 4, fitted as the temporal probe fits its estimates."""
        if p not in (2.0, 4.0):
            raise ValueError(f"the Gaussian moments are given at p = 2 and 4, not {p}")
        variances = np.array([self.increment_variance(t, lag) for lag in lags])
        moment = self.norm_moments(s, variances)[0 if p == 2.0 else 1]
        return fit_holder_exponent(list(zip(lags, moment ** (1.0 / p))), math.nan).slope


def euler_gap_variance(model: ModelSpec, h: float, t: float) -> np.ndarray:
    """Variance of the Euler state minus the exact one at a grid time t, both
    driven by the same standard normals from the same x0."""
    lam, g2q = model.eigenvalues, _squared_diffusion(model)
    euler_sd = np.exp(-lam * h) * np.sqrt(g2q * h)
    exact_sd = np.sqrt(g2q * -np.expm1(-2.0 * lam * h) / (2.0 * lam))
    return (euler_sd - exact_sd) ** 2 * -np.expm1(-2.0 * lam * t) / -np.expm1(-2.0 * lam * h)
