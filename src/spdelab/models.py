"""Problem description: model specs, the scalar-function table, assumption checks.

A model couples the operator spectrum, the noise covariance, a drift F, a
diffusion G, a deterministic initial state, and the regularity parameters
(r, p) the user claims for it.  A nonlinear F or G is a `Nemytskii` spec: the
pointwise composition with a globally Lipschitz scalar function named in
`SCALAR_FUNCTIONS`; the field of `ModelSpec` it sits in makes it the drift or
the diffusion.  The solver evaluates F and G on the rows of a time step, and
`validate_assumptions` returns one `AssumptionCheck` per standing assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import transforms
from .noise import CovarianceSpectrum, hs_norm_L2r
from .spectrum import SpectralCoeffs, SpectralOperator, _frozen_array, hdot_norm


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar Lipschitz function usable as a pointwise nonlinearity."""

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


# The pointwise functions a Nemytskii term may name, in name order.  Each
# declared constant is checked on a dense grid by tests/test_models.py.
SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {
    "cos": ScalarFunction(np.cos, 1.0),
    "identity": ScalarFunction(lambda u: u, 1.0),
    "one": ScalarFunction(lambda u: np.ones_like(u), 0.0),
    "sigmoid": ScalarFunction(lambda u: 1.0 / (1.0 + np.exp(-u)), 0.25),
    "sin": ScalarFunction(np.sin, 1.0),
    "tanh": ScalarFunction(np.tanh, 1.0),
}


@dataclass(frozen=True)
class ZeroDrift:
    lipschitz: float = 0.0


@dataclass(frozen=True)
class DiagonalLinearDrift:
    """Drift acting as multiplication by f_k on mode k; Lipschitz constant sup|f_k|."""

    multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "multipliers", _frozen_array(self.multipliers))
        if not np.all(np.isfinite(self.multipliers)):
            raise ValueError("drift multipliers must be finite")

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(self.multipliers)))


@dataclass(frozen=True)
class Nemytskii:
    """Pointwise map of a function g of `SCALAR_FUNCTIONS` on an M-point grid.

    As the drift it is F(x)(y) = g(x(y)); as the diffusion it is
    (G(x) w)(y) = g(x(y)) w(y).  Both go through the sine transforms.
    """

    function: str
    grid_size: int

    @property
    def lipschitz(self) -> float:
        return SCALAR_FUNCTIONS[self.function].lipschitz


DriftSpec = Union[ZeroDrift, DiagonalLinearDrift, Nemytskii]


@dataclass(frozen=True)
class AdditiveDiagonalDiffusion:
    """State-independent diffusion acting as multiplication by g_k on mode k."""

    multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "multipliers", _frozen_array(self.multipliers))
        if not np.all(np.isfinite(self.multipliers)):
            raise ValueError("diffusion multipliers must be finite")

    @property
    def lipschitz(self) -> float:
        return 0.0


DiffusionSpec = Union[AdditiveDiagonalDiffusion, Nemytskii]


@dataclass(frozen=True)
class ModelSpec:
    """Full problem description with its declared regularity parameters."""

    operator: SpectralOperator
    covariance: CovarianceSpectrum
    drift: DriftSpec
    diffusion: DiffusionSpec
    initial: SpectralCoeffs
    r: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        n = self.operator.dimension
        if self.covariance.dimension != n:
            raise ValueError(
                f"covariance dimension {self.covariance.dimension} != operator dimension {n}"
            )
        if self.initial.dimension != n:
            raise ValueError(
                f"initial-state dimension {self.initial.dimension} != operator dimension {n}"
            )
        if isinstance(self.drift, DiagonalLinearDrift) and self.drift.multipliers.size != n:
            raise ValueError("diagonal drift multiplier count must match the operator")
        if isinstance(self.diffusion, AdditiveDiagonalDiffusion):
            if self.diffusion.multipliers.size != n:
                raise ValueError("diagonal diffusion multiplier count must match the operator")
            if not 0.0 <= self.r <= 1.0:
                raise ValueError(f"additive models allow r in [0, 1], got {self.r}")
            norm = hs_norm_L2r(self.operator, self.covariance, self.diffusion.multipliers, self.r)
            if not math.isfinite(norm):
                raise ValueError("weighted Hilbert-Schmidt norm of the diffusion is not finite")
        else:
            if not 0.0 <= self.r < 1.0:
                raise ValueError(f"multiplicative models require r in [0, 1), got {self.r}")
        if not math.isfinite(self.p):
            raise ValueError(f"moment order p must be finite, got {self.p}")
        if self.p < 2.0:
            raise ValueError(f"moment order must be >= 2, got {self.p}")
        for spec in (self.drift, self.diffusion):
            if isinstance(spec, Nemytskii):
                if spec.function not in SCALAR_FUNCTIONS:
                    raise ValueError(f"unknown scalar function {spec.function!r}, "
                                     f"expected one of {tuple(SCALAR_FUNCTIONS)}")
                if spec.grid_size < 2 * n:
                    raise ValueError(
                        f"Nemytskii grid size {spec.grid_size} must be >= 2 * {n}"
                    )
        if not math.isfinite(hdot_norm(self.operator, self.r + 1.0, self.initial)):
            raise ValueError("initial state must have a finite smoothness norm at r + 1")

    @property
    def dimension(self) -> int:
        return self.operator.dimension


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)


def _dyadic_partial_sums(weights: np.ndarray) -> list[float]:
    """Partial sums of `weights` at dimensions N/4, N/2, N (rounded down)."""
    n = weights.size
    cuts = sorted({max(n // 4, 1), max(n // 2, 1), n})
    return [float(np.sum(weights[:c])) for c in cuts]


def _increments_shrink(sums: list[float], n: int) -> bool:
    """Whether the dyadic partial sums of an n-term series have shrinking increments.

    Tested from n = 16 on, where each dyadic block holds at least four terms.
    """
    if len(sums) == 3 and n >= 16:
        inc1, inc2 = sums[1] - sums[0], sums[2] - sums[1]
        return inc2 < inc1 or inc2 == 0.0
    return True


def validate_assumptions(model: ModelSpec, probe_seed: int = 0) -> tuple[AssumptionCheck, ...]:
    """Check the standing assumptions at the truncated level and record constants.

    The checks come in a fixed order: drift_lipschitz, diffusion_lipschitz,
    diffusion_growth, initial_regularity.

    The growth/finiteness check for the diffusion inspects partial sums of the
    weighted Hilbert-Schmidt series across dimension doublings: increments that
    fail to shrink flag a divergent series (the declared r is too large).
    Nemytskii nonlinearities are probed at random states; measured ratios are
    reported, not proven.

    The Nemytskii Lipschitz probe measures, for random coefficient vectors
    x != y with grid values u, v, the ratio
    sqrt(sum_i q_i |analyze((g(u) - g(v)) e_i)|^2) / |x - y| and passes when
    it is at most L sqrt(2 sum_i q_i), L the declared constant of g.  The
    bound holds on the grid y_j = j/M with the mean-square norm
    |w|_M^2 = (1/M) sum_j w_j^2: `analyze` is the orthogonal projection onto
    n modes in that inner product, so |analyze(w)| <= |w|_M; |e_i| <= sqrt(2)
    pointwise, so |w e_i|_M <= sqrt(2) |w|_M; g is L-Lipschitz, so
    |g(u) - g(v)|_M <= L |u - v|_M, and |u - v|_M = |x - y| by discrete
    Parseval, since M >= 2N.  A ratio above the bound means the declared
    constant understates g.

    The Nemytskii growth probe reports, at random states x with grid values
    u, the largest ratio |A^{r/2} G(x)|_HS / (1 + |x|_r).  For
    (G(x) w)(y) = g(u(y)) w(y) the squared norm is a series over noise modes,
    sum_i t_i with t_i = q_i sum_k lambda_k^r <g(u) e_i, e_k>^2, the inner
    products taken by `analyze`.  The assumption needs that series to stay
    bounded as N grows, so it is tested as in the additive case: on the
    partial sums over i at N/4, N/2 and N, from N = 16 on.  When the terms
    vary regularly in i, the dyadic block sums of a convergent series shrink,
    while an increment that does not shrink means each doubling of N adds at
    least as much as the last.  The check passes when the increments shrink
    at every probe state.  For the constant g = 1, t_i = q_i lambda_i^r
    exactly, since the grid inner products of the basis are exact for
    M >= 2N; that is the additive weight with g_i = 1, so both spellings of
    the identity operator get the same verdict.
    """
    checks: list[AssumptionCheck] = []
    op, cov = model.operator, model.covariance
    n = model.dimension

    lip_f = model.drift.lipschitz
    checks.append(
        AssumptionCheck("drift_lipschitz", math.isfinite(lip_f), {"constant": lip_f})
    )

    diffusion = model.diffusion
    if isinstance(diffusion, AdditiveDiagonalDiffusion):
        checks.append(
            AssumptionCheck("diffusion_lipschitz", True, {"constant": diffusion.lipschitz})
        )
        weights = op.eigenvalues**model.r * cov.variances * diffusion.multipliers**2
        sums = _dyadic_partial_sums(weights)
        norm = math.sqrt(sums[-1])
        checks.append(
            AssumptionCheck(
                "diffusion_growth",
                math.isfinite(norm) and _increments_shrink(sums, n),
                {"hs_norm": norm, "partial_sums": tuple(sums)},
            )
        )
    else:
        fn = SCALAR_FUNCTIONS[diffusion.function].fn
        m = diffusion.grid_size
        basis = transforms.sine_basis_matrix(n, m)
        modes = np.arange(1, n + 1)

        def image_terms(values: np.ndarray, r: float) -> np.ndarray:
            """Terms q_i lambda_k^r <values e_i, e_k>^2 of the squared weighted
            Hilbert-Schmidt norm of multiplication by grid `values`; row i per noise mode."""
            # rows of `images`: coefficients of values * e_i, one per noise mode i
            images = transforms.analyze(values * basis, n)
            weighted = op.eigenvalues[None, :] ** r * images**2
            return cov.variances[:, None] * weighted

        def image_norm(terms: np.ndarray) -> float:
            return float(np.sqrt(np.sum(terms)))

        rng = np.random.default_rng(probe_seed)
        ratios = []
        for _ in range(8):
            x = rng.standard_normal(n) / modes
            y = x + 0.1 * rng.standard_normal(n) / modes
            ua, ub = transforms.synthesize(x, m)[0], transforms.synthesize(y, m)[0]
            # at r = 0 the weight is exactly 1.0: the plain Hilbert-Schmidt norm
            ratios.append(
                image_norm(image_terms(fn(ua) - fn(ub), 0.0)) / float(np.linalg.norm(x - y))
            )
        measured_lip = max(ratios)
        lip_bound = diffusion.lipschitz * math.sqrt(2.0 * float(np.sum(cov.variances)))
        checks.append(
            AssumptionCheck(
                "diffusion_lipschitz",
                measured_lip <= lip_bound,
                {"constant": diffusion.lipschitz, "measured": measured_lip},
            )
        )
        rng = np.random.default_rng(probe_seed + 1)
        ratios = []
        converging = True
        for _ in range(8):
            x = rng.standard_normal(n) / modes
            u = transforms.synthesize(x, m)[0]
            terms = image_terms(fn(u), model.r)
            ratios.append(image_norm(terms) / (1.0 + hdot_norm(op, model.r, SpectralCoeffs(x))))
            mode_sums = _dyadic_partial_sums(np.sum(terms, axis=1))
            converging = converging and _increments_shrink(mode_sums, n)
        measured = max(ratios)
        checks.append(
            AssumptionCheck(
                "diffusion_growth", math.isfinite(measured) and converging, {"measured": measured}
            )
        )

    initial_norm = hdot_norm(op, model.r + 1.0, model.initial)
    checks.append(
        AssumptionCheck(
            "initial_regularity", math.isfinite(initial_norm), {"norm": initial_norm}
        )
    )
    return tuple(checks)
