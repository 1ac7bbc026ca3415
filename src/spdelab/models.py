"""Problem description: model specs, the scalar-function table, assumption checks.

A model couples the operator spectrum, the noise covariance, a drift F, a
diffusion G, a deterministic initial state, and the regularity parameters
(r, p) the user claims for it.  The noise covariance is the array of its
variances q_k and the initial state an array of mode coefficients; like a
`Diagonal` spec's multipliers, `ModelSpec` checks them and keeps them
read-only, so it alone decides whether a model is valid.  F is None (zero),
a `Diagonal` or a `Nemytskii` spec, and G a `Diagonal` or a `Nemytskii`
spec.  A `Diagonal` multiplies mode k by m_k; a `Nemytskii` spec composes
pointwise with a globally Lipschitz scalar function named in
`SCALAR_FUNCTIONS`.  The field of `ModelSpec` a spec sits in makes it the
drift or the diffusion.  The solver evaluates F and G on the rows of a time
step, and `validate_assumptions` returns one `AssumptionCheck` per standing
assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import transforms
from .spectrum import SpectralOperator, _frozen_array, hdot_norm


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
class Diagonal:
    """Diagonal operator acting as multiplication by m_k on mode k.

    As the drift it is F(x) = m x; as the diffusion it is the
    state-independent G(x) w = m w.  The multipliers are kept read-only, and
    `ModelSpec` checks that they are finite and one per mode.
    """

    multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "multipliers", _frozen_array(self.multipliers))


@dataclass(frozen=True)
class Nemytskii:
    """Pointwise map of a function g of `SCALAR_FUNCTIONS` on an M-point grid.

    As the drift it is F(x)(y) = g(x(y)); as the diffusion it is
    (G(x) w)(y) = g(x(y)) w(y).  Both go through the sine transforms.
    """

    function: str
    grid_size: int


class ModelError(ValueError):
    """A `ModelSpec`, `SolverConfig`, probe-argument or verifier rejection.
    `field` names the field or argument at fault, dotted into a drift or
    diffusion spec ("p", "drift.grid_size", "snapshot_times", "anchor", "lags",
    "mc_paths", "probe_seed"), or is None when no one field is; the config
    reader's command table maps each field to the key that fed it."""

    def __init__(self, message: str, field: str | None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ModelSpec:
    """Full problem description with its declared regularity parameters.

    A drift of None is F = 0.  `covariance` holds the variances q_k >= 0 of
    the noise modes, and `initial` the coefficients of X_0, whose norm at
    r + 1 must be finite; both are stored as read-only copies.  Every
    rejection is a `ModelError`.
    """

    operator: SpectralOperator
    covariance: np.ndarray
    drift: Diagonal | Nemytskii | None
    diffusion: Diagonal | Nemytskii
    initial: np.ndarray
    r: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        n = self.operator.dimension
        covariance = np.array(self.covariance, dtype=float)
        if covariance.shape != (n,):
            raise ModelError(f"covariance has shape {covariance.shape}, expected ({n},)",
                             "covariance")
        if not np.all(np.isfinite(covariance)) or np.any(covariance < 0.0):
            raise ModelError("covariance variances must be finite and nonnegative", "covariance")
        object.__setattr__(self, "covariance", _frozen_array(covariance))
        initial = np.array(self.initial, dtype=float)
        if initial.shape != (n,):
            raise ModelError(f"initial state has shape {initial.shape}, expected ({n},)", "initial")
        object.__setattr__(self, "initial", _frozen_array(initial))
        for role in ("drift", "diffusion"):
            spec = getattr(self, role)
            if isinstance(spec, Diagonal):
                if spec.multipliers.size != n:
                    raise ModelError(f"diagonal {role} multiplier count must match the operator",
                                     f"{role}.multipliers")
                if not np.all(np.isfinite(spec.multipliers)):
                    raise ModelError(f"diagonal {role} multipliers must be finite",
                                     f"{role}.multipliers")
            if isinstance(spec, Nemytskii):
                if spec.function not in SCALAR_FUNCTIONS:
                    raise ModelError(f"unknown scalar function {spec.function!r}, "
                                     f"expected one of {tuple(SCALAR_FUNCTIONS)}",
                                     f"{role}.function")
                if spec.grid_size < 2 * n:
                    raise ModelError(
                        f"Nemytskii grid size {spec.grid_size} must be >= 2 * {n}",
                        f"{role}.grid_size",
                    )
        if isinstance(self.diffusion, Diagonal):
            if not 0.0 <= self.r <= 1.0:
                raise ModelError(f"additive models allow r in [0, 1], got {self.r}", "r")
            # an overflow gives inf, rejected next; sqrt(q_k) g_k is 0 where q_k = 0
            with np.errstate(over="ignore"):
                norm = hdot_norm(self.operator, self.r,
                                 np.sqrt(self.covariance) * self.diffusion.multipliers)
            if not math.isfinite(norm):
                raise ModelError(
                    "weighted Hilbert-Schmidt norm of the diffusion is not finite", None
                )
        elif not 0.0 <= self.r < 1.0:
            raise ModelError(f"multiplicative models require r in [0, 1), got {self.r}", "r")
        if not math.isfinite(self.p):
            raise ModelError(f"moment order p must be finite, got {self.p}", "p")
        if self.p < 2.0:
            raise ModelError(f"moment order must be >= 2, got {self.p}", "p")
        with np.errstate(over="ignore"):  # an overflow gives inf, rejected next
            initial_norm = hdot_norm(self.operator, self.r + 1.0, self.initial)
        if not math.isfinite(initial_norm):
            raise ModelError("initial state must have a finite smoothness norm at r + 1", "initial")

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

    A negative `probe_seed` is a `ModelError`, whether or not a probe draws.
    """
    if probe_seed < 0:
        raise ModelError(f"seed must be >= 0, got {probe_seed}", "probe_seed")
    checks: list[AssumptionCheck] = []
    op, cov = model.operator, model.covariance
    n = model.dimension

    # declared constants: a Nemytskii term's from the table, max|m_k| for a
    # diagonal drift x -> m x, and 0 for no drift and for the state-independent
    # diagonal diffusion
    drift, diffusion = model.drift, model.diffusion
    lip_f = lip_g = 0.0
    if isinstance(drift, Diagonal):
        lip_f = float(np.max(np.abs(drift.multipliers)))
    elif isinstance(drift, Nemytskii):
        lip_f = SCALAR_FUNCTIONS[drift.function].lipschitz
    if isinstance(diffusion, Nemytskii):
        lip_g = SCALAR_FUNCTIONS[diffusion.function].lipschitz
    checks.append(
        AssumptionCheck("drift_lipschitz", math.isfinite(lip_f), {"constant": lip_f})
    )

    if isinstance(diffusion, Diagonal):
        checks.append(AssumptionCheck("diffusion_lipschitz", True, {"constant": lip_g}))
        # the terms of hdot_norm(op, r, sqrt(q) g) squared, kept for their partial sums
        weights = op.eigenvalues**model.r * cov * diffusion.multipliers**2
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
            return cov[:, None] * weighted

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
        lip_bound = lip_g * math.sqrt(2.0 * float(np.sum(cov)))
        checks.append(
            AssumptionCheck(
                "diffusion_lipschitz",
                measured_lip <= lip_bound,
                {"constant": lip_g, "measured": measured_lip},
            )
        )
        rng = np.random.default_rng(probe_seed + 1)
        ratios = []
        converging = True
        for _ in range(8):
            x = rng.standard_normal(n) / modes
            u = transforms.synthesize(x, m)[0]
            terms = image_terms(fn(u), model.r)
            ratios.append(image_norm(terms) / (1.0 + hdot_norm(op, model.r, x)))
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
