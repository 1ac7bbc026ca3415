"""Spectral-Galerkin laboratory for semilinear stochastic heat equations.

Simulates the mild solution of dX + [AX + F(X)]dt = G(X)dW on the truncated
eigenbasis of A and probes the smoothness predictions that come with it:
fractional-norm finiteness, temporal Hölder exponents, and the borderline
covariance example whose higher norms blow up.  F is None (zero), a
`Diagonal` or a `Nemytskii` spec, and G a `Diagonal` (additive noise) or a
`Nemytskii` spec.  A `Diagonal` multiplies mode k by m_k; a `Nemytskii` spec
composes pointwise with a globally Lipschitz scalar function from the
`SCALAR_FUNCTIONS` table.  A vector of mode coefficients, such as the initial
state or a spec's multipliers, is a plain one-dimensional float array.
"""

from .models import (
    SCALAR_FUNCTIONS,
    Diagonal,
    ModelSpec,
    Nemytskii,
    ScalarFunction,
    validate_assumptions,
)
from .noise import (
    CovarianceSpectrum,
    NoiseStream,
    burkholder_constant,
    example_covariance,
    hs_norm_L2r,
)
from .probes import (
    HolderEstimate,
    continuity_modulus,
    estimate_lp_norm,
    example_series_partial_sum,
    example_series_report,
    fit_holder_exponent,
    increment_samples,
    predicted_temporal_exponent,
    spatial_sweep,
    temporal_probe,
    truncate_model,
)
from .solver import (
    EXACT_GAUSSIAN,
    EXPONENTIAL_EULER,
    SolverConfig,
    map_paths,
)
from .spectrum import (
    SpectralOperator,
    deterministic_convolution_norm,
    dirichlet_laplacian_1d,
    hdot_norm,
    smoothing_constant,
    stochastic_convolution_energy,
)

__version__ = "0.1.0"
