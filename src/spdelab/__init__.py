"""Spectral-Galerkin laboratory for semilinear stochastic heat equations.

Simulates the mild solution of dX + [AX + F(X)]dt = G(X)dW, A the Dirichlet
Laplacian on (0, 1), on the first N sine eigenmodes of A, and probes the
smoothness predictions that come with it: fractional-norm finiteness,
temporal Hölder exponents, and the borderline covariance example whose
higher norms blow up.  F is None (zero), a
`Diagonal` or a `Nemytskii` spec, and G a `Diagonal` (additive noise) or a
`Nemytskii` spec.  A `Diagonal` multiplies mode k by m_k; a `Nemytskii` spec
composes pointwise with a globally Lipschitz scalar function from the
`SCALAR_FUNCTIONS` table.  A vector of mode values, such as the initial
state, the noise covariance's variances or a spec's multipliers, is a plain
one-dimensional float array, and `ModelSpec` checks every such array of a
model.
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
    NoiseStream,
    burkholder_constant,
    example_covariance,
)
from .probes import (
    HolderEstimate,
    estimate_lp_norm,
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
    deterministic_convolution_norm,
    dirichlet_eigenvalues,
    hdot_norm,
    smoothing_constant,
    stochastic_convolution_energy,
)

__version__ = "0.1.0"
