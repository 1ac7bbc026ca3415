"""Model specification tests: registry, drift/diffusion evaluation, assumptions."""

import functools

import numpy as np
import pytest

from spdelab import models, solver, transforms
from spdelab.models import (
    AdditiveDiagonalDiffusion,
    DiagonalLinearDrift,
    ModelSpec,
    NemytskiiDiffusion,
    NemytskiiDrift,
    ZeroDrift,
    get_scalar_function,
    register_scalar_function,
    registered_functions,
    validate_assumptions,
)
from spdelab.noise import CovarianceSpectrum, example_covariance
from spdelab.spectrum import SpectralCoeffs, dirichlet_laplacian_1d


def make_model(n=8, drift=None, diffusion=None, r=0.0, initial=None, covariance=None):
    return ModelSpec(
        operator=dirichlet_laplacian_1d(n),
        covariance=covariance if covariance is not None else example_covariance(n),
        drift=drift if drift is not None else ZeroDrift(),
        diffusion=diffusion if diffusion is not None else AdditiveDiagonalDiffusion(np.ones(n)),
        initial=SpectralCoeffs(initial if initial is not None else np.zeros(n)),
        r=r,
    )


class TestRegistry:
    def test_known_functions_present(self):
        names = [entry.name for entry in registered_functions()]
        for required in ("identity", "sin", "tanh"):
            assert required in names

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            get_scalar_function("not-a-function")

    def test_registration_verifies_lipschitz_constant(self):
        with pytest.raises(ValueError):
            register_scalar_function("too-steep", lambda u: 3.0 * u, 1.0)

    def test_declared_constants_hold_on_dense_grid(self):
        grid = np.linspace(-10.0, 10.0, 4001)
        for entry in registered_functions():
            slopes = np.abs(np.diff(entry.fn(grid)) / np.diff(grid))
            assert slopes.max() <= entry.lipschitz * (1.0 + 1e-6)


class TestModelValidation:
    def test_additive_allows_unit_regularity(self):
        n = 4
        make_model(
            n,
            covariance=CovarianceSpectrum(np.zeros(n)),
            r=1.0,
        )

    def test_multiplicative_rejects_unit_regularity(self):
        n = 4
        with pytest.raises(ValueError):
            make_model(n, diffusion=NemytskiiDiffusion("tanh", 4 * n), r=1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                operator=dirichlet_laplacian_1d(4),
                covariance=example_covariance(5),
                drift=ZeroDrift(),
                diffusion=AdditiveDiagonalDiffusion(np.ones(4)),
                initial=SpectralCoeffs(np.zeros(4)),
            )

    def test_small_nemytskii_grid_rejected(self):
        with pytest.raises(ValueError):
            make_model(8, drift=NemytskiiDrift("sin", 10))

    def test_moment_order_must_be_at_least_two(self):
        n = 4
        with pytest.raises(ValueError):
            ModelSpec(
                operator=dirichlet_laplacian_1d(n),
                covariance=example_covariance(n),
                drift=ZeroDrift(),
                diffusion=AdditiveDiagonalDiffusion(np.ones(n)),
                initial=SpectralCoeffs(np.zeros(n)),
                p=1.0,
            )


def drift_row(model, x):
    """F(x) for one state row, through the block kernel's drift evaluation."""
    rows = x[None, :]
    return solver._drift_rows(
        model, rows, solver.Workspace(), functools.partial(transforms.synthesize, rows)
    )[0]


def diffusion_row(model, x, dw):
    """G(x) dW for one state row, through the block kernel's diffusion evaluation."""
    rows = x[None, :]
    return solver._diffusion_rows(
        model, rows, dw[None, :], solver.Workspace(), functools.partial(transforms.synthesize, rows)
    )[0]


class TestApplyDrift:
    def test_constant_diagonal_multiplier(self):
        n = 8
        model = make_model(n, drift=DiagonalLinearDrift(np.full(n, 2.5)))
        x = np.arange(1.0, 9.0)
        np.testing.assert_allclose(drift_row(model, x), 2.5 * x, rtol=1e-15)

    def test_odd_pointwise_function_fixes_zero(self):
        model = make_model(8, drift=NemytskiiDrift("sin", 32))
        out = drift_row(model, np.zeros(8))
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)

    def test_identity_pointwise_function_is_modewise_identity(self):
        n = 8
        model = make_model(n, drift=NemytskiiDrift("identity", 4 * n))
        x = np.random.default_rng(0).standard_normal(n)
        np.testing.assert_allclose(drift_row(model, x), x, atol=1e-10)


class TestApplyDiffusion:
    def test_unit_additive_passes_increment_through(self):
        model = make_model()
        dw = np.random.default_rng(1).standard_normal(8)
        out = diffusion_row(model, np.ones(8), dw)
        np.testing.assert_array_equal(out, dw)

    def test_zero_increment_maps_to_zero(self):
        model = make_model(8, diffusion=NemytskiiDiffusion("tanh", 32))
        out = diffusion_row(model, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)

    def test_constant_one_multiplier_matches_additive_identity(self):
        n = 8
        model = make_model(n, diffusion=NemytskiiDiffusion("one", 4 * n))
        x = np.random.default_rng(2).standard_normal(n)
        dw = np.random.default_rng(3).standard_normal(n)
        out = diffusion_row(model, x, dw)
        np.testing.assert_allclose(out, dw, atol=1e-10)


class TestValidateAssumptions:
    def test_borderline_model_passes_at_zero_regularity(self):
        report = validate_assumptions(make_model(256, r=0.0))
        assert report.passed

    def test_borderline_model_fails_at_positive_regularity(self):
        report = validate_assumptions(make_model(256, r=0.5))
        assert not report.check("diffusion_growth").passed
        sums = report.check("diffusion_growth").measured["partial_sums"]
        assert sums[2] - sums[1] > sums[1] - sums[0]

    def test_trivial_model_passes(self):
        n = 8
        report = validate_assumptions(
            make_model(n, covariance=CovarianceSpectrum(np.zeros(n)))
        )
        assert report.check("drift_lipschitz").passed
        assert report.check("initial_regularity").passed
        assert report.check("initial_regularity").measured["norm"] == 0.0

    def test_multiplicative_model_reports_measured_constants(self):
        n = 8
        report = validate_assumptions(
            make_model(n, diffusion=NemytskiiDiffusion("tanh", 4 * n))
        )
        assert report.check("diffusion_lipschitz").measured["measured"] > 0.0
        assert report.check("diffusion_growth").measured["measured"] > 0.0

    @pytest.mark.parametrize("name", [entry.name for entry in registered_functions()])
    def test_shipped_diffusions_meet_their_lipschitz_bound(self, name):
        report = validate_assumptions(make_model(32, diffusion=NemytskiiDiffusion(name, 64)))
        assert report.check("diffusion_lipschitz").passed

    def test_understated_lipschitz_constant_fails(self, monkeypatch):
        # cos is 1-Lipschitz; declared at 0.5, the bound 0.5 sqrt(2 sum q) = 0.967
        # falls below the measured ratio of about 1.1
        monkeypatch.setitem(models._REGISTRY, "cos", models.ScalarFunction("cos", np.cos, 0.5))
        model = make_model(64, drift=NemytskiiDrift("tanh", 256),
                           diffusion=NemytskiiDiffusion("cos", 256))
        check = validate_assumptions(model).check("diffusion_lipschitz")
        assert check.measured["constant"] == 0.5
        assert not check.passed

    # G(x)w = w written as a Nemytskii diffusion is the additive identity, so its
    # weighted Hilbert-Schmidt series diverges at r > 0 in either spelling
    def test_constant_nemytskii_diffusion_fails_like_its_additive_spelling(self):
        nemytskii = make_model(256, diffusion=NemytskiiDiffusion("one", 512), r=0.5)
        assert not validate_assumptions(nemytskii).check("diffusion_growth").passed
        assert not validate_assumptions(make_model(256, r=0.5)).check("diffusion_growth").passed

    @pytest.mark.parametrize("name", [entry.name for entry in registered_functions()])
    def test_shipped_diffusions_have_bounded_growth_at_zero_regularity(self, name):
        report = validate_assumptions(make_model(64, diffusion=NemytskiiDiffusion(name, 256)))
        assert report.check("diffusion_growth").passed
