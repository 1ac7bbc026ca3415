"""Model specification tests: function table, drift/diffusion evaluation, assumptions."""

import functools

import numpy as np
import pytest

from spdelab import solver, transforms
from spdelab.models import (
    SCALAR_FUNCTIONS,
    Diagonal,
    ModelError,
    Nemytskii,
    ScalarFunction,
    validate_assumptions,
)
from spdelab.noise import example_covariance

from oracles import make_model


def understated_constants(table):
    """Names in `table` whose function is not finite on 8001 points of [-20, 20],
    or whose largest slope between them exceeds the declared constant."""
    grid = np.linspace(-20.0, 20.0, 8001)
    failed = []
    for name, entry in table.items():
        values = np.asarray(entry.fn(grid), dtype=float)
        if values.shape != grid.shape or not np.all(np.isfinite(values)):
            failed.append(name)
        elif np.max(np.abs(np.diff(values) / np.diff(grid))) > entry.lipschitz * (1.0 + 1e-6):
            failed.append(name)
    return failed


class TestRegistry:
    def test_known_functions_present(self):
        assert list(SCALAR_FUNCTIONS) == sorted(SCALAR_FUNCTIONS)
        for required in ("identity", "sin", "tanh"):
            assert required in SCALAR_FUNCTIONS

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="unknown scalar function 'not-a-function'"):
            make_model(8, diffusion=Nemytskii("not-a-function", 32))

    # the check every table entry must pass rejects a function steeper than its
    # constant, one with non-finite values, and one that does not map arrays
    def test_registration_verifies_lipschitz_constant(self):
        table = {
            "too-steep": ScalarFunction(lambda u: 3.0 * u, 1.0),
            "not-finite": ScalarFunction(lambda u: np.where(u > 19.0, np.inf, 0.0), 1e300),
            "scalar": ScalarFunction(lambda u: 0.0, 0.0),
            "tanh": SCALAR_FUNCTIONS["tanh"],
        }
        assert understated_constants(table) == ["too-steep", "not-finite", "scalar"]

    def test_declared_constants_hold_on_dense_grid(self):
        assert understated_constants(SCALAR_FUNCTIONS) == []


class TestModelValidation:
    def test_additive_allows_unit_regularity(self):
        n = 4
        make_model(
            n,
            covariance=np.zeros(n),
            r=1.0,
        )

    def test_multiplicative_rejects_unit_regularity(self):
        n = 4
        with pytest.raises(ValueError):
            make_model(n, diffusion=Nemytskii("tanh", 4 * n), r=1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_model(4, covariance=example_covariance(5))

    def test_small_nemytskii_grid_rejected(self):
        with pytest.raises(ValueError):
            make_model(8, drift=Nemytskii("sin", 10))

    def test_moment_order_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            make_model(4, p=1.0)

    # NaN passes a plain p < 2 test, and an infinite p has no finite moment
    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_moment_order_must_be_finite(self, p):
        with pytest.raises(ModelError, match="moment order p must be finite") as info:
            make_model(4, p=p)
        assert info.value.field == "p"

    # NaN fails every comparison, so the range checks reject it as they reject inf
    @pytest.mark.parametrize("diffusion, allowed", [
        (None, r"additive models allow r in \[0, 1\]"),
        (Nemytskii("cos", 8), r"multiplicative models require r in \[0, 1\)"),
    ], ids=["additive", "multiplicative"])
    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_smoothness_r_must_be_finite(self, diffusion, allowed, r):
        with pytest.raises(ModelError, match=f"^{allowed}, got {r}$") as info:
            make_model(4, diffusion=diffusion, r=r)
        assert info.value.field == "r"

    # X_0 must lie in H^{1+r}: a non-finite coefficient gives a non-finite norm
    def test_initial_state_must_be_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ModelError, match="finite smoothness norm") as info:
                make_model(4, initial=np.array([1.0, bad, 0.0, 0.0]))
            assert info.value.field == "initial"

    @pytest.mark.parametrize(
        "initial, message",
        [(np.zeros((2, 2)), r"initial state has shape \(2, 2\), expected \(4,\)"),
         (np.zeros(3), r"initial state has shape \(3,\), expected \(4,\)"),
         (np.zeros(5), r"initial state has shape \(5,\), expected \(4,\)")],
        ids=["2-d", "short", "long"],
    )
    def test_initial_state_must_be_one_row_of_n_modes(self, initial, message):
        with pytest.raises(ModelError, match=message) as info:
            make_model(4, initial=initial)
        assert info.value.field == "initial"

    def test_initial_state_is_a_read_only_copy(self):
        x0 = np.array([1.0, 2.0, 0.0, 0.0])
        model = make_model(4, initial=x0)
        np.testing.assert_array_equal(model.initial, x0)
        with pytest.raises(ValueError, match="read-only"):
            model.initial[0] = 5.0
        x0[0] = 7.0  # the caller's array stays writable and does not alias the model's
        assert model.initial[0] == 1.0

    @pytest.mark.parametrize(
        "covariance, message",
        [(np.ones((2, 2)), r"covariance has shape \(2, 2\), expected \(4,\)"),
         (np.ones(3), r"covariance has shape \(3,\), expected \(4,\)"),
         (np.ones(5), r"covariance has shape \(5,\), expected \(4,\)")],
        ids=["2-d", "short", "long"],
    )
    def test_covariance_must_be_one_row_of_n_modes(self, covariance, message):
        with pytest.raises(ModelError, match=message) as info:
            make_model(4, covariance=covariance)
        assert info.value.field == "covariance"

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_covariance_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ModelError, match="variances must be finite and nonnegative") as info:
            make_model(4, covariance=np.array([1.0, bad, 0.0, 1.0]))
        assert info.value.field == "covariance"

    def test_covariance_is_a_read_only_copy(self):
        q = np.array([0.0, 1.0, 0.5, 0.25])
        model = make_model(4, covariance=q)
        np.testing.assert_array_equal(model.covariance, q)
        with pytest.raises(ValueError, match="read-only"):
            model.covariance[0] = 5.0
        q[0] = 7.0  # the caller's array stays writable and does not alias the model's
        assert model.covariance[0] == 0.0

    @pytest.mark.parametrize("role", ["drift", "diffusion"])
    @pytest.mark.parametrize("count", [3, 5])
    def test_diagonal_multiplier_count_must_match_the_operator(self, role, count):
        with pytest.raises(ModelError, match=f"^diagonal {role} multiplier count must match "
                           "the operator$") as info:
            make_model(4, **{role: Diagonal(np.ones(count))})
        assert info.value.field == f"{role}.multipliers"

    @pytest.mark.parametrize("role", ["drift", "diffusion"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_diagonal_multipliers_must_be_finite(self, role, bad):
        spec = Diagonal(np.array([1.0, bad, 1.0, 1.0]))
        with pytest.raises(ModelError, match=f"diagonal {role} multipliers must be finite") as info:
            make_model(4, **{role: spec})
        assert info.value.field == f"{role}.multipliers"


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
        model = make_model(n, drift=Diagonal(np.full(n, 2.5)))
        x = np.arange(1.0, 9.0)
        np.testing.assert_allclose(drift_row(model, x), 2.5 * x, rtol=1e-15)

    def test_odd_pointwise_function_fixes_zero(self):
        model = make_model(8, drift=Nemytskii("sin", 32))
        out = drift_row(model, np.zeros(8))
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)

    def test_identity_pointwise_function_is_modewise_identity(self):
        n = 8
        model = make_model(n, drift=Nemytskii("identity", 4 * n))
        x = np.random.default_rng(0).standard_normal(n)
        np.testing.assert_allclose(drift_row(model, x), x, atol=1e-10)


class TestApplyDiffusion:
    def test_unit_additive_passes_increment_through(self):
        model = make_model()
        dw = np.random.default_rng(1).standard_normal(8)
        out = diffusion_row(model, np.ones(8), dw)
        np.testing.assert_array_equal(out, dw)

    def test_zero_increment_maps_to_zero(self):
        model = make_model(8, diffusion=Nemytskii("tanh", 32))
        out = diffusion_row(model, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-14)

    def test_constant_one_multiplier_matches_additive_identity(self):
        n = 8
        model = make_model(n, diffusion=Nemytskii("one", 4 * n))
        x = np.random.default_rng(2).standard_normal(n)
        dw = np.random.default_rng(3).standard_normal(n)
        out = diffusion_row(model, x, dw)
        np.testing.assert_allclose(out, dw, atol=1e-10)


def checks_of(model):
    """The assumption checks of `model` by name, after asserting their order."""
    checks = validate_assumptions(model)
    assert [c.name for c in checks] == [
        "drift_lipschitz", "diffusion_lipschitz", "diffusion_growth", "initial_regularity"
    ]
    return {c.name: c for c in checks}


class TestValidateAssumptions:
    def test_borderline_model_passes_at_zero_regularity(self):
        assert all(c.passed for c in checks_of(make_model(256, r=0.0)).values())

    def test_borderline_model_fails_at_positive_regularity(self):
        growth = checks_of(make_model(256, r=0.5))["diffusion_growth"]
        assert not growth.passed
        sums = growth.measured["partial_sums"]
        assert sums[2] - sums[1] > sums[1] - sums[0]

    # an additive model draws nothing, and is refused all the same
    @pytest.mark.parametrize("diffusion", [None, Nemytskii("cos", 16)])
    def test_negative_seed_rejected(self, diffusion):
        with pytest.raises(ModelError, match=r"^seed must be >= 0, got -1$") as info:
            validate_assumptions(make_model(diffusion=diffusion), probe_seed=-1)
        assert info.value.field == "probe_seed"

    def test_trivial_model_passes(self):
        n = 8
        checks = checks_of(make_model(n, covariance=np.zeros(n)))
        assert checks["drift_lipschitz"].passed
        assert checks["initial_regularity"].passed
        assert checks["initial_regularity"].measured["norm"] == 0.0

    # one Diagonal instance is F(x) = m x as the drift and the state-independent
    # G(x) w = m w as the diffusion
    def test_one_diagonal_spec_takes_its_constant_from_its_role(self):
        n = 8
        diagonal = Diagonal(np.linspace(-3.0, 2.0, n))
        checks = checks_of(make_model(n, drift=diagonal, diffusion=diagonal))
        assert checks["drift_lipschitz"].measured == {"constant": 3.0}
        assert checks["diffusion_lipschitz"].measured == {"constant": 0.0}

    def test_multiplicative_model_reports_measured_constants(self):
        n = 8
        checks = checks_of(make_model(n, diffusion=Nemytskii("tanh", 4 * n)))
        assert checks["diffusion_lipschitz"].measured["measured"] > 0.0
        assert checks["diffusion_growth"].measured["measured"] > 0.0

    @pytest.mark.parametrize("name", list(SCALAR_FUNCTIONS))
    def test_shipped_diffusions_meet_their_lipschitz_bound(self, name):
        checks = checks_of(make_model(32, diffusion=Nemytskii(name, 64)))
        assert checks["diffusion_lipschitz"].passed

    def test_understated_lipschitz_constant_fails(self, monkeypatch):
        # cos is 1-Lipschitz; declared at 0.5, the bound 0.5 sqrt(2 sum q) = 0.967
        # falls below the measured ratio of about 1.1
        monkeypatch.setitem(SCALAR_FUNCTIONS, "cos", ScalarFunction(np.cos, 0.5))
        model = make_model(64, drift=Nemytskii("tanh", 256), diffusion=Nemytskii("cos", 256))
        check = checks_of(model)["diffusion_lipschitz"]
        assert check.measured["constant"] == 0.5
        assert not check.passed

    # G(x)w = w written as a Nemytskii diffusion is the additive identity, so its
    # weighted Hilbert-Schmidt series diverges at r > 0 in either spelling
    def test_constant_nemytskii_diffusion_fails_like_its_additive_spelling(self):
        nemytskii = make_model(256, diffusion=Nemytskii("one", 512), r=0.5)
        assert not checks_of(nemytskii)["diffusion_growth"].passed
        assert not checks_of(make_model(256, r=0.5))["diffusion_growth"].passed

    @pytest.mark.parametrize("name", list(SCALAR_FUNCTIONS))
    def test_shipped_diffusions_have_bounded_growth_at_zero_regularity(self, name):
        checks = checks_of(make_model(64, diffusion=Nemytskii(name, 256)))
        assert checks["diffusion_growth"].passed
