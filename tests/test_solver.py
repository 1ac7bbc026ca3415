"""Integrator tests: stepping identities, determinism, and the exact oracle."""

import math
from functools import partial

import numpy as np
import pytest

from spdelab.models import (
    AdditiveDiagonalDiffusion,
    DiagonalLinearDrift,
    ModelSpec,
    NemytskiiDiffusion,
    NemytskiiDrift,
    ZeroDrift,
)
from spdelab.noise import (
    CovarianceSpectrum,
    NoiseIncrement,
    NoiseStream,
    example_covariance,
    sample_increment,
)
from spdelab.solver import (
    EXACT_GAUSSIAN,
    EXPONENTIAL_EULER,
    SolverConfig,
    _simulate_block,
    ensemble_snapshots,
    exact_ou_path,
    exponential_euler_step,
    map_paths,
    simulate_path,
)
from spdelab.spectrum import SpectralCoeffs, dirichlet_laplacian_1d


def linear_additive_model(n=8, g=1.0, x0=None, covariance=None):
    return ModelSpec(
        operator=dirichlet_laplacian_1d(n),
        covariance=covariance if covariance is not None else example_covariance(n),
        drift=ZeroDrift(),
        diffusion=AdditiveDiagonalDiffusion(np.full(n, g)),
        initial=SpectralCoeffs(x0 if x0 is not None else np.zeros(n)),
    )


def nemytskii_model(n=8):
    return ModelSpec(
        operator=dirichlet_laplacian_1d(n),
        covariance=example_covariance(n),
        drift=NemytskiiDrift("tanh", 4 * n),
        diffusion=NemytskiiDiffusion("cos", 4 * n),
        initial=SpectralCoeffs(np.linspace(1.0, 0.0, n)),
    )


def diagonal_linear_model(n=8):
    return ModelSpec(
        operator=dirichlet_laplacian_1d(n),
        covariance=example_covariance(n),
        drift=DiagonalLinearDrift(np.linspace(-3.0, 3.0, n)),
        diffusion=AdditiveDiagonalDiffusion(np.full(n, 0.5)),
        initial=SpectralCoeffs(np.linspace(1.0, 0.0, n)),
    )


class TestSolverConfig:
    def test_snapshot_times_must_sit_on_the_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(T=1.0, steps=10, paths=1, snapshot_times=(0.05,))

    def test_snapshot_times_must_increase(self):
        with pytest.raises(ValueError):
            SolverConfig(T=1.0, steps=10, paths=1, snapshot_times=(0.2, 0.2))

    def test_default_snapshots_are_endpoints(self):
        config = SolverConfig(T=1.0, steps=4, paths=1)
        assert config.snapshot_times == (0.0, 1.0)
        assert config.h == 0.25


class TestExponentialEulerStep:
    def test_pure_heat_flow_is_exact(self):
        n = 6
        model = linear_additive_model(n, g=0.0)
        x = SpectralCoeffs(np.arange(1.0, 7.0))
        out = exponential_euler_step(model, x, NoiseIncrement(np.zeros(n), 0.1), 0.1)
        np.testing.assert_array_equal(
            out.values, np.exp(-model.operator.eigenvalues * 0.1) * x.values
        )

    def test_noiseless_linear_drift_recurrence(self):
        n = 4
        f = np.array([0.5, -1.0, 2.0, 0.0])
        model = ModelSpec(
            operator=dirichlet_laplacian_1d(n),
            covariance=CovarianceSpectrum(np.zeros(n)),
            drift=DiagonalLinearDrift(f),
            diffusion=AdditiveDiagonalDiffusion(np.ones(n)),
            initial=SpectralCoeffs(np.zeros(n)),
        )
        h = 0.01
        x = np.array([1.0, -2.0, 0.5, 3.0])
        state = SpectralCoeffs(x)
        for _ in range(3):
            state = exponential_euler_step(model, state, NoiseIncrement(np.zeros(n), h), h)
        # independent scalar recurrence oracle
        expected = x.copy()
        for _ in range(3):
            expected = np.exp(-model.operator.eigenvalues * h) * (1.0 - h * f) * expected
        np.testing.assert_allclose(state.values, expected, rtol=1e-13)

    def test_conditional_mean_drops_the_noise_term(self):
        n = 4
        model = ModelSpec(
            operator=dirichlet_laplacian_1d(n),
            covariance=example_covariance(n),
            drift=DiagonalLinearDrift(np.full(n, 0.3)),
            diffusion=AdditiveDiagonalDiffusion(np.ones(n)),
            initial=SpectralCoeffs(np.zeros(n)),
        )
        h = 0.05
        x = SpectralCoeffs(np.array([1.0, 2.0, -1.0, 0.5]))
        # the step is affine in dW, so the conditional mean is the zero-noise step
        mean_step = exponential_euler_step(model, x, NoiseIncrement(np.zeros(n), h), h)
        expected = np.exp(-model.operator.eigenvalues * h) * (1.0 - h * 0.3) * x.values
        np.testing.assert_allclose(mean_step.values, expected, rtol=1e-14)

    @pytest.mark.parametrize(
        "make_model", [linear_additive_model, diagonal_linear_model, nemytskii_model]
    )
    def test_single_steps_reproduce_the_kernel(self, make_model):
        model = make_model(8)
        config = SolverConfig(T=0.05, steps=25, paths=4, master_seed=6)
        stream = NoiseStream(config.master_seed, 3)
        state = model.initial
        for j in range(config.steps):
            dW = sample_increment(model.covariance, config.h, stream, step_index=j)
            state = exponential_euler_step(model, state, dW, config.h)
        np.testing.assert_array_equal(
            state.values, simulate_path(model, config, 3).state_at(0.05).values
        )

    def test_nonpositive_step_rejected(self):
        model = linear_additive_model(2)
        with pytest.raises(ValueError):
            exponential_euler_step(
                model, SpectralCoeffs(np.zeros(2)), NoiseIncrement(np.zeros(2), 0.1), 0.0
            )


class TestSimulatePath:
    def test_degenerate_time_returns_initial_snapshot(self):
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        model = linear_additive_model(4, x0=x0)
        config = SolverConfig(T=0.0, steps=1, paths=1)
        traj = simulate_path(model, config, 0)
        assert traj.times == (0.0,)
        np.testing.assert_array_equal(traj.states[0].values, x0)

    def test_bitwise_deterministic(self):
        model = linear_additive_model()
        config = SolverConfig(T=0.1, steps=20, paths=4, master_seed=9)
        a = simulate_path(model, config, 2)
        b = simulate_path(model, config, 2)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_distinct_paths_differ(self):
        model = linear_additive_model()
        config = SolverConfig(T=0.1, steps=20, paths=4, master_seed=9)
        a = simulate_path(model, config, 0)
        b = simulate_path(model, config, 1)
        assert not np.array_equal(a.states[-1].values, b.states[-1].values)

    def test_modewise_variance_matches_exact_dynamics(self):
        n = 8
        model = linear_additive_model(n)
        config = SolverConfig(
            T=0.05, steps=250, paths=6000, master_seed=31, snapshot_times=(0.05,)
        )
        rows = ensemble_snapshots(model, config)
        lam = model.operator.eigenvalues
        q = model.covariance.variances
        exact = q * -np.expm1(-2.0 * lam * config.T) / (2.0 * lam)
        mc = rows[:, 0, :].var(axis=0)
        se = exact * math.sqrt(2.0 / config.paths)
        # restrict to the modes where h keeps the integrator bias far below 3 SE
        # (lam_k h <= 0.03); the stiff-mode deviation is covered by the
        # bias-aware acceptance check of the integrator oracle
        resolved = lam * config.h <= 0.04
        assert resolved.sum() >= 4
        assert np.all(np.abs(mc[resolved] - exact[resolved]) <= 3.0 * se[resolved] + 1e-15)

    def test_ensemble_is_affine_in_the_initial_state(self):
        n = 6
        x0 = np.linspace(1.0, 2.0, n)
        config = SolverConfig(T=0.05, steps=25, paths=3, master_seed=4)
        base = simulate_path(linear_additive_model(n, x0=np.zeros(n)), config, 1)
        one = simulate_path(linear_additive_model(n, x0=x0), config, 1)
        two = simulate_path(linear_additive_model(n, x0=2.0 * x0), config, 1)
        for s0, s1, s2 in zip(base.states, one.states, two.states):
            np.testing.assert_allclose(
                s2.values - s0.values, 2.0 * (s1.values - s0.values), rtol=1e-12, atol=1e-14
            )

    def test_mean_dynamics_follow_the_heat_flow(self):
        n = 6
        x0 = np.full(n, 2.0)
        model = linear_additive_model(n, x0=x0)
        config = SolverConfig(T=0.02, steps=40, paths=4000, master_seed=12, snapshot_times=(0.02,))
        rows = ensemble_snapshots(model, config)
        lam = model.operator.eigenvalues
        q = model.covariance.variances
        expected = np.exp(-lam * config.T) * x0
        sd = np.sqrt(q * -np.expm1(-2.0 * lam * config.T) / (2.0 * lam))
        se = sd / math.sqrt(config.paths)
        assert np.all(np.abs(rows[:, 0, :].mean(axis=0) - expected) <= 3.0 * se + 1e-12)

    # an overflow warning escaping the solver would raise before the ValueError
    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_names_path_and_step(self):
        # F(x) = -2000 x: mode 1 grows like e^{(2000 - pi^2) t} and overflows
        model = ModelSpec(
            operator=dirichlet_laplacian_1d(2),
            covariance=CovarianceSpectrum(np.zeros(2)),
            drift=DiagonalLinearDrift(np.array([-2000.0, 0.0])),
            diffusion=AdditiveDiagonalDiffusion(np.ones(2)),
            initial=SpectralCoeffs(np.array([1.0, 0.0])),
        )
        config = SolverConfig(T=4.0, steps=400, paths=8)
        # scalar oracle: the noiseless recurrence of mode 1 up to the first step whose
        # drift value F(x) = -2000 x overflows
        x, step = 1.0, 0
        while math.isfinite(x):
            x = math.exp(-math.pi**2 * config.h) * (x - config.h * (x * -2000.0))
            step += 1
        with pytest.raises(ValueError, match=rf"path 5 at step {step} of 400 "):
            _simulate_block(model, config, [5, 6, 7])


class TestExactOUPath:
    def test_zero_covariance_decays_deterministically(self):
        n = 4
        x0 = np.array([1.0, -1.0, 2.0, 0.5])
        model = linear_additive_model(n, x0=x0, covariance=CovarianceSpectrum(np.zeros(n)))
        config = SolverConfig(T=0.5, steps=10, paths=1, snapshot_times=(0.5,))
        traj = exact_ou_path(model, config, 0)
        np.testing.assert_allclose(
            traj.states[0].values,
            np.exp(-model.operator.eigenvalues * 0.5) * x0,
            rtol=1e-12,
        )

    def test_long_time_variance_is_stationary(self):
        n = 4
        model = linear_additive_model(n, g=2.0)
        config = SolverConfig(T=5.0, steps=50, paths=8000, master_seed=3, snapshot_times=(5.0,))
        rows = ensemble_snapshots(model, config, method=EXACT_GAUSSIAN)
        lam = model.operator.eigenvalues
        q = model.covariance.variances
        stationary = 4.0 * q / (2.0 * lam)
        mc = rows[:, 0, :].var(axis=0)
        se = stationary * math.sqrt(2.0 / config.paths)
        assert np.all(np.abs(mc - stationary) <= 3.0 * se + 1e-15)

    def test_rejects_nonlinear_models(self):
        n = 4
        model = ModelSpec(
            operator=dirichlet_laplacian_1d(n),
            covariance=example_covariance(n),
            drift=DiagonalLinearDrift(np.ones(n)),
            diffusion=AdditiveDiagonalDiffusion(np.ones(n)),
            initial=SpectralCoeffs(np.zeros(n)),
        )
        config = SolverConfig(T=0.1, steps=10, paths=1)
        with pytest.raises(ValueError):
            exact_ou_path(model, config, 0)
        model_mult = ModelSpec(
            operator=dirichlet_laplacian_1d(n),
            covariance=example_covariance(n),
            drift=ZeroDrift(),
            diffusion=NemytskiiDiffusion("tanh", 4 * n),
            initial=SpectralCoeffs(np.zeros(n)),
        )
        with pytest.raises(ValueError):
            exact_ou_path(model_mult, config, 0)

    def test_one_step_euler_matches_exact_transition_to_first_order(self):
        lam = np.pi**2 * np.arange(1, 5.0) ** 2
        q = example_covariance(4).variances
        for h in (1e-3, 1e-4):
            euler_var = q * h * np.exp(-2.0 * lam * h)
            exact_var = q * -np.expm1(-2.0 * lam * h) / (2.0 * lam)
            mask = q > 0
            rel = np.abs(euler_var[mask] / exact_var[mask] - 1.0)
            assert np.all(rel <= 2.2 * lam[mask] * h)

    def test_strong_gap_shrinks_with_the_step(self):
        n = 8
        model = linear_additive_model(n)
        T = 0.25
        gaps = []
        for steps in (T and [64, 128, 256])[0:3]:
            config = SolverConfig(T=T, steps=steps, paths=300, master_seed=21, snapshot_times=(T,))
            euler = ensemble_snapshots(model, config, method=EXPONENTIAL_EULER)
            exact = ensemble_snapshots(model, config, method=EXACT_GAUSSIAN)
            gaps.append(float(np.sqrt(np.mean(np.sum((euler - exact) ** 2, axis=2)))))
        assert gaps[0] > gaps[1] > gaps[2]


class TestEnsembleExecution:
    def test_worker_count_does_not_change_results(self):
        model = linear_additive_model(8)
        config = SolverConfig(T=0.05, steps=10, paths=300, master_seed=5, snapshot_times=(0.0, 0.05))
        serial = ensemble_snapshots(model, config, workers=1)
        threaded = ensemble_snapshots(model, config, workers=4)
        np.testing.assert_array_equal(serial, threaded)

    # A single path runs as a 1-row block; in the ensemble, path 133 sits in the
    # 32-row block of paths 128-159. Additive models do only elementwise arithmetic, so the row is
    # bitwise the same; the sine transforms of a Nemytskii model are matrix
    # products that BLAS may round differently for different row counts.
    @pytest.mark.parametrize(
        "make_model, compare",
        [
            (linear_additive_model, np.testing.assert_array_equal),
            (nemytskii_model, partial(np.testing.assert_allclose, rtol=1e-12)),
        ],
        ids=["additive", "nemytskii"],
    )
    def test_single_path_matches_its_ensemble_row(self, make_model, compare):
        model = make_model(8)
        config = SolverConfig(T=0.05, steps=10, paths=160, master_seed=5, snapshot_times=(0.05,))
        rows = ensemble_snapshots(model, config)
        traj = simulate_path(model, config, 133)
        compare(traj.states[0].values, rows[133, 0, :])

    def test_map_paths_preserves_path_order(self):
        model = linear_additive_model(4)
        config = SolverConfig(T=0.02, steps=4, paths=70, master_seed=1, snapshot_times=(0.02,))
        firsts = map_paths(model, config, lambda rows: rows[:, 0, 1], block_size=16)
        rows = ensemble_snapshots(model, config)
        np.testing.assert_array_equal(firsts, rows[:, 0, 1])
