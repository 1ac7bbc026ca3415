"""Integrator tests: stepping identities, determinism, and the exact oracle."""

import dataclasses
import math
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdelab import models, solver, transforms
from spdelab.models import Diagonal, ModelError, Nemytskii
from spdelab.noise import NoiseStream, example_covariance
from spdelab.probes import truncate_model
from spdelab.solver import (
    EXACT_GAUSSIAN,
    EXPONENTIAL_EULER,
    SolverConfig,
    Workspace,
    _euler_rows,
    _simulate_block,
    map_paths,
)

from oracles import (
    GaussianLaw,
    euler_gap_variance,
    kernel_normals,
    linear_additive_model,
    make_model,
)


def identity(rows):
    """The reduction that keeps every snapshot, so map_paths returns them all."""
    return rows


def nemytskii_model(n=8):
    return make_model(n, Nemytskii("tanh", 4 * n), Nemytskii("cos", 4 * n),
                      initial=np.linspace(1.0, 0.0, n))


def diagonal_linear_model(n=8):
    return make_model(n, Diagonal(np.linspace(-3.0, 3.0, n)), Diagonal(np.full(n, 0.5)),
                      initial=np.linspace(1.0, 0.0, n))


class TestSolverConfig:
    # NaN passes a plain T < 0 test, and T = inf makes h and every grid index inf
    @pytest.mark.parametrize("t_final", [np.inf, np.nan])
    def test_non_finite_final_time_rejected(self, t_final):
        with pytest.raises(ModelError, match="final time T must be finite") as info:
            SolverConfig(T=t_final, steps=10, paths=1)
        assert info.value.field == "T"

    # numpy's SeedSequence would refuse it at the first path, naming nothing
    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError, match=r"^seed must be >= 0, got -1$") as info:
            SolverConfig(T=1.0, steps=10, paths=1, master_seed=-1)
        assert info.value.field == "master_seed"

    def test_snapshot_times_must_sit_on_the_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(T=1.0, steps=10, paths=1, snapshot_times=(0.05,))

    def test_snapshot_times_must_increase(self):
        with pytest.raises(ValueError):
            SolverConfig(T=1.0, steps=10, paths=1, snapshot_times=(0.2, 0.2))

    # two times on one grid step would leave one row of the snapshot buffer unset
    def test_snapshot_times_on_one_grid_step_rejected(self):
        with pytest.raises(ModelError, match=r"^snapshot times 0.3 and 0.3000000000001 fall on "
                           r"grid steps 3 and 3, which must increase \(h = 0.1\)$") as info:
            SolverConfig(T=1.0, steps=10, paths=1, snapshot_times=(0.3, 0.3000000000001))
        assert info.value.field == "snapshot_times"

    # on T = 0 the grid is the one time 0
    def test_degenerate_grid_holds_only_time_zero(self):
        config = SolverConfig(T=0.0, steps=3, paths=1)
        assert config.step_of(0.0) == 0
        with pytest.raises(ValueError, match=r"^time 0.1 outside the degenerate grid \{0\}$"):
            config.step_of(0.1)
        with pytest.raises(ModelError, match="degenerate grid") as info:
            SolverConfig(T=0.0, steps=3, paths=1, snapshot_times=(0.0, 0.1))
        assert info.value.field == "snapshot_times"

    def test_default_snapshots_are_endpoints(self):
        config = SolverConfig(T=1.0, steps=4, paths=1)
        assert config.snapshot_times == (0.0, 1.0)
        assert config.snapshot_steps == (0, 4)
        assert config.h == 0.25
        assert config.method == EXPONENTIAL_EULER

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match=r"unknown method 'bogus', expected one of \("):
            SolverConfig(T=1.0, steps=4, paths=1, method="bogus")

    # a time past T is not reported as merely off the grid
    def test_times_outside_the_horizon_are_named_as_such(self):
        config = SolverConfig(T=0.01, steps=10, paths=1)
        for t in (0.013, 0.011, -0.001):
            with pytest.raises(ValueError, match=r"outside \[0, T\] = \[0, 0\.01\]"):
                config.step_of(t)
        with pytest.raises(ValueError, match="not a grid point"):
            config.step_of(0.0055)
        assert config.step_of(0.01) == 10 and config.step_of(0.0) == 0


def euler_step(model, x, dW, h):
    """One step of the kernel's row update on a single (1, modes) row."""
    state = np.array(x, dtype=float)[None, :]
    decay = np.exp(-model.operator.eigenvalues * h)
    _euler_rows(model, decay, h, state, np.array(dW, dtype=float)[None, :], Workspace())
    return state[0]


class TestExponentialEulerStep:
    def test_pure_heat_flow_is_exact(self):
        n = 6
        model = linear_additive_model(n, g=0.0)
        x = np.arange(1.0, 7.0)
        out = euler_step(model, x, np.zeros(n), 0.1)
        np.testing.assert_array_equal(out, np.exp(-model.operator.eigenvalues * 0.1) * x)

    def test_noiseless_linear_drift_recurrence(self):
        n = 4
        f = np.array([0.5, -1.0, 2.0, 0.0])
        model = make_model(n, drift=Diagonal(f), covariance=np.zeros(n))
        h = 0.01
        x = np.array([1.0, -2.0, 0.5, 3.0])
        state = x
        for _ in range(3):
            state = euler_step(model, state, np.zeros(n), h)
        # independent scalar recurrence oracle
        expected = x.copy()
        for _ in range(3):
            expected = np.exp(-model.operator.eigenvalues * h) * (1.0 - h * f) * expected
        np.testing.assert_allclose(state, expected, rtol=1e-13)

    def test_conditional_mean_drops_the_noise_term(self):
        n = 4
        model = make_model(n, drift=Diagonal(np.full(n, 0.3)))
        h = 0.05
        x = np.array([1.0, 2.0, -1.0, 0.5])
        # the step is affine in dW, so the conditional mean is the zero-noise step
        mean_step = euler_step(model, x, np.zeros(n), h)
        expected = np.exp(-model.operator.eigenvalues * h) * (1.0 - h * 0.3) * x
        np.testing.assert_allclose(mean_step, expected, rtol=1e-14)

    # a zero drift is never evaluated: x - h * 0 is x, bitwise
    def test_zero_drift_is_skipped(self, monkeypatch):
        def no_drift(*args):
            raise AssertionError("the step evaluated a zero drift")

        monkeypatch.setattr(solver, "_drift_rows", no_drift)
        n, h = 8, 0.01
        model = linear_additive_model(n, g=0.5)
        x, dw = np.arange(1.0, 9.0), np.linspace(-1.0, 1.0, n)
        np.testing.assert_array_equal(
            euler_step(model, x, dw, h), np.exp(-model.operator.eigenvalues * h) * (x + dw * 0.5)
        )

    # the scheme never sees h <= 0: SolverConfig rejects a negative horizon and
    # zero steps, and at T = 0 the kernel returns the initial state unstepped
    def test_nonpositive_step_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="final time must be >= 0"):
            SolverConfig(T=-0.1, steps=10, paths=1)
        with pytest.raises(ValueError, match="at least one step"):
            SolverConfig(T=0.1, steps=0, paths=1)

        def no_step(*args):
            raise AssertionError("the kernel stepped with h = 0")

        monkeypatch.setattr(solver, "_euler_rows", no_step)
        model = linear_additive_model(2, x0=np.array([1.0, 2.0]))
        rows = _simulate_block(model, SolverConfig(T=0.0, steps=5, paths=1), [0])[0]
        np.testing.assert_array_equal(rows, [[1.0, 2.0]])


class TestSimulatePath:
    def test_degenerate_time_returns_initial_snapshot(self):
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        model = linear_additive_model(4, x0=x0)
        config = SolverConfig(T=0.0, steps=1, paths=1)
        rows = _simulate_block(model, config, [0])[0]
        assert config.snapshot_times == (0.0,) and rows.shape == (1, 4)
        np.testing.assert_array_equal(rows[0], x0)

    def test_bitwise_deterministic(self):
        model = linear_additive_model()
        config = SolverConfig(T=0.1, steps=20, paths=4, master_seed=9)
        a = _simulate_block(model, config, [2])[0]
        b = _simulate_block(model, config, [2])[0]
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        model = linear_additive_model()
        config = SolverConfig(T=0.1, steps=20, paths=4, master_seed=9)
        a = _simulate_block(model, config, [0])[0]
        b = _simulate_block(model, config, [1])[0]
        assert not np.array_equal(a[-1], b[-1])

    def test_modewise_variance_matches_exact_dynamics(self):
        n = 8
        model = linear_additive_model(n)
        config = SolverConfig(
            T=0.05, steps=250, paths=6000, master_seed=31, snapshot_times=(0.05,)
        )
        rows = map_paths(model, config, identity)
        lam = model.operator.eigenvalues
        exact = GaussianLaw.exact(model).variance(config.T)
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
        base = _simulate_block(linear_additive_model(n, x0=np.zeros(n)), config, [1])[0]
        one = _simulate_block(linear_additive_model(n, x0=x0), config, [1])[0]
        two = _simulate_block(linear_additive_model(n, x0=2.0 * x0), config, [1])[0]
        np.testing.assert_allclose(two - base, 2.0 * (one - base), rtol=1e-12, atol=1e-14)

    def test_mean_dynamics_follow_the_heat_flow(self):
        n = 6
        x0 = np.full(n, 2.0)
        model = linear_additive_model(n, x0=x0)
        config = SolverConfig(T=0.02, steps=40, paths=4000, master_seed=12, snapshot_times=(0.02,))
        rows = map_paths(model, config, identity)
        law = GaussianLaw.exact(model)
        expected = law.mean(config.T)
        se = np.sqrt(law.variance(config.T)) / math.sqrt(config.paths)
        assert np.all(np.abs(rows[:, 0, :].mean(axis=0) - expected) <= 3.0 * se + 1e-12)

    # With no drift the step is x_{j+1} = E(h)(x_j + G(x_j) dW_j), and G(x_j) dW_j
    # has mean zero because it is linear in dW_j, which is independent of x_j.  So
    # the mean is exactly E(h)^j x0 for any G, here a state-dependent cos diffusion.
    def test_nemytskii_mean_follows_the_heat_flow(self):
        n = 8
        x0 = np.linspace(1.0, 0.2, n)
        model = make_model(n, diffusion=Nemytskii("cos", 32), initial=x0,
                           covariance=400.0 * example_covariance(n))
        config = SolverConfig(T=0.02, steps=40, paths=2000, master_seed=5,
                              snapshot_times=(0.01, 0.02))
        rows = map_paths(model, config, identity)
        times = np.array(config.snapshot_times)[:, None]
        expected = np.exp(-model.operator.eigenvalues * times) * x0
        se = rows.std(axis=0, ddof=1) / math.sqrt(config.paths)
        assert np.all(np.abs(rows.mean(axis=0) - expected) <= 4.0 * se)

    # an overflow warning escaping the solver would raise before the ValueError
    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_names_path_and_step(self):
        # F(x) = -2000 x: mode 1 grows like e^{(2000 - pi^2) t} and overflows
        model = make_model(2, drift=Diagonal(np.array([-2000.0, 0.0])),
                           initial=np.array([1.0, 0.0]), covariance=np.zeros(2))
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
        model = linear_additive_model(n, x0=x0, covariance=np.zeros(n))
        config = SolverConfig(T=0.5, steps=10, paths=1, snapshot_times=(0.5,),
                              method=EXACT_GAUSSIAN)
        rows = _simulate_block(model, config, [0])[0]
        np.testing.assert_allclose(
            rows[0],
            np.exp(-model.operator.eigenvalues * 0.5) * x0,
            rtol=1e-12,
        )

    def test_long_time_variance_is_stationary(self):
        n = 4
        model = linear_additive_model(n, g=2.0)
        config = SolverConfig(T=5.0, steps=50, paths=8000, master_seed=3, snapshot_times=(5.0,),
                              method=EXACT_GAUSSIAN)
        rows = map_paths(model, config, identity)
        stationary = GaussianLaw.exact(model).stationary_variance()
        mc = rows[:, 0, :].var(axis=0)
        se = stationary * math.sqrt(2.0 / config.paths)
        assert np.all(np.abs(mc - stationary) <= 3.0 * se + 1e-15)

    def test_rejects_nonlinear_models(self):
        n = 4
        model = make_model(n, drift=Diagonal(np.ones(n)))
        config = SolverConfig(T=0.1, steps=10, paths=1, method=EXACT_GAUSSIAN)
        with pytest.raises(ValueError):
            map_paths(model, config, identity)
        # any drift spec, even one that multiplies by zero, is not "no drift"
        zero_diagonal = dataclasses.replace(model, drift=Diagonal(np.zeros(n)))
        with pytest.raises(ValueError, match="requires zero drift"):
            map_paths(zero_diagonal, config, identity)
        model_mult = make_model(n, diffusion=Nemytskii("tanh", 4 * n))
        with pytest.raises(ValueError):
            map_paths(model_mult, config, identity)

    # map_paths checks the model before its first block, so the exact method
    # rejects an unsupported model at every final time, with no block run
    @pytest.mark.parametrize("T", [0.0, 0.1])
    def test_rejects_multiplicative_noise_at_any_final_time(self, T, monkeypatch):
        n = 4
        model = make_model(n, diffusion=Nemytskii("tanh", 4 * n))
        config = SolverConfig(T=T, steps=1, paths=3)
        exact = dataclasses.replace(config, method=EXACT_GAUSSIAN)

        def no_block(*args):
            raise AssertionError("a block ran")

        with monkeypatch.context() as patched:
            patched.setattr(solver, "_simulate_block", no_block)
            with pytest.raises(ModelError, match="additive diagonal diffusion") as info:
                map_paths(model, exact, identity)
        assert info.value.field == "method"
        # the Euler scheme handles the model, and at T = 0 returns the initial state
        assert map_paths(model, config, identity).shape == (3, 1 if T == 0.0 else 2, n)

    def test_one_step_euler_matches_exact_transition_to_first_order(self):
        model = linear_additive_model(4)
        lam, q = model.operator.eigenvalues, model.covariance
        for h in (1e-3, 1e-4):
            euler_var = GaussianLaw.euler(model, h).variance(h)
            exact_var = GaussianLaw.exact(model).variance(h)
            mask = q > 0
            rel = np.abs(euler_var[mask] / exact_var[mask] - 1.0)
            assert np.all(rel <= 2.2 * lam[mask] * h)

    # With zero drift and additive noise both steppers are linear recursions in the
    # shared normals, so their gap is a centred Gaussian whose variance
    # `euler_gap_variance` gives
    def test_pathwise_gap_matches_its_closed_form(self):
        n = 8
        model = linear_additive_model(n)
        config = SolverConfig(T=0.2, steps=20, paths=4000, master_seed=17, snapshot_times=(0.2,))
        euler = map_paths(model, config, identity)
        exact = map_paths(model, dataclasses.replace(config, method=EXACT_GAUSSIAN), identity)
        mc = np.mean((euler[:, 0, :] - exact[:, 0, :]) ** 2, axis=0)
        closed = euler_gap_variance(model, config.h, config.T)
        assert mc[0] == closed[0] == 0.0  # q_1 = 0: both steppers leave mode 1 at rest
        # mean square of a centred Gaussian: relative standard error sqrt(2 / paths)
        se = closed[1:] * math.sqrt(2.0 / config.paths)
        assert np.all(np.abs(mc[1:] - closed[1:]) <= 3.0 * se)

    def test_strong_gap_shrinks_with_the_step(self):
        n = 8
        model = linear_additive_model(n)
        T = 0.25
        gaps = []
        for steps in [64, 128, 256]:
            config = SolverConfig(T=T, steps=steps, paths=300, master_seed=21, snapshot_times=(T,))
            euler = map_paths(model, config, identity)
            exact = map_paths(model, dataclasses.replace(config, method=EXACT_GAUSSIAN), identity)
            gaps.append(float(np.sqrt(np.mean(np.sum((euler - exact) ** 2, axis=2)))))
        assert gaps[0] > gaps[1] > gaps[2]

    # Per mode the gap's mean square is (q/lam) F(lam h) (1 - e^{-2 lam T}) with
    # F(x) = (e^{-x} sqrt(x) - sqrt((1 - e^{-2x}) / 2))^2 / (1 - e^{-2x}), which rises
    # in x.  For lam_N h <= 1 halving h divides it by 3.4 or more, while 200 paths
    # estimate it to about 10%, so the sampled gap must shrink at every doubling.
    @given(
        n=st.integers(min_value=2, max_value=8),
        T=st.floats(min_value=0.01, max_value=0.1),
        extra_steps=st.integers(min_value=0, max_value=32),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_strong_gap_shrinks_when_the_steps_double(self, n, T, extra_steps, seed):
        model = linear_additive_model(n)
        steps = math.ceil(model.operator.eigenvalues[-1] * T) + extra_steps  # lam_N h <= 1
        closed, sampled = [], []
        for count in (steps, 2 * steps):
            config = SolverConfig(T=T, steps=count, paths=200, master_seed=seed,
                                  snapshot_times=(T,))
            closed.append(float(np.sum(euler_gap_variance(model, config.h, T))))
            euler = map_paths(model, config, identity)
            exact = map_paths(model, dataclasses.replace(config, method=EXACT_GAUSSIAN), identity)
            sampled.append(float(np.mean(np.sum((euler - exact) ** 2, axis=2))))
        assert closed[1] * 3.4 < closed[0]
        assert sampled[1] < sampled[0]


class TestStrongSelfConvergence:
    def test_multiplicative_kernel_converges_at_rate_one_half(self):
        """RMS error of the Euler kernel against itself on one Brownian path.

        Model: tanh drift and cos diffusion on a 64-point grid, 400 times the
        example covariance, N = 32, x0 = 0, T = 0.05, 400 paths.  Level l
        steps with h_l = 2^l h_0, h_0 = T / 2048, and feeds `_euler_rows` the
        sum of 2^l consecutive fine normals divided by sqrt(2^l), so every
        level follows the same Brownian path.  The RMS H-error at T of levels
        1..6 against level 0 is fitted against h on a log-log scale, and the
        slope must lie within 0.15 of 1/2, the strong Euler-Maruyama rate of a
        state-dependent diffusion at fixed N.  This checks the
        frozen-integrand update and its noise coupling, not the paper's
        spatial claim, and it cannot see a G that is wrong the same way on
        every level.
        """
        n, grid, T, paths, levels, fine_steps = 32, 64, 0.05, 400, 6, 2048
        model = make_model(n, Nemytskii("tanh", grid), Nemytskii("cos", grid),
                           covariance=400.0 * example_covariance(n))
        lam, q = model.operator.eigenvalues, model.covariance
        hs = [T / fine_steps * 2**level for level in range(levels + 1)]
        states = [np.zeros((paths, n)) for _ in hs]
        works = [Workspace() for _ in hs]
        rng = np.random.default_rng(1)
        chunk = 2**levels  # fine steps per step of the coarsest level
        for _ in range(fine_steps // chunk):
            z = rng.standard_normal((chunk, paths, n))
            for level, (h, state, work) in enumerate(zip(hs, states, works)):
                k = 2**level
                coarse = z.reshape(chunk // k, k, paths, n).sum(axis=1) / math.sqrt(k)
                for normals in coarse:
                    _euler_rows(model, np.exp(-lam * h), h, state, normals * np.sqrt(q * h), work)
        errors = [math.sqrt(np.mean(np.sum((x - states[0]) ** 2, axis=1))) for x in states[1:]]
        slope = np.polyfit(np.log(hs[1:]), np.log(errors), 1)[0]
        assert abs(slope - 0.5) <= 0.15, (slope, errors)


class TestNoiseDraws:
    # the block draws each path's normals straight into its row of one buffer;
    # a copy from a fresh array per draw would bring back an allocation per path-step
    def test_block_draws_into_rows_of_one_buffer(self, monkeypatch):
        calls = []
        original = NoiseStream.step_normals

        def spy(self, step_index, count, out=None):
            calls.append((step_index, count, out))
            return original(self, step_index, count, out)

        monkeypatch.setattr(NoiseStream, "step_normals", spy)
        n, paths, steps = 6, 5, 4
        config = SolverConfig(T=0.04, steps=steps, paths=paths, master_seed=3)
        _simulate_block(linear_additive_model(n), config, range(paths))
        assert [(j, count) for j, count, _ in calls] == [
            (j, n) for j in range(steps) for _ in range(paths)
        ]
        rows = [out for _, _, out in calls]
        assert all(row is not None and row.shape == (n,) for row in rows)
        buffer = rows[0].base
        assert buffer is not None and buffer.shape == (paths, n)
        assert all(row.base is buffer for row in rows)
        # path b fills row b at every step
        offsets = [row.ctypes.data - buffer.ctypes.data for row in rows]
        assert offsets == [b * n * 8 for _ in range(steps) for b in range(paths)]


class TestEnsembleExecution:
    def test_worker_count_does_not_change_results(self):
        model = linear_additive_model(8)
        config = SolverConfig(T=0.05, steps=10, paths=300, master_seed=5, snapshot_times=(0.0, 0.05))
        serial = map_paths(model, config, identity, workers=1)
        ignored = map_paths(model, config, identity, workers=4)
        np.testing.assert_array_equal(serial, ignored)

    # A single path runs as a 1-row block; in the ensemble, path 133 sits in the
    # 32-row block of paths 128-159. Additive models do only elementwise arithmetic, so the row is
    # bitwise the same; the sine transforms of a Nemytskii model are matrix
    # products that BLAS may round differently for different row counts.
    @pytest.mark.parametrize(
        "build, compare",
        [
            (linear_additive_model, np.testing.assert_array_equal),
            (nemytskii_model, partial(np.testing.assert_allclose, rtol=1e-12)),
        ],
        ids=["additive", "nemytskii"],
    )
    def test_single_path_matches_its_ensemble_row(self, build, compare):
        model = build(8)
        config = SolverConfig(T=0.05, steps=10, paths=160, master_seed=5, snapshot_times=(0.05,))
        rows = map_paths(model, config, identity)
        compare(_simulate_block(model, config, [133])[0, 0], rows[133, 0, :])

    def test_map_paths_preserves_path_order(self):
        model = linear_additive_model(4)
        config = SolverConfig(T=0.02, steps=4, paths=70, master_seed=1, snapshot_times=(0.02,))
        firsts = map_paths(model, config, lambda rows: rows[:, 0, 1], block_size=16)
        rows = map_paths(model, config, identity)
        np.testing.assert_array_equal(firsts, rows[:, 0, 1])

    # Decoupled models (zero or diagonal linear drift, additive diagonal noise)
    # update each mode on its own, and the draws are prefix-stable, so a run
    # on the leading n modes is the first n columns of the full run, bitwise.
    # spatial_sweep relies on this to serve a whole sweep from one run.
    @given(
        data=st.data(),
        n_full=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        method=st.sampled_from([EXPONENTIAL_EULER, EXACT_GAUSSIAN]),
    )
    @settings(max_examples=40, deadline=None)
    def test_truncated_run_is_a_prefix_of_the_full_run(self, data, n_full, seed, method):
        n = data.draw(st.integers(min_value=1, max_value=n_full), label="n")
        if method == EXACT_GAUSSIAN:
            model = linear_additive_model(n_full, g=0.7, x0=np.linspace(1.0, 0.0, n_full))
        else:
            model = data.draw(
                st.sampled_from([linear_additive_model, diagonal_linear_model]), label="model"
            )(n_full)
        config = SolverConfig(T=0.02, steps=4, paths=3, master_seed=seed,
                              snapshot_times=(0.0, 0.01, 0.02), method=method)

        full = map_paths(model, config, identity)
        truncated = map_paths(truncate_model(model, n), config, identity)
        np.testing.assert_array_equal(truncated, full[..., :n])

    # Blocks are fixed by block_size; a short last block must not change the rows.
    # Additive models do elementwise arithmetic only, so their rows are bitwise
    # independent of the partition; the matrix products of a Nemytskii model may
    # round differently for different row counts.
    @given(
        block_size=st.integers(min_value=1, max_value=40),
        paths=st.integers(min_value=1, max_value=45),
        nemytskii=st.booleans(),
    )
    @example(block_size=16, paths=45, nemytskii=True)  # last block of 13 rows
    @example(block_size=16, paths=45, nemytskii=False)
    @settings(max_examples=25, deadline=None)
    def test_map_paths_does_not_depend_on_block_size(self, block_size, paths, nemytskii):
        model = nemytskii_model(8) if nemytskii else linear_additive_model(8)
        config = SolverConfig(T=0.02, steps=4, paths=paths, master_seed=8,
                              snapshot_times=(0.01, 0.02))

        blocked = map_paths(model, config, identity, block_size=block_size)
        whole = map_paths(model, config, identity, block_size=paths)
        if nemytskii:
            np.testing.assert_allclose(blocked, whole, rtol=1e-12)
        else:
            np.testing.assert_array_equal(blocked, whole)

    # the worker count is ignored: blocks of 128, 128 and 44 paths run in
    # path order on the thread that called map_paths
    def test_every_block_runs_on_the_calling_thread(self):
        model = nemytskii_model(8)
        config = SolverConfig(T=0.05, steps=10, paths=300, master_seed=5, snapshot_times=(0.05,))
        blocks = []

        def reduce_block(rows):
            blocks.append((threading.get_ident(), len(rows)))
            return rows

        map_paths(model, config, reduce_block, workers=4)
        assert blocks == [(threading.get_ident(), size) for size in (128, 128, 44)]


class TestSharedSynthesis:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"synthesize": 0, "analyze": 0}
        for name in counts:
            original = getattr(transforms, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(transforms, name, counted)
        return counts

    @pytest.mark.parametrize(
        "drift_grid, diffusion_grid, synthesize_per_step",
        [(64, 64, 2), (64, 128, 3)],
        ids=["same-grid", "different-grids"],
    )
    def test_transform_calls_per_step(
        self, calls, drift_grid, diffusion_grid, synthesize_per_step
    ):
        n = 16
        model = make_model(n, Nemytskii("tanh", drift_grid), Nemytskii("cos", diffusion_grid),
                           initial=np.linspace(1.0, 0.0, n))
        config = SolverConfig(T=0.01, steps=7, paths=5)
        _simulate_block(model, config, range(5))
        assert calls == {"synthesize": synthesize_per_step * 7, "analyze": 2 * 7}

    # sigmoid and identity are not ufuncs: sigmoid allocates its grid values and
    # identity returns the shared state grid itself, which must come out of
    # each evaluation untouched
    CASES = {
        "identity": (Nemytskii("identity", 32), Nemytskii("sigmoid", 32)),
        "tanh": (Nemytskii("tanh", 32), Nemytskii("sigmoid", 32)),
        "sigmoid-drift": (Nemytskii("sigmoid", 32), Nemytskii("identity", 32)),
        "same-grid": (Nemytskii("tanh", 32), Nemytskii("cos", 32)),
        "different-grids": (Nemytskii("tanh", 20), Nemytskii("cos", 32)),
        "linear-drift": (
            Diagonal(np.linspace(-3.0, 3.0, 8)), Nemytskii("cos", 32)
        ),
        "additive-diffusion": (
            Nemytskii("tanh", 32), Diagonal(np.full(8, 0.5))
        ),
        "no-drift": (None, Diagonal(np.ones(8))),
        "diagonal": (Diagonal(np.linspace(-3.0, 3.0, 8)), Diagonal(np.full(8, 0.5))),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_steps_match_the_allocating_formula(self, case):
        n, paths = 8, 4
        drift, diffusion = self.CASES[case]
        model = make_model(n, drift, diffusion, initial=np.linspace(1.0, 0.0, n))
        config = SolverConfig(T=0.03, steps=3, paths=paths, master_seed=2)

        def on_grid(spec, x):
            """spec's function of the grid values of x, and the grid's basis."""
            basis = transforms.sine_basis_matrix(n, spec.grid_size)
            return models.SCALAR_FUNCTIONS[spec.function].fn(x @ basis), basis

        h = config.h
        decay = np.exp(-model.operator.eigenvalues * h)
        noise_sd = np.sqrt(model.covariance * h)
        x = np.tile(model.initial, (paths, 1))
        for z in kernel_normals(config.master_seed, range(paths), config.steps, n):
            dW = noise_sd * z
            if drift is None:
                f_x = 0.0
            elif isinstance(drift, Diagonal):
                f_x = x * drift.multipliers
            else:
                values, basis = on_grid(drift, x)
                f_x = values @ basis.T / drift.grid_size
            if isinstance(diffusion, Diagonal):
                g_dw = dW * diffusion.multipliers
            else:
                values, basis = on_grid(diffusion, x)
                g_dw = (values * (dW @ basis)) @ basis.T / diffusion.grid_size
            x = decay * (x - h * f_x + g_dw)
        np.testing.assert_array_equal(_simulate_block(model, config, range(paths))[:, -1], x)
