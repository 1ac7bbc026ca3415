"""Estimator and probe tests: moment norms, exponent fits, sweeps, series."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from spdelab.models import Diagonal, ModelError, Nemytskii
from spdelab.noise import example_covariance
from spdelab.probes import (
    estimate_lp_norm,
    example_series_report,
    fit_holder_exponent,
    geometric_lag_multiples,
    increment_samples,
    predicted_temporal_exponent,
    sample_moment,
    spatial_sweep,
    temporal_probe,
    truncate_model,
)
from spdelab.solver import (
    EXACT_GAUSSIAN,
    EXPONENTIAL_EULER,
    SolverConfig,
    map_paths,
)
from spdelab.spectrum import dirichlet_eigenvalues, stochastic_convolution_energy

from oracles import GaussianLaw, linear_additive_model, make_model


def linear_drift_model(n, p=2.0):
    return make_model(n, Diagonal(np.linspace(-5.0, 5.0, n)), Diagonal(np.linspace(1.0, 0.5, n)),
                      initial=np.linspace(1.0, 0.0, n), p=p)


def nemytskii_model(n):
    return make_model(n, Nemytskii("tanh", 2 * n), Nemytskii("cos", 2 * n),
                      initial=np.linspace(1.0, 0.0, n))


class TestEstimateLpNorm:
    def test_constant_samples(self):
        for p in (2.0, 3.5, 4.0):
            est, se = estimate_lp_norm(np.full(50, 2.5), p)
            assert est == pytest.approx(2.5, rel=1e-12)
            assert se == pytest.approx(0.0, abs=1e-12)

    def test_p_two_is_root_mean_square(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        est, _ = estimate_lp_norm(samples, 2.0)
        assert est == pytest.approx(math.sqrt(np.mean(samples**2)), rel=1e-14)

    def test_absolute_gaussian_second_moment(self):
        draws = np.abs(np.random.default_rng(8).standard_normal(100_000))
        est, se = estimate_lp_norm(draws, 2.0)
        assert abs(est - 1.0) < 3.0 * se

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_lp_norm([1.0], 2.0)
        with pytest.raises(ValueError):
            estimate_lp_norm([1.0, 2.0], 1.0)

    # NaN passes a plain p < 2 test, and an infinite p has no finite moment
    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_moment_order_rejected(self, p):
        with pytest.raises(ValueError, match="moment order p must be finite"):
            estimate_lp_norm([1.0, 2.0], p)

    def test_standard_error_shrinks_like_root_n(self):
        rng = np.random.default_rng(3)
        base = np.abs(rng.standard_normal(80_000)) + 0.1
        _, se_small = estimate_lp_norm(base[:20_000], 3.0)
        _, se_large = estimate_lp_norm(base, 3.0)
        ratio = se_large / se_small
        assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5

    # the squares inside the spread of powers near 1e300 overflow; the
    # standard error is the same multiple of the estimate as for the samples
    # scaled down, and the estimate is the plain formula's
    def test_standard_error_of_huge_samples_is_finite(self):
        base = np.abs(np.random.default_rng(5).standard_normal(64)) + 0.5
        samples = 1e150 * base
        est, se = estimate_lp_norm(samples, 2.0)
        assert est == float(np.mean(samples**2)) ** 0.5
        est_small, se_small = estimate_lp_norm(base, 2.0)
        assert se / est == pytest.approx(se_small / est_small, rel=1e-12)

    # the fourth powers of samples near 1e99 overflow, but the estimate and its
    # error are homogeneous of degree 1: 1e99 times those of the samples scaled down
    def test_overflowing_powers_scale_back(self):
        est, se = estimate_lp_norm([1e99, 2e99, 3e99], 4.0)
        est_small, se_small = estimate_lp_norm([1.0, 2.0, 3.0], 4.0)
        assert est == pytest.approx(1e99 * est_small, rel=1e-12)
        assert se == pytest.approx(1e99 * se_small, rel=1e-12)

    # a NaN sample is not rescued, even beside a sample whose power overflows
    def test_nan_sample_gives_nan(self):
        est, se = estimate_lp_norm([1e99, math.nan], 4.0)
        assert math.isnan(est) and math.isnan(se)


class TestSampleMoment:
    # the lemma suite's moment rows were computed inline by these lines
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_bitwise_the_inline_moment_and_error(self, p):
        norms = np.sqrt(np.sum(np.random.default_rng(12).standard_normal((200, 32)) ** 2, axis=1))
        powered = norms**p
        assert sample_moment(norms, p) == (
            float(np.mean(powered)), float(np.std(powered, ddof=1) / math.sqrt(powered.size))
        )

    @pytest.mark.parametrize("samples", [[], [1.0]], ids=["none", "one"])
    def test_needs_two_samples(self, samples):
        with pytest.raises(ValueError, match=f"^need at least two samples, got {len(samples)}$"):
            sample_moment(samples, 2.0)


class TestFitHolderExponent:
    @given(exponent=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_exact_on_power_laws(self, exponent):
        lags = np.logspace(-4.0, -1.0, 10)
        pairs = [(lag, 2.0 * lag**exponent) for lag in lags]
        fit = fit_holder_exponent(pairs, predicted=exponent)
        assert fit.slope == pytest.approx(exponent, abs=1e-10)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-9)

    def test_brownian_increment_surrogate(self):
        # direct Gaussian increments of a scalar Brownian motion
        rng = np.random.default_rng(10)
        lags = np.logspace(-3.0, -1.0, 10)
        pairs = []
        for lag in lags:
            draws = math.sqrt(lag) * rng.standard_normal(4000)
            pairs.append((lag, estimate_lp_norm(np.abs(draws), 2.0)[0]))
        fit = fit_holder_exponent(pairs, predicted=0.5)
        assert abs(fit.slope - 0.5) <= 0.1

    # the exact noise-response window energy (1/2) sum_k q_k lam_k^{s-1} (1 - e^{-2 lam_k d})
    # of the log-weighted covariance at s = 0.9, fitted against an independent regression
    def test_matches_independent_regression_script(self):
        law = GaussianLaw.exact(linear_additive_model(4096))
        deltas = np.logspace(-6.0, -2.0, 9)
        values = [math.sqrt(law.norm_moments(0.9, law.variance(d))[0]) for d in deltas]
        fit = fit_holder_exponent(
            list(zip(deltas.tolist(), values)), predicted_temporal_exponent(0.0, 0.9)
        )
        oracle = linregress(np.log(deltas), np.log(values))
        assert fit.slope == pytest.approx(oracle.slope, abs=1e-10)
        assert fit.slope_stderr == pytest.approx(oracle.stderr, rel=1e-8)
        assert fit.predicted == pytest.approx(0.05)
        # frozen oracle output for this window (the log-weighted covariance
        # carries slowly varying corrections, so the measured slope sits well
        # above the asymptotic exponent at these lags)
        assert fit.slope == pytest.approx(0.2100089891, abs=1e-6)

    def test_prediction_formula(self):
        assert predicted_temporal_exponent(0.0, 0.5) == pytest.approx(0.25)
        assert predicted_temporal_exponent(0.0, 0.0) == pytest.approx(0.5)
        assert predicted_temporal_exponent(0.5, 0.2) == pytest.approx(0.5)

    def test_input_validation(self):
        short = [(0.1 * 2**-j, 1.0) for j in range(5)]
        with pytest.raises(ValueError):
            fit_holder_exponent(short, 0.5)
        narrow = [(lag, lag) for lag in np.logspace(-2.0, -1.0, 10)]
        with pytest.raises(ValueError):
            fit_holder_exponent(narrow, 0.5)
        with_zero = [(lag, 0.0) for lag in np.logspace(-3.0, -1.0, 10)]
        with pytest.raises(ValueError):
            fit_holder_exponent(with_zero, 0.5)
        decreasing = [(lag, lag) for lag in np.logspace(-1.0, -3.0, 10)]
        with pytest.raises(ModelError, match="^lags must be strictly increasing$"):
            fit_holder_exponent(decreasing, 0.5)

    # NaN passes a plain `<= 0` test, and an inf estimate fits a slope of -inf
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_estimate_is_rejected(self, bad):
        pairs = [(lag, math.sqrt(lag)) for lag in np.logspace(-3.0, -1.0, 8)]
        pairs[3] = (pairs[3][0], bad)
        with pytest.raises(ValueError,
                           match="^estimates must be positive and finite for a log-log fit$"):
            fit_holder_exponent(pairs, 0.5)

    def test_lag_multiple_helper(self):
        mults = geometric_lag_multiples(10, 100)
        assert len(mults) == 10
        assert mults[0] == 1 and mults[-1] == 100
        # the probe-temporal default asks for 10 multiples up to at least 100
        for max_multiple in range(100, 5001):
            assert len(set(geometric_lag_multiples(10, max_multiple))) == 10

    @pytest.mark.parametrize("count, max_multiple", [(1, 10), (10, 9)])
    def test_lag_multiple_count_and_maximum_are_checked(self, count, max_multiple):
        with pytest.raises(ValueError, match="^need count >= 2 and max_multiple >= count$"):
            geometric_lag_multiples(count, max_multiple)

    def test_colliding_lag_multiples_are_rejected(self):
        # 10^(1/9) = 1.29 rounds to 1, the same multiple as 10^0
        with pytest.raises(ValueError, match="collide after rounding"):
            geometric_lag_multiples(10, 10)


class TestIncrementSamples:
    # the anchor's snapshot comes first, so a zero lag would put a second one on its step
    def test_zero_lag_is_rejected(self, map_paths_calls):
        config = SolverConfig(T=0.1, steps=10, paths=16, master_seed=2)
        with pytest.raises(ModelError, match="fall on grid steps 5 and 5") as info:
            increment_samples(linear_additive_model(), config, (0.0,), 0.05, [0.0])
        assert info.value.field == "lags"
        assert map_paths_calls == []

    # numpy cannot stack no s at all, and no lag leaves nothing to sample
    @pytest.mark.parametrize("s_values, lags, field, message", [
        ((), [0.01], "s_values", "^need at least one smoothness value$"),
        ((0.0,), [], "lags", "^need at least one lag$"),
    ], ids=["no-smoothness", "no-lags"])
    def test_empty_arguments_are_rejected_before_any_path_runs(self, s_values, lags, field,
                                                              message, map_paths_calls):
        config = SolverConfig(T=0.1, steps=10, paths=16, master_seed=2)
        with pytest.raises(ModelError, match=message) as info:
            increment_samples(linear_additive_model(), config, s_values, 0.05, lags)
        assert info.value.field == field
        assert map_paths_calls == []

    def test_off_grid_times_rejected(self):
        model = linear_additive_model()
        config = SolverConfig(T=0.1, steps=10, paths=4, master_seed=2)
        with pytest.raises(ModelError, match="is not a grid point") as info:
            increment_samples(model, config, (0.0,), 0.05, [0.0233])
        assert info.value.field == "lags"

    def test_second_moment_matches_gaussian_transition_algebra(self):
        n = 8
        model = linear_additive_model(n)
        t1, t2 = 0.02, 0.03
        config = SolverConfig(T=0.05, steps=100, paths=4000, master_seed=6, method=EXACT_GAUSSIAN)
        samples = increment_samples(model, config, (0.0,), t1, [t2 - t1])[0, 0]
        expected = float(np.sum(GaussianLaw.exact(model).increment_variance(t1, t2 - t1)))
        squared = samples**2
        se = float(np.std(squared, ddof=1) / math.sqrt(squared.size))
        assert abs(float(np.mean(squared)) - expected) <= 3.0 * se

    def test_paths_are_uncorrelated(self):
        model = linear_additive_model()
        config = SolverConfig(T=0.05, steps=20, paths=2000, master_seed=13)
        samples = increment_samples(model, config, (0.0,), 0.0, [0.05])[0, 0]
        even, odd = samples[0::2], samples[1::2]
        corr = np.corrcoef(even, odd)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(even.size)

    def test_common_path_coupling_shrinks_variance(self):
        n = 8
        model = linear_additive_model(n)
        t1, t2 = 0.04, 0.05
        config = SolverConfig(T=0.05, steps=50, paths=2000, master_seed=4)
        coupled = increment_samples(model, config, (0.0,), t1, [t2 - t1])[0, 0]
        run = dataclasses.replace(config, snapshot_times=(t1, t2))
        rows = map_paths(model, run, lambda rows: rows)
        crossed = np.sqrt(
            np.sum((np.roll(rows[:, 1, :], 1, axis=0) - rows[:, 0, :]) ** 2, axis=1)
        )
        assert coupled.var() < crossed.var()

    def test_every_smoothness_reads_the_same_paths(self, map_paths_calls):
        model = linear_drift_model(16, p=4.0)
        config = SolverConfig(T=0.06, steps=120, paths=120, master_seed=9)
        anchor = 20 * config.h
        lags = [k * config.h for k in (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)]
        s_values = (0.0, 0.5, 1.0)
        one_by_one = [
            temporal_probe(model, config, (s,), anchor, lags)[0] for s in s_values
        ]
        map_paths_calls.clear()
        together = temporal_probe(model, config, s_values, anchor, lags)
        assert len(map_paths_calls) == 1
        assert together == one_by_one
        assert [fit.predicted for fit, _ in together] == [0.5, 0.25, 0.0]

    # the fit's lag rule runs before the ensemble does, not after every path
    @pytest.mark.parametrize("multiples", [(1, 2, 3, 5, 8), (1, 2, 3, 4, 5, 6, 7, 8),
                                           (1, 2, 3, 5, 8, 13, 22, 36, 60, 60)],
                             ids=["five-lags", "one-decade", "repeated"])
    def test_lags_the_fit_cannot_use_are_rejected_before_any_path_runs(self, multiples,
                                                                        map_paths_calls):
        config = SolverConfig(T=0.2, steps=400, paths=2000, master_seed=1)
        lags = [m * config.h for m in multiples]
        with pytest.raises(ModelError) as info:
            temporal_probe(linear_additive_model(16), config, (0.0,), 0.1, lags)
        assert info.value.field == "lags"
        assert map_paths_calls == []

    # numpy cannot stack no s at all, and a run for no s computes nothing
    def test_no_smoothness_value_is_rejected_before_any_path_runs(self, map_paths_calls):
        config = SolverConfig(T=0.2, steps=400, paths=2000, master_seed=1)
        lags = [m * config.h for m in (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)]
        with pytest.raises(ModelError, match="^need at least one smoothness value$") as info:
            temporal_probe(linear_additive_model(16), config, (), 0.1, lags)
        assert info.value.field == "s_values"
        assert map_paths_calls == []

    # a non-finite s turns every norm into NaN, and the fit into a verdict over NaNs
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_smoothness_is_rejected_before_any_path_runs(self, s, map_paths_calls):
        config = SolverConfig(T=0.2, steps=400, paths=2000, master_seed=1)
        lags = [m * config.h for m in (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)]
        with pytest.raises(ModelError, match=f"^smoothness s must be finite, got {s}$") as info:
            temporal_probe(linear_additive_model(16), config, (0.0, s), 0.1, lags)
        assert info.value.field == "s_values"
        assert map_paths_calls == []

    # lam_64^400 overflows, so the s = 400 norms would be NaN and their fit a slope of NaN
    @pytest.mark.filterwarnings("error")
    def test_smoothness_overflowing_the_weights_is_rejected_before_any_path_runs(
            self, map_paths_calls):
        config = SolverConfig(T=0.2, steps=400, paths=20, master_seed=1)
        with pytest.raises(ModelError,
                           match=r"^lam_N\^s overflows at N = 64 for s = 400$") as info:
            temporal_probe(linear_additive_model(64), config, (0.0, 400.0), 0.1)
        assert info.value.field == "s_values"
        assert map_paths_calls == []

    def test_default_anchor_and_lags(self):
        model = linear_drift_model(8)
        config = SolverConfig(T=0.02, steps=200, paths=40, master_seed=5)
        # step 100 is the anchor, and 100 steps follow it
        lags = [m * config.h for m in geometric_lag_multiples(10, 100)]
        explicit = temporal_probe(model, config, (0.0, 0.5), 100 * config.h, lags)
        assert temporal_probe(model, config, (0.0, 0.5)) == explicit
        assert [lag for lag, _, _ in explicit[0][1]] == lags

    # the grid's verdict on the times comes first, so a lag list the fit would also
    # refuse reads as the time the grid rejects (repeated lags are a case of the
    # lag-rule test); h = 0.0005, T = 0.2
    @pytest.mark.parametrize("anchor, multiples, tail, field, message", [
        (0.01234, None, (), "anchor", "time 0.01234 is not a grid point (h = 0.0005)"),
        (0.3, None, (), "anchor", "time 0.3 lies outside [0, T] = [0, 0.2]"),
        (0.1, (1, 2, 3), (0.0003,), "lags", "is not a grid point"),
        (0.1, (1, 2, 3), (0.15,), "lags", "lies outside [0, T]"),
        (0.1, (0, 1, 2, 3, 5, 8, 13, 22, 36, 60), (), "lags", "grid steps 200 and 200"),
        (0.1, (1, 2, 3, 5, 8, 13, 22, 60, 36), (), "lags", "grid steps 260 and 236"),
        (0.19, None, (), "lags",
         "only 20 steps follow the anchor; the fit needs lags spanning two decades"),
    ], ids=["anchor-off-grid", "anchor-past-T", "lag-off-grid", "lag-past-T", "zero-lag",
            "decreasing-lags", "too-few-steps-for-default-lags"])
    def test_rejected_times_name_their_argument(self, anchor, multiples, tail, field, message,
                                                map_paths_calls):
        config = SolverConfig(T=0.2, steps=400, paths=2000, master_seed=1)
        lags = None if multiples is None else [m * config.h for m in multiples] + list(tail)
        with pytest.raises(ModelError, match=re.escape(message)) as info:
            temporal_probe(linear_additive_model(16), config, (0.0,), anchor, lags)
        assert info.value.field == field
        assert map_paths_calls == []


class TestSpatialSweep:
    def test_admissible_model_is_cauchy(self):
        model = linear_additive_model(64, r=0.0)
        config = SolverConfig(T=0.1, steps=50, paths=500, master_seed=20, snapshot_times=(0.1,),
                              method=EXACT_GAUSSIAN)
        sweep = spatial_sweep(model, config, 1.0, [8, 16, 32, 64])
        values = [v for _, v in sweep]
        assert all(b > a for a, b in zip(values, values[1:]))  # shared draws: monotone
        gaps = [b - a for a, b in zip(values, values[1:])]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_base_norm_sweep_stays_bounded(self):
        model = linear_additive_model(64, r=0.0)
        config = SolverConfig(T=0.1, steps=50, paths=500, master_seed=21, snapshot_times=(0.1,),
                              method=EXACT_GAUSSIAN)
        sweep = spatial_sweep(model, config, 0.0, [8, 16, 32, 64])
        gaps = [b[1] - a[1] for a, b in zip(sweep, sweep[1:])]
        assert gaps[-1] < 0.02 * sweep[-1][1]

    def test_borderline_model_blows_up_above_its_regularity(self):
        model = linear_additive_model(512, r=0.25)
        config = SolverConfig(T=0.1, steps=50, paths=400, master_seed=22, snapshot_times=(0.1,),
                              method=EXACT_GAUSSIAN)
        sweep = spatial_sweep(model, config, 1.25, [64, 128, 256, 512])
        values = [v for _, v in sweep]
        assert all(b > a for a, b in zip(values, values[1:]))
        gaps = [b - a for a, b in zip(values, values[1:])]
        assert gaps[-1] > 0.9 * gaps[0]  # increments do not die off: divergence signature

    # The Euler step keeps y / expm1(y) of a mode's variance, y = 2 lam h, so at
    # lam_16 h = 2.5 the sweep below is flat and passes a Cauchy check whatever
    # the damping; only the scheme's own law tells a right damping from a wrong
    # one.  Tolerance, set before the first run: each value within 4 SE (that
    # of `estimate_lp_norm` on the final snapshot's norms) of the Euler law's
    # value, and the exact law's value more than 4 SE away.  Seeds 606, 1 and 2
    # read z = 0.28, 0.76 and 0.71 against the Euler law, and 6.6 to 10.8 SE
    # against the exact one.
    def test_euler_sweep_matches_the_schemes_own_law(self, map_paths_calls):
        s, n_values = 1.0, [16, 32, 64, 128]
        model = linear_additive_model(128, covariance=400.0 * example_covariance(128))
        config = SolverConfig(T=0.1, steps=100, paths=2000, master_seed=606)
        sweep = spatial_sweep(model, config, s, n_values)
        [norms] = map_paths_calls  # (paths, truncations, snapshots): one run serves the sweep
        for k, (n, value) in enumerate(sweep):
            se = estimate_lp_norm(norms[:, k, -1], model.p)[1]
            sub = truncate_model(model, n)
            euler, exact = (math.sqrt(law.norm_moments(s, law.variance(config.T))[0])
                            for law in (GaussianLaw.euler(sub, config.h), GaussianLaw.exact(sub)))
            assert abs(value - euler) <= 4.0 * se, (n, value, euler, se)
            assert abs(value - exact) > 4.0 * se, (n, value, exact, se)

    def test_truncate_model_slices_consistently(self):
        model = linear_drift_model(16)
        sub = truncate_model(model, 4)
        assert sub.dimension == 4
        np.testing.assert_array_equal(sub.eigenvalues, model.eigenvalues[:4])
        np.testing.assert_array_equal(sub.covariance, model.covariance[:4])
        np.testing.assert_array_equal(sub.drift.multipliers, model.drift.multipliers[:4])
        np.testing.assert_array_equal(sub.diffusion.multipliers, model.diffusion.multipliers[:4])
        np.testing.assert_array_equal(sub.initial, model.initial[:4])
        nemytskii = nemytskii_model(16)
        sub = truncate_model(nemytskii, 4)
        assert (sub.drift, sub.diffusion) == (nemytskii.drift, nemytskii.diffusion)
        with pytest.raises(ValueError):
            truncate_model(model, 17)

    @pytest.mark.parametrize(
        "model, method",
        [
            (linear_drift_model(32), EXPONENTIAL_EULER),
            (linear_additive_model(32, r=0.0), EXACT_GAUSSIAN),
            (nemytskii_model(16), EXPONENTIAL_EULER),
        ],
        ids=["euler-linear-drift", "exact-gaussian", "nemytskii"],
    )
    def test_sweep_equals_one_run_per_truncation(self, model, method):
        n_values = [2, 5, model.dimension // 2, model.dimension]
        s = 1.0
        config = SolverConfig(T=0.04, steps=8, paths=150, master_seed=31,
                              snapshot_times=(0.01, 0.02, 0.04), method=method)
        reference = []
        for n in n_values:
            sub = truncate_model(model, n)
            lam = sub.eigenvalues
            norms = map_paths(
                sub, config, lambda rows: np.sqrt(np.sum(lam**s * rows**2, axis=-1))
            )
            value = max(estimate_lp_norm(norms[:, i], model.p)[0] for i in range(3))
            reference.append((n, value))
        assert spatial_sweep(model, config, s, n_values) == reference

    @pytest.mark.parametrize(
        "model, expected_runs",
        [
            (linear_drift_model(16), 1),
            (nemytskii_model(16), 3),
            (dataclasses.replace(nemytskii_model(16), drift=Diagonal(np.linspace(-5.0, 5.0, 16))),
             3),
            (dataclasses.replace(nemytskii_model(16), drift=None), 3),
        ],
        ids=["decoupled", "nemytskii", "diagonal-drift-nemytskii-diffusion",
             "no-drift-nemytskii-diffusion"],
    )
    def test_decoupled_models_simulate_once(self, model, expected_runs, map_paths_calls):
        config = SolverConfig(T=0.02, steps=4, paths=8, master_seed=3)
        sweep = spatial_sweep(model, config, 0.5, [4, 8, 16])
        assert [n for n, _ in sweep] == [4, 8, 16]
        assert len(map_paths_calls) == expected_runs

    def test_rejects_empty_truncation(self):
        with pytest.raises(ValueError):
            spatial_sweep(linear_additive_model(), SolverConfig(T=0.1, steps=2, paths=4), 1.0, [0, 4])

    # an empty sweep would return no values, and a verdict over them would be vacuous
    def test_rejects_an_empty_sweep_before_any_run(self, map_paths_calls):
        with pytest.raises(ModelError, match="^need at least one truncation dimension$") as info:
            spatial_sweep(linear_additive_model(), SolverConfig(T=0.1, steps=2, paths=4), 1.0, [])
        assert info.value.field == "n_values"
        assert map_paths_calls == []

    # a coupled model runs once per truncation; the last one is checked before the first runs
    def test_rejects_too_many_modes_before_any_run(self, map_paths_calls):
        config = SolverConfig(T=0.02, steps=4, paths=8, master_seed=3)
        with pytest.raises(ModelError, match="cannot truncate a 16-mode model to 32 modes") as info:
            spatial_sweep(nemytskii_model(16), config, 0.5, [4, 8, 32])
        assert info.value.field == "n_modes"
        assert map_paths_calls == []

    # a non-finite s would return NaN values, after numpy warnings for an infinite one
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_smoothness_before_any_run(self, s, map_paths_calls):
        config = SolverConfig(T=0.1, steps=2, paths=4)
        with pytest.raises(ModelError, match=f"^smoothness s must be finite, got {s}$") as info:
            spatial_sweep(linear_additive_model(8), config, s, [4, 8])
        assert info.value.field == "s"
        assert map_paths_calls == []

    # lam_64^s overflows from s = 67 on, which would make every value of the sweep NaN
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [67.0, 400.0])
    def test_rejects_smoothness_overflowing_the_weights_before_any_run(self, s, map_paths_calls):
        config = SolverConfig(T=0.01, steps=10, paths=50, master_seed=1)
        with pytest.raises(ModelError,
                           match=rf"^lam_N\^s overflows at N = 64 for s = {s:g}$") as info:
            spatial_sweep(linear_additive_model(64), config, s, [16, 32, 64])
        assert info.value.field == "s"
        assert map_paths_calls == []

    # the check reads the largest truncation, not the model's dimension: lam_32^70
    # is finite and lam_64^70 is not, so only the second sweep fails before the path rule
    def test_smoothness_is_checked_at_the_largest_truncation(self, map_paths_calls):
        config = SolverConfig(T=0.01, steps=2, paths=1)
        with pytest.raises(ModelError, match="^need at least two paths, got 1$"):
            spatial_sweep(linear_additive_model(64), config, 70.0, [16, 32])
        with pytest.raises(ModelError, match=r"^lam_N\^s overflows at N = 64 for s = 70$"):
            spatial_sweep(linear_additive_model(64), config, 70.0, [16, 64])
        assert map_paths_calls == []


# one path gives a moment but no standard error, so both probes refuse it up front
@pytest.mark.parametrize("probe", [
    lambda model, config: temporal_probe(model, config, (0.0,)),
    lambda model, config: spatial_sweep(model, config, 1.0, [4, 8]),
], ids=["temporal", "spatial"])
def test_probes_reject_one_path_before_any_run(probe, map_paths_calls):
    config = SolverConfig(T=0.02, steps=200, paths=1)
    with pytest.raises(ModelError, match="^need at least two paths, got 1$") as info:
        probe(linear_additive_model(8), config)
    assert info.value.field == "paths"
    assert map_paths_calls == []


def series_sums(r, t, n_values):
    return [value for _, value in example_series_report(r, t, n_values)]


class TestExampleSeries:
    def test_two_mode_value(self):
        # (1 - e^{-0.8 pi^2}) / (4 ln(2)^2) to 30 digits with mpmath
        (value,) = series_sums(0.0, 0.1, [2])
        assert value == pytest.approx(0.520148497218167055570432917789, rel=1e-14)

    def test_convergent_case_has_vanishing_doubling_gaps(self):
        # For k > 100 the time factor is exactly 1.0, so the gap n -> 2n is
        # (1/2) sum_{k=n+1}^{2n} 1/(k ln(k)^2); with antiderivative -1/ln(k)
        # the integral test brackets it. A divergent 1/(k ln k) fails this.
        t = 0.1
        gaps = []
        for n in (100, 1000, 10000):
            assert -math.expm1(-2.0 * ((n + 1) * math.pi) ** 2 * t) == 1.0
            small, large = series_sums(0.0, t, [n, 2 * n])
            gap = large - small
            lower = 0.5 * (1.0 / math.log(n + 1) - 1.0 / math.log(2 * n + 1))
            upper = 0.5 * (1.0 / math.log(n) - 1.0 / math.log(2 * n))
            assert lower <= gap <= upper
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_divergent_case_has_growing_increments(self):
        partial_sums = example_series_report(0.25, 0.1, [1000, 10000, 100000])
        assert [n for n, _ in partial_sums] == [1000, 10000, 100000]
        sums = [v for _, v in partial_sums]
        assert sums[0] < sums[1] < sums[2]
        assert sums[2] - sums[1] > sums[1] - sums[0]

    # The report sums prefixes of one term array; the reference is the
    # per-truncation formula it replaced, which built the terms afresh for each N.
    @pytest.mark.parametrize("t", [1e-3, 0.1])
    @pytest.mark.parametrize("r", [0.0, 0.25, 1.0])
    def test_prefix_sums_are_bitwise_the_per_truncation_formula(self, r, t):
        n_values = [2, 3, 128, 129, 1000, 10**4, 10**5]
        for n, value in example_series_report(r, t, n_values):
            k = np.arange(2, n + 1, dtype=float)
            lam = dirichlet_eigenvalues(n)[1:]
            terms = lam**r * (-np.expm1(-2.0 * lam * t)) / (k * np.log(k) ** 2)
            assert value == 0.5 * float(np.sum(terms)), n

    def test_matches_convolution_energy_assembly(self):
        n = 200
        q = example_covariance(n)
        weighted = np.sqrt(q)
        energy = stochastic_convolution_energy(1.0, 0.0, 0.1, weighted)
        (series,) = series_sums(0.0, 0.1, [n])
        assert series == pytest.approx(energy, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            example_series_report(0.0, 0.0, [10])
        with pytest.raises(ValueError):
            example_series_report(0.0, 0.1, [1])

    # NaN passes a plain `t <= 0` test, and a NaN or infinite r makes every
    # partial sum NaN or inf.  r is checked before its weight lam_N^r, so a NaN
    # or +inf r never reads as an overflow of that weight.
    @pytest.mark.parametrize("r, t, n_values, field, message", [
        (0.0, math.nan, [10], "t", "time must be positive, got nan"),
        (0.0, -math.inf, [10], "t", "time must be positive, got -inf"),
        (0.0, math.inf, [10], "t", "time must be finite, got inf"),
        (math.nan, 0.1, [10], "r", "r must be finite, got nan"),
        (math.inf, 0.1, [10], "r", "r must be finite, got inf"),
        (-math.inf, 0.1, [10], "r", "r must be finite, got -inf"),
        (math.nan, 0.1, [1], "r", "r must be finite, got nan"),
    ], ids=["t-nan", "t--inf", "t-inf", "r-nan", "r-inf", "r--inf", "r-nan-one-mode"])
    def test_non_finite_arguments_are_rejected(self, r, t, n_values, field, message):
        with pytest.raises(ModelError, match=f"^{message}$") as info:
            example_series_report(r, t, n_values)
        assert info.value.field == field

    # lam_N^200 overflows at every N here, and the report checks the largest N
    # before it takes any partial sum
    @pytest.mark.filterwarnings("error")
    def test_report_rejects_an_overflowing_r_before_any_sum(self):
        with pytest.raises(ModelError,
                           match=r"^lam_N\^r overflows at N = 100000 for r = 200$") as info:
            example_series_report(200.0, 0.1, [1000, 10000, 100000])
        assert info.value.field == "r"

    # lam_2^r is finite for r = 193.09, but the k = 2 term overflows in its division
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r, message", [
        (193.1, r"lam_N\^r overflows at N = 2 for r = 193.1"),
        (193.09, "partial sum at N = 2 is not finite for r = 193.09"),
    ], ids=["weight", "sum"])
    def test_overflowing_series_is_rejected(self, r, message):
        with pytest.raises(ModelError, match=f"^{message}$") as info:
            example_series_report(r, 0.1, [2])
        assert info.value.field == "r"
        assert math.isfinite(series_sums(193.08, 0.1, [2])[0])

    def test_report_rejects_an_empty_truncation_list(self):
        with pytest.raises(ModelError, match="^need at least one truncation dimension$") as info:
            example_series_report(0.25, 0.1, [])
        assert info.value.field == "n_values"
