"""Operator-calculus tests: mode-wise actions, norms, and smoothing constants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from spdelab.cli import _convolution_quad_oracles
from spdelab.noise import example_covariance
from spdelab.spectrum import (
    deterministic_convolution_norm,
    dirichlet_eigenvalues,
    hdot_norm,
    smoothing_constant,
    stochastic_convolution_energy,
)

from oracles import make_model, quad_energy, quad_flow_norm


def coeffs(*values):
    return np.array(values, dtype=float)


class TestSpectralTypes:
    def test_values_are_immutable(self):
        for lam in (dirichlet_eigenvalues(4), make_model(4).eigenvalues):
            with pytest.raises(ValueError):
                lam[0] = 5.0


class TestDirichletLaplacian:
    def test_first_three_eigenvalues(self):
        expected = np.pi**2 * np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose(dirichlet_eigenvalues(3), expected, rtol=1e-15)

    def test_single_mode(self):
        np.testing.assert_allclose(dirichlet_eigenvalues(1), [np.pi**2])

    def test_eigenvalue_ratio_is_exact(self):
        lam = dirichlet_eigenvalues(2)
        assert lam[1] / lam[0] == 4.0

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_eigenvalues(0)

    # the spatial sweep reduces prefixes of one run, and the section-5 series
    # sums from the second mode up to N, each on the eigenvalues of its own length
    def test_prefix_of_a_longer_spectrum_is_bitwise_the_shorter(self):
        longest = dirichlet_eigenvalues(100_000)
        for n in (1, 2, 16, 512, 1000, 10_000, 99_999):
            np.testing.assert_array_equal(longest[:n], dirichlet_eigenvalues(n))


class TestHdotNorm:
    def test_zero_weight_is_euclidean(self):
        assert hdot_norm(0.0, coeffs(3.0, 4.0, 0.0)) == pytest.approx(5.0, rel=1e-15)

    def test_single_mode_weighting(self):
        # ||3 e_2||_1 = 3 sqrt(lam_2) = 6 pi, evaluated to 30 digits with mpmath
        value = hdot_norm(1.0, coeffs(0.0, 3.0))
        assert value == pytest.approx(18.8495559215387594307758602997, rel=1e-15)

    def test_two_mode_oracle(self):
        # pi^2 sqrt(17) evaluated to 30 digits with mpmath
        value = hdot_norm(2.0, coeffs(1.0, 1.0))
        assert value == pytest.approx(40.6934214287523559298553805578, rel=1e-14)

    # at s = 0 the norm of sqrt(q) is the Hilbert-Schmidt norm of the identity
    # against the covariance q: the square root of its truncated trace
    def test_identity_norm_is_truncated_trace(self):
        cov = example_covariance(100)
        norm = hdot_norm(0.0, np.sqrt(cov))
        assert norm == pytest.approx(math.sqrt(float(np.sum(cov))), rel=1e-14)
        # finite and increasing with the truncation dimension
        assert hdot_norm(0.0, np.sqrt(example_covariance(50))) < norm < math.inf

    def test_borderline_weighting_grows_without_bound(self):
        # with positive smoothness weight the truncated sums keep growing
        values = [hdot_norm(0.5, np.sqrt(example_covariance(n))) for n in (100, 1000, 10000)]
        assert values[0] < values[1] < values[2]
        # squared-norm increments do not shrink: the series diverges
        squared = [v**2 for v in values]
        assert squared[2] - squared[1] > squared[1] - squared[0]

    # a (paths, lags, N) array of increments, as the temporal probe reduces it
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    def test_rows_give_each_vectors_norm_bitwise(self, s):
        x = np.random.default_rng(3).standard_normal((5, 4, 16))
        norms = hdot_norm(s, x)
        assert norms.shape == (5, 4)
        for index in np.ndindex(5, 4):
            assert norms[index] == hdot_norm(s, x[index])
        assert isinstance(hdot_norm(s, x[0, 0]), float)

    @given(
        s1=st.floats(min_value=-1.0, max_value=2.0),
        ds=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_smoothness_above_unit_spectrum(self, s1, ds, seed):
        # The Dirichlet spectrum starts at pi^2 > 1, so the norm grows with s.
        x = np.random.default_rng(seed).standard_normal(6)
        assert hdot_norm(s1 + ds, x) >= hdot_norm(s1, x) * (1.0 - 1e-12)


class TestSmoothingConstant:
    def test_power_at_zero(self):
        assert smoothing_constant("power", 0.0) == 1.0

    def test_integral_edges(self):
        assert smoothing_constant("integral", 1.0) == 1.0
        assert smoothing_constant("integral", 0.0) == 2.0

    def test_convolution_edges(self):
        assert smoothing_constant("convolution", 0.0) == 1.0
        assert smoothing_constant("convolution", 1.0) == 1.0

    def test_difference_half_against_dense_grid(self):
        # independent oracle: exhaustive maximization on a two-million-point grid
        u = np.logspace(-8.0, 4.0, 2_000_001)
        oracle = float(np.max(-np.expm1(-u) / np.sqrt(u)))
        assert smoothing_constant("difference", 0.5) == pytest.approx(oracle, rel=1e-9)

    def test_power_closed_form(self):
        for mu in (0.25, 1.0, 1.5, 2.0, 3.0):
            assert smoothing_constant("power", mu) == pytest.approx(
                (mu / math.e) ** mu, rel=1e-15
            )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            smoothing_constant("difference", 1.5)
        with pytest.raises(ValueError):
            smoothing_constant("power", -0.1)
        with pytest.raises(ValueError):
            smoothing_constant("nonsense", 0.5)

    @given(
        lam=st.floats(min_value=1e-2, max_value=1e6),
        t=st.floats(min_value=1e-6, max_value=10.0),
        mu=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_bound_per_mode(self, lam, t, mu):
        lhs = lam**mu * math.exp(-lam * t)
        assert lhs <= (mu / (math.e * t)) ** mu * (1.0 + 1e-12)

    @given(
        lam=st.floats(min_value=1e-2, max_value=1e6),
        t=st.floats(min_value=1e-6, max_value=10.0),
        nu=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_difference_bound_per_mode(self, lam, t, nu):
        lhs = lam**-nu * -math.expm1(-lam * t)
        assert lhs <= smoothing_constant("difference", nu) * t**nu * (1.0 + 1e-12)


def difference_ratio(u, nu):
    """g(u) = (1 - e^{-u}) / u^nu, whose supremum over u > 0 is C(nu)."""
    return -np.expm1(-u) / u**nu


# The dense grid of the supremum property: 12 decades, 200 points per decade.
SUP_GRID = np.logspace(-8.0, 4.0, 2401)


class TestSharpConstantRoot:
    """C(nu) against a grid, its root condition, and a scipy maximiser."""

    @given(nu=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(nu=math.nextafter(0.0, 1.0))
    @example(nu=1e-300)
    @example(nu=1.0 - 2.0**-53)
    @settings(max_examples=200, deadline=None)
    def test_supremum_dominates_grid_and_is_attained_at_the_root(self, nu):
        c = smoothing_constant("difference", nu)
        # a few ulps of headroom: g is flat at its maximum, so a grid point next
        # to the maximiser can round above the value computed at the root
        assert np.all(difference_ratio(SUP_GRID, nu) <= c * (1.0 + 4e-16))

        # root of u / expm1(u) = nu in w = log u by scipy's Brent; the bounds
        # e^{-u} <= u / expm1(u) <= e^{-u/2} bracket it, widened here so that the
        # bracket's signs hold under rounding when nu is within ulps of 1
        def excess(w):
            u = math.exp(w)
            if u > 1.0:
                return math.log(u) - u - math.log1p(-math.exp(-u)) - math.log(nu)
            return math.log(u / math.expm1(u)) - math.log(nu)

        log_nu = math.log(nu)
        w_star = brentq(excess, math.log(-log_nu) - 1.0, math.log(-2.0 * log_nu) + 1.0,
                        xtol=1e-15)
        assert c == pytest.approx(float(difference_ratio(math.exp(w_star), nu)), rel=1e-15)

    @pytest.mark.parametrize("kind, scale", [("difference", 1.0), ("convolution", 1.0),
                                             ("integral", 2.0)])
    def test_all_kinds_match_a_bounded_search(self, kind, scale):
        # sup_u (1 - e^{-scale u}) / u^nu, searched in w = log u by scipy's bounded Brent
        # 1e-20: 1 - exponent rounds to 1, the limit case of the two last kinds
        for exponent in [1e-20, 1e-6, 1e-3, *np.linspace(0.02, 0.98, 25), 1.0 - 1e-3,
                         1.0 - 1e-6]:
            nu = exponent if kind == "difference" else 1.0 - exponent
            res = minimize_scalar(
                lambda w: -float(difference_ratio(scale * math.exp(w), nu)) * scale**nu,
                bounds=(-40.0, 10.0), method="bounded", options={"xatol": 1e-12},
            )
            assert smoothing_constant(kind, exponent) == pytest.approx(-res.fun, rel=1e-12)


class TestStochasticConvolutionEnergy:
    def test_single_mode_against_quadrature(self):
        x = coeffs(0.0, 1.0)  # e_2, lam_2 = 4 pi^2
        value = stochastic_convolution_energy(1.0, 0.0, 0.01, x)
        # (1 - e^{-0.08 pi^2})/2 to 30 digits with mpmath, equal to the quadrature value
        assert value == pytest.approx(0.272979630636377477150092335217, rel=1e-14)
        assert value == pytest.approx(quad_energy(1.0, 0.0, 0.01, x), rel=1e-10)

    def test_long_time_limit_recovers_half_norm(self):
        x = coeffs(1.0, -2.0, 0.5, 1.5)
        value = stochastic_convolution_energy(1.0, 0.0, 100.0, x)
        assert value == pytest.approx(0.5 * hdot_norm(0.0, x) ** 2, rel=1e-12)

    def test_sharp_upper_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(16)
            rho = rng.uniform(0.0, 1.0)
            delta = 10.0 ** rng.uniform(-4.0, 0.0)
            energy = stochastic_convolution_energy(rho, 0.1, 0.1 + delta, x)
            bound = (
                0.5
                * smoothing_constant("integral", rho)
                * delta ** (1.0 - rho)
                * hdot_norm(0.0, x) ** 2
            )
            assert energy <= bound * (1.0 + 1e-12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            stochastic_convolution_energy(0.5, 0.3, 0.3, coeffs(1.0, 1.0))


class TestDeterministicConvolutionNorm:
    def test_single_mode_closed_form(self):
        # at rho = 1 the norm for e_k is 1 - e^{-lam_k delta}; for e_3, lam_3 = 9 pi^2
        # and delta = 0.01, 1 - e^{-0.09 pi^2} to 30 digits with mpmath
        value = deterministic_convolution_norm(1.0, 0.0, 0.01, coeffs(0.0, 0.0, 1.0))
        assert value == pytest.approx(0.588630892649375099653916504839, rel=1e-14)
        assert value <= 1.0

    def test_small_interval_linearizes(self):
        x = coeffs(0.3, -1.0, 0.4, 0.2)
        delta = 1e-7
        value = deterministic_convolution_norm(0.0, 0.0, delta, x)
        assert value == pytest.approx(delta * hdot_norm(0.0, x), rel=1e-3)
        assert value == pytest.approx(quad_flow_norm(0.0, 0.0, delta, x), rel=1e-10)

    def test_sharp_upper_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(16)
            rho = rng.uniform(0.0, 1.0)
            delta = 10.0 ** rng.uniform(-4.0, 0.0)
            value = deterministic_convolution_norm(rho, 0.0, delta, x)
            bound = (
                smoothing_constant("convolution", rho)
                * delta ** (1.0 - rho)
                * hdot_norm(0.0, x)
            )
            assert value <= bound * (1.0 + 1e-12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            deterministic_convolution_norm(0.5, 0.4, 0.2, coeffs(1.0, 1.0))


@pytest.mark.parametrize("quantity", [stochastic_convolution_energy,
                                      deterministic_convolution_norm])
# a column of N coefficients would broadcast against the eigenvalues
@pytest.mark.parametrize("rho, tau1, x, message", [
    (-0.25, 0.0, coeffs(1.0, 1.0), r"^rho must lie in \[0, 1\], got -0.25$"),
    (1.5, 0.0, coeffs(1.0, 1.0), r"^rho must lie in \[0, 1\], got 1.5$"),
    (0.5, -0.1, coeffs(1.0, 1.0), "^interval start must be >= 0, got -0.1$"),
    (0.5, 0.0, np.ones((2, 1)), r"coefficients have shape \(2, 1\)$"),
], ids=["rho-negative", "rho-above-one", "negative-start", "column"])
def test_convolution_arguments_rejected(quantity, rho, tau1, x, message):
    with pytest.raises(ValueError, match=message):
        quantity(rho, tau1, 0.5, x)


class TestExactnessAgainstQuadrature:
    def test_random_instances_match_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(64)
            rho = rng.uniform(0.0, 1.0)
            tau1 = rng.uniform(0.0, 0.5)
            tau2 = tau1 + 10.0 ** rng.uniform(-3.0, -0.3)
            energy = stochastic_convolution_energy(rho, tau1, tau2, x)
            assert energy == pytest.approx(quad_energy(rho, tau1, tau2, x), rel=1e-8)
            flow = deterministic_convolution_norm(rho, tau1, tau2, x)
            assert flow == pytest.approx(quad_flow_norm(rho, tau1, tau2, x), rel=1e-8)


class TestGaussLegendreOracle:
    """The lemma suite's composite Gauss-Legendre oracle against adaptive quadrature."""

    @pytest.mark.parametrize("n_modes, delta", [(64, 1e-4), (64, 0.3), (256, 1e-4),
                                                (256, 2e-2), (256, 0.5)])
    def test_matches_adaptive_quadrature(self, n_modes, delta):
        rng = np.random.default_rng(n_modes)
        for rho in (0.0, 0.37, 1.0):
            x = rng.standard_normal(n_modes)
            tau1 = rng.uniform(0.0, 0.5)
            energy, norm = _convolution_quad_oracles(rho, tau1, tau1 + delta, x)
            assert energy == pytest.approx(quad_energy(rho, tau1, tau1 + delta, x), rel=1e-12)
            assert norm == pytest.approx(quad_flow_norm(rho, tau1, tau1 + delta, x), rel=1e-12)

    def test_single_mode_closed_form(self):
        # int_0^d e^{-2 lam u} du = (1 - e^{-2 lam d}) / (2 lam) at lam = pi^2, x = 1
        lam, delta = math.pi**2, 0.25
        energy, norm = _convolution_quad_oracles(0.0, 0.0, delta, coeffs(1.0))
        assert energy == pytest.approx(-math.expm1(-2.0 * lam * delta) / (2.0 * lam), rel=1e-14)
        assert norm == pytest.approx(-math.expm1(-lam * delta) / lam, rel=1e-14)


class TestVanishingWindowLimit:
    def test_both_quantities_decrease_to_zero_on_dyadic_windows(self):
        x = np.random.default_rng(3).standard_normal(32)
        tau2 = 1.0
        deltas = [2.0**-j for j in range(1, 16)]
        energies = [
            stochastic_convolution_energy(0.7, tau2 - d, tau2, x) for d in deltas
        ]
        flows = [
            deterministic_convolution_norm(0.7, tau2 - d, tau2, x) for d in deltas
        ]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert all(b < a for a, b in zip(flows, flows[1:]))
        # both quantities scale like delta^{1-rho} = delta^{0.3} here
        assert energies[-1] < 0.1 * energies[0]
        assert flows[-1] < 0.1 * flows[0]
