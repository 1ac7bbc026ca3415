"""Sine-basis transform tests: synthesis, analysis, and the round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab.transforms import analyze, sine_basis_matrix, synthesize


def direct_synthesis(x, grid_size):
    """Independent double-loop evaluation of the expansion on the grid."""
    out = np.zeros(grid_size - 1)
    for j in range(1, grid_size):
        y = j / grid_size
        out[j - 1] = sum(
            x[k - 1] * np.sqrt(2.0) * np.sin(k * np.pi * y) for k in range(1, len(x) + 1)
        )
    return out


class TestForward:
    def test_first_mode_at_midpoint(self):
        values = synthesize(np.array([1.0, 0.0, 0.0]), 8)[0]
        # y = 1/2 is grid node j = 4; sqrt(2) sin(pi/2) = sqrt(2)
        assert values[3] == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_zero_coefficients_give_zero_grid(self):
        values = synthesize(np.zeros(4), 8)[0]
        np.testing.assert_array_equal(values, np.zeros(7))

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        values = synthesize(x, 12)[0]
        np.testing.assert_allclose(values, direct_synthesis(x, 12), rtol=1e-12, atol=1e-12)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            synthesize(np.ones(8), 15)
        with pytest.raises(ValueError):
            sine_basis_matrix(8, 15)

    def test_basis_needs_a_mode(self):
        with pytest.raises(ValueError, match="^need at least one mode, got 0$"):
            sine_basis_matrix(0, 8)


class TestInverse:
    def test_recovers_second_mode(self):
        grid = synthesize(np.array([0.0, 1.0, 0.0, 0.0]), 16)[0]
        coeffs = analyze(grid, 4)[0]
        np.testing.assert_allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_zero_grid(self):
        coeffs = analyze(np.zeros(15), 4)[0]
        np.testing.assert_array_equal(coeffs, np.zeros(4))

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_modes=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, seed, n_modes):
        x = np.random.default_rng(seed).standard_normal(n_modes)
        grid = synthesize(x, 2 * n_modes + (n_modes % 3))[0]
        back = analyze(grid, n_modes)[0]
        np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-10)

    def test_parseval_on_band_limited_data(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        grid = synthesize(x, 16)[0]
        grid_norm_sq = float(np.sum(grid**2)) / 16.0
        assert grid_norm_sq == pytest.approx(float(np.sum(x**2)), rel=1e-10)


class TestOutputBuffers:
    # the solver reuses its buffers across steps, so `out=` must not change a bit
    def test_out_gives_the_same_bits_and_is_returned(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((5, 16))
        grid_out, coeff_out = np.empty((5, 63)), np.empty((5, 16))
        grid = synthesize(coeffs, 64, out=grid_out)
        assert grid is grid_out
        np.testing.assert_array_equal(grid, coeffs @ sine_basis_matrix(16, 64))
        back = analyze(grid, 16, out=coeff_out)
        assert back is coeff_out
        np.testing.assert_array_equal(back, grid @ sine_basis_matrix(16, 64).T / 64)
