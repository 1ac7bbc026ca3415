"""Noise sampling and Hilbert-Schmidt norm tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from spdelab.noise import NoiseStream, burkholder_constant, example_covariance
from spdelab.spectrum import dirichlet_laplacian_1d, hdot_norm


def increment(cov, h, stream, step_index):
    """The kernel's Wiener increment of one path-step: mode k's normal times sqrt(q_k h)."""
    return np.sqrt(cov * h) * stream.step_normals(step_index, cov.size)


class TestExampleCovariance:
    def test_first_mode_is_degenerate(self):
        assert example_covariance(4)[0] == 0.0

    def test_second_mode_value(self):
        # 1/(2 ln(2)^2) to 30 digits with mpmath
        q = example_covariance(2)
        assert q[1] == pytest.approx(1.04068449050280389893479080187, rel=1e-14)

    def test_eighth_mode_value(self):
        # 1/(8 ln(8)^2) by direct high-precision arithmetic
        q = example_covariance(8)
        assert q[7] == pytest.approx(0.0289079025139667749704108556074, rel=1e-14)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            example_covariance(0)


class TestNoiseStream:
    def test_fresh_identical_streams_reproduce(self):
        a = NoiseStream(123, 5).step_normals(7, 16)
        b = NoiseStream(123, 5).step_normals(7, 16)
        np.testing.assert_array_equal(a, b)

    def test_revisiting_a_step_reproduces(self):
        stream = NoiseStream(123, 5)
        first = stream.step_normals(3, 8).copy()
        stream.step_normals(9, 8)
        np.testing.assert_array_equal(stream.step_normals(3, 8), first)

    def test_draws_are_truncation_consistent(self):
        # reading more modes extends the block without changing its prefix
        few = NoiseStream(9, 2).step_normals(4, 16)
        many = NoiseStream(9, 2).step_normals(4, 64)
        np.testing.assert_array_equal(many[:16], few)

    def test_paths_and_steps_are_disjoint(self):
        base = NoiseStream(77, 0).step_normals(0, 8)
        assert not np.array_equal(NoiseStream(77, 1).step_normals(0, 8), base)
        assert not np.array_equal(NoiseStream(77, 0).step_normals(1, 8), base)
        assert not np.array_equal(NoiseStream(78, 0).step_normals(0, 8), base)

    # NEP 19 promises no stable Generator streams across numpy releases, and the
    # stream writes numpy's private Philox state dict itself; these values (numpy
    # 2.4.6) make a change of stream or of that format fail loudly instead of
    # silently moving every Monte-Carlo number.
    @pytest.mark.parametrize(
        "seed, path, step, expected",
        [
            (0, 0, 0, [-0.8025458906390128, 0.45751928097784245,
                       -0.31455873558038694, 0.726455946897366]),
            (12345, 7, 99, [1.1168102085082816, 0.8458011677243222,
                            -0.14237393611086488, 0.6016783796334495]),
        ],
    )
    def test_golden_values(self, seed, path, step, expected):
        assert NoiseStream(seed, path).step_normals(step, 4).tolist() == expected

    # The stream contract, against a generator that shares none of the stream's
    # state-dict code: segment j of (seed, path) is Philox keyed by the spawned
    # seed sequence with counter (0, 0, j, 0).  The counter goes in as a uint64
    # array: Philox converts a list holding an int >= 2^63 through float64.
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        path=st.integers(min_value=0, max_value=2**32),
        step=st.one_of(
            st.integers(min_value=0, max_value=2**16),
            st.integers(min_value=2**32, max_value=2**64 - 1),
        ),
        n=st.integers(min_value=0, max_value=512),
    )
    @example(seed=0, path=0, step=2**63 + 1, n=1)
    @example(seed=12345, path=7, step=2**64 - 1, n=512)
    @settings(max_examples=60, deadline=None)
    def test_segments_match_a_fresh_philox(self, seed, path, step, n):
        key = SeedSequence(seed, spawn_key=(path,)).generate_state(2, np.uint64)
        counter = np.array([0, 0, step, 0], dtype=np.uint64)
        expected = Generator(Philox(key=key, counter=counter)).standard_normal(n)
        stream = NoiseStream(seed, path)
        np.testing.assert_array_equal(stream.step_normals(step, n), expected)
        rows = np.full((2, n), np.nan)
        row = rows[1]
        assert stream.step_normals(step, n, row) is row
        np.testing.assert_array_equal(rows[1], expected)
        assert np.isnan(rows[0]).all()

    @pytest.mark.parametrize(
        "out",
        [np.empty(8, dtype=np.float32), np.empty(16)[::2], np.empty(7), np.empty((8, 1))],
        ids=["float32", "non-contiguous", "wrong-length", "two-dimensional"],
    )
    def test_bad_out_is_rejected(self, out):
        with pytest.raises((TypeError, ValueError)):
            NoiseStream(3, 1).step_normals(2, 8, out)

    def test_negative_indices_are_rejected(self):
        with pytest.raises(ValueError, match="^path index must be >= 0, got -1$"):
            NoiseStream(3, -1)
        with pytest.raises(ValueError, match="^step index must be >= 0, got -1$"):
            NoiseStream(3, 1).step_normals(-1, 8)


class TestSampleIncrement:
    def test_degenerate_mode_is_zero(self):
        cov = np.array([0.0, 1.0])
        inc = increment(cov, 0.5, NoiseStream(0, 0), 0)
        assert inc[0] == 0.0
        assert inc[1] != 0.0

    # each step owns its counter segment, so one stream yields the draws that a
    # fresh stream per step would
    def test_sample_variance_matches_rate(self):
        cov = np.array([1.0])
        h = 0.01
        stream = NoiseStream(42, 0)
        draws = np.array([increment(cov, h, stream, j)[0] for j in range(100_000)])
        se = h * math.sqrt(2.0 / draws.size)
        assert abs(draws.var() - h) < 3.0 * se

    def test_bitwise_identical_on_fresh_streams(self):
        cov = example_covariance(8)
        a = increment(cov, 0.1, NoiseStream(5, 3), 2)
        b = increment(cov, 0.1, NoiseStream(5, 3), 2)
        np.testing.assert_array_equal(a, b)


class TestGaussianity:
    def test_standardized_moments(self):
        stream = NoiseStream(11, 0)
        z = np.array([stream.step_normals(j, 1)[0] for j in range(100_000)])
        n = z.size
        assert abs(z.mean()) < 3.0 / math.sqrt(n)
        kurtosis = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
        assert abs(kurtosis) < 0.1

    def test_independence_across_modes(self):
        stream = NoiseStream(17, 0)
        draws = np.array([stream.step_normals(j, 4) for j in range(100_000)])
        corr = np.corrcoef(draws.T)
        off_diagonal = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diagonal)) < 3.0 / math.sqrt(draws.shape[0])


def hs_norm(op, q, phi, r):
    """Smoothness-weighted Hilbert-Schmidt norm sqrt(sum_k lam_k^r q_k phi_k^2) of
    the diagonal operator phi against the covariance q: the r-norm of sqrt(q) phi."""
    return hdot_norm(op, r, np.sqrt(q) * phi)


class TestHSNorms:
    def test_identity_norm_is_truncated_trace(self):
        n = 100
        cov = example_covariance(n)
        ones = np.ones(n)
        op = dirichlet_laplacian_1d(n)
        assert hs_norm(op, cov, ones, 0.0) == pytest.approx(
            math.sqrt(float(np.sum(cov))), rel=1e-14
        )
        # finite and increasing with the truncation dimension
        smaller = hs_norm(dirichlet_laplacian_1d(50), example_covariance(50), np.ones(50), 0.0)
        assert smaller < hs_norm(op, cov, ones, 0.0) < math.inf

    def test_zero_operator(self):
        cov = example_covariance(5)
        op = dirichlet_laplacian_1d(5)
        assert hs_norm(op, cov, np.zeros(5), 0.0) == 0.0

    def test_single_mode(self):
        cov = np.array([4.0])
        op = dirichlet_laplacian_1d(1)
        phi = np.array([3.0])
        assert hs_norm(op, cov, phi, 0.0) == pytest.approx(6.0)

    def test_weighted_norm_reduces_at_zero_smoothness(self):
        n = 16
        op = dirichlet_laplacian_1d(n)
        cov = example_covariance(n)
        phi = np.linspace(0.5, 2.0, n)
        unweighted = math.sqrt(float(np.sum(cov * phi**2)))
        assert hs_norm(op, cov, phi, 0.0) == pytest.approx(unweighted, rel=1e-14)

    def test_weighted_norm_single_mode(self):
        op = dirichlet_laplacian_1d(1)
        cov = np.array([1.0])
        phi = np.array([1.0])
        assert hs_norm(op, cov, phi, 2.0) == pytest.approx(np.pi**2, rel=1e-14)

    def test_borderline_weighting_grows_without_bound(self):
        # with positive smoothness weight the truncated sums keep growing
        values = []
        for n in (100, 1000, 10000):
            op = dirichlet_laplacian_1d(n)
            cov = example_covariance(n)
            values.append(hs_norm(op, cov, np.ones(n), 0.5))
        assert values[0] < values[1] < values[2]
        # squared-norm increments do not shrink: the series diverges
        squared = [v**2 for v in values]
        assert squared[2] - squared[1] > squared[1] - squared[0]


class TestBurkholderConstant:
    def test_p_two_is_one(self):
        assert burkholder_constant(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_p_four_value(self):
        assert burkholder_constant(4.0) == pytest.approx(36.0 * 256.0 / 81.0, rel=1e-14)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            burkholder_constant(1.5)
