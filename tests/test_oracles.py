"""Tests of the test-side Gaussian oracle: the library's series and the scheme's recurrence."""

import numpy as np
import pytest

from spdelab.spectrum import stochastic_convolution_energy

from oracles import GaussianLaw, euler_gap_variance, linear_additive_model


@pytest.mark.parametrize("t", [1e-4, 0.1, 2.0])
def test_exact_variance_sums_to_the_convolution_energy(t):
    model = linear_additive_model(256)
    energy = stochastic_convolution_energy(0.0, 0.0, t, np.sqrt(model.covariance))
    assert float(np.sum(GaussianLaw.exact(model).variance(t))) == pytest.approx(energy, rel=1e-14)


# The mean and variance of x_{j+1} = b (x_j + g sqrt(q h) z_j), b = e^{-lam h}, its
# covariance with x at the anchor, and its gap's variance to the exact step
# y_{j+1} = b y_j + sigma z_j on the same normals, iterated step by step; lam_N h = 10
# puts the stiffest modes far past the resolved range, and keeps every value normal
def test_euler_laws_follow_the_schemes_recurrence():
    h, anchor, lags = 1e-3, 7, (1, 4, 25)
    model = linear_additive_model(32, g=0.7, x0=np.linspace(1.0, 0.0, 32))
    lam, g2q = model.eigenvalues, 0.49 * model.covariance
    b = np.exp(-lam * h)
    noise = b**2 * g2q * h
    exact_sd = np.sqrt(GaussianLaw.exact(model).variance(h))  # the exact law one step from 0
    law = GaussianLaw.euler(model, h)
    mean, var, gap = model.initial, np.zeros(32), np.zeros(32)
    for j in range(1, anchor + max(lags) + 1):
        mean, var = b * mean, b**2 * var + noise
        gap = b**2 * gap + (np.sqrt(noise) - exact_sd) ** 2
        if j == anchor:
            anchor_var = cov = var
        elif j > anchor:
            cov = b * cov  # the noise after the anchor is independent of x at the anchor
        for oracle, direct in ((law.mean(j * h), mean), (law.variance(j * h), var),
                               (euler_gap_variance(model, h, j * h), gap)):
            np.testing.assert_allclose(oracle, direct, rtol=1e-12, atol=0.0)
        if j - anchor in lags:
            np.testing.assert_allclose(law.increment_variance(anchor * h, (j - anchor) * h),
                                       var + anchor_var - 2.0 * cov, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(law.stationary_variance(), noise / (1.0 - b**2), rtol=1e-12)


def test_euler_law_holds_on_its_grid_only():
    with pytest.raises(ValueError, match="not on the Euler grid"):
        GaussianLaw.euler(linear_additive_model(8), 1e-3).variance(2.5e-3)


# Acceptance 5's two windows, whose Euler moments bend the fitted slope away from
# the predictions 0.5 and 0.25, and further at p = 4 than at p = 2
@pytest.mark.parametrize("n, h, anchor, s, slopes", [
    (64, 2e-5, 100, 0.0, {2.0: 0.4789, 4.0: 0.4849}),
    (256, 1.2e-3, 64, 0.5, {2.0: 0.2939, 4.0: 0.3135}),
], ids=["s0", "s0.5"])
def test_closed_form_euler_slopes_of_acceptance_5(n, h, anchor, s, slopes):
    law = GaussianLaw.euler(linear_additive_model(n), h)
    lags = [m * h for m in (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)]
    for p, slope in slopes.items():
        assert law.moment_slope(s, anchor * h, lags, p) == pytest.approx(slope, abs=5e-5)
