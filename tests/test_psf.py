"""Tests for the Gaussian-mixture PSF and PSF fitting."""

import numpy as np
import pytest

from repro.psf import MixturePSF, default_psf


class TestMixturePSF:
    def test_weights_normalized(self):
        psf = MixturePSF(
            weights=np.array([2.0, 2.0]),
            means=np.zeros((2, 2)),
            covs=np.stack([np.eye(2), 4 * np.eye(2)]),
        )
        np.testing.assert_allclose(psf.weights.sum(), 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MixturePSF(np.ones(2), np.zeros((3, 2)), np.stack([np.eye(2)] * 2))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MixturePSF(np.array([1.0, -0.1]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("weights, match", [
        ([0.0, 0.0], "sum to zero"),
        ([1.0, np.nan], "component 1: weight"),
        ([np.inf, 1.0], "component 0: weight"),
    ])
    def test_unusable_weights_rejected(self, weights, match):
        # All-zero weights used to normalize to NaN without a word.
        with pytest.raises(ValueError, match=match):
            MixturePSF(np.array(weights), np.zeros((2, 2)),
                       np.stack([np.eye(2)] * 2))

    def test_non_finite_mean_rejected(self):
        means = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="component 1: mean"):
            MixturePSF(np.ones(2), means, np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("cov, match", [
        # The kernel reads only cov[0, 1]: an asymmetric matrix is ambiguous.
        ([[2.0, 0.5], [0.0, 2.0]], "not symmetric"),
        ([[1.0, 1.0], [1.0, 1.0]], "not positive definite"),   # singular
        ([[-1.0, 0.0], [0.0, -1.0]], "not positive definite"),
        ([[1.0, 0.0], [0.0, np.inf]], "not finite"),
    ])
    def test_unusable_covariance_rejected(self, cov, match):
        covs = np.stack([np.eye(2), np.array(cov)])
        with pytest.raises(ValueError, match="component 1: covariance") as err:
            MixturePSF(np.ones(2), np.zeros((2, 2)), covs)
        assert match in str(err.value)

    def test_density_integrates_to_one(self):
        psf = default_psf(fwhm=3.0)
        xs = np.linspace(-25, 25, 251)
        dx, dy = np.meshgrid(xs, xs)
        total = psf.density(dx, dy).sum() * (xs[1] - xs[0]) ** 2
        np.testing.assert_allclose(total, 1.0, atol=1e-3)

    def test_density_peak_at_center(self):
        psf = default_psf(fwhm=3.0)
        center = psf.density(0.0, 0.0)
        assert center > psf.density(1.0, 0.0) > psf.density(3.0, 0.0)

    def test_fwhm_roundtrip(self):
        # A single-Gaussian PSF's effective FWHM should equal the input FWHM.
        psf = default_psf(fwhm=3.4, wing_fraction=0.0)
        np.testing.assert_allclose(psf.fwhm(), 3.4, rtol=1e-6)

    def test_second_moment_isotropic(self):
        psf = default_psf(fwhm=2.8)
        m = psf.second_moment()
        np.testing.assert_allclose(m[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(m[0, 0], m[1, 1], rtol=1e-12)

    def test_components_iteration(self):
        psf = default_psf(fwhm=3.0)
        comps = list(psf.components())
        assert len(comps) == 2
        total_w = sum(w for w, _, _ in comps)
        np.testing.assert_allclose(total_w, 1.0)
