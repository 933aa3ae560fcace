"""Tests for bivariate Gaussian utilities."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gaussians import gauss2d, moments_to_ellipse, rotation_covariance

from taylor_oracle import Taylor, seed, tsum
from taylor_oracle.model import gauss2d_taylor, rotation_covariance_taylor


class TestGauss2d:
    def test_peak_value_isotropic(self):
        # N(0, s^2 I) at the origin is 1 / (2 pi s^2).
        val = gauss2d(0.0, 0.0, 4.0, 0.0, 4.0)
        np.testing.assert_allclose(val, 1.0 / (2 * np.pi * 4.0))

    def test_integrates_to_one(self):
        xs = np.linspace(-12, 12, 241)
        dx, dy = np.meshgrid(xs, xs)
        dens = gauss2d(dx, dy, 2.0, 0.5, 1.5)
        total = dens.sum() * (xs[1] - xs[0]) ** 2
        np.testing.assert_allclose(total, 1.0, atol=1e-3)

    def test_correlated_matches_scipy(self):
        from scipy.stats import multivariate_normal

        cov = np.array([[2.0, 0.7], [0.7, 1.2]])
        rv = multivariate_normal(mean=[0, 0], cov=cov)
        pts = np.array([[0.3, -0.5], [1.0, 2.0], [-2.0, 0.1]])
        ours = gauss2d(pts[:, 0], pts[:, 1], 2.0, 0.7, 1.2)
        np.testing.assert_allclose(ours, rv.pdf(pts), rtol=1e-12)

    def test_non_positive_definite_raises(self):
        import pytest

        with pytest.raises(ValueError):
            gauss2d(0.0, 0.0, 1.0, 2.0, 1.0)


class TestGauss2dTaylor:
    def test_value_matches_numpy(self):
        ux, uy = seed([0.4, -0.3])
        px = np.array([0.0, 1.0, 2.0])
        py = np.array([0.0, -1.0, 0.5])
        dens = gauss2d_taylor(px - ux, py - uy, 1.5, 0.2, 0.9)
        expected = gauss2d(px - 0.4, py + 0.3, 1.5, 0.2, 0.9)
        np.testing.assert_allclose(dens.val, expected, rtol=1e-12)

    def test_position_gradient_matches_fd(self):
        from taylor_oracle import check_gradient, check_hessian

        px = np.array([0.0, 1.0, -1.5])
        py = np.array([0.5, -0.5, 1.0])

        def fn(v):
            ux, uy = v
            return tsum(gauss2d_taylor(px - ux, py - uy, 1.2, 0.3, 0.8))

        check_gradient(fn, np.array([0.1, -0.2]))
        check_hessian(fn, np.array([0.1, -0.2]))

    def test_covariance_gradient_matches_fd(self):
        from taylor_oracle import check_gradient, check_hessian

        px, py = np.array([0.5, 1.5]), np.array([-0.5, 0.3])

        def fn(v):
            sxx, sxy, syy = v
            return tsum(gauss2d_taylor(px, py, sxx, sxy, syy))

        x0 = np.array([1.4, 0.2, 1.1])
        check_gradient(fn, x0)
        check_hessian(fn, x0, rtol=5e-4, atol=5e-5)

    def test_joint_position_and_shape_indices(self):
        # Density depends on 5 params: union of sparse index sets.
        vs = seed([0.0, 0.0, 1.3, 0.1, 0.9])
        ux, uy, sxx, sxy, syy = vs
        d = gauss2d_taylor(1.0 - ux, 0.5 - uy, sxx, sxy, syy)
        assert d.idx == (0, 1, 2, 3, 4)


class TestRotationCovariance:
    def test_circular(self):
        sxx, sxy, syy = rotation_covariance(1.0, 0.7, 2.0)
        np.testing.assert_allclose([sxx, sxy, syy], [4.0, 0.0, 4.0], atol=1e-12)

    def test_aligned_ellipse(self):
        sxx, sxy, syy = rotation_covariance(0.5, 0.0, 2.0)
        np.testing.assert_allclose([sxx, sxy, syy], [4.0, 0.0, 1.0], atol=1e-12)

    def test_rotation_by_90_swaps_axes(self):
        a = rotation_covariance(0.5, 0.0, 2.0)
        b = rotation_covariance(0.5, np.pi / 2, 2.0)
        np.testing.assert_allclose([b[0], b[2]], [a[2], a[0]], atol=1e-12)

    def test_taylor_matches_numpy(self):
        rho, theta, sc = 0.6, 0.9, 1.7
        expected = rotation_covariance(rho, theta, sc)
        vs = seed([rho, theta, sc])
        got = rotation_covariance_taylor(*vs)
        np.testing.assert_allclose([g.val for g in got], expected, rtol=1e-12)

    def test_moments_roundtrip(self):
        rho, theta, sc = 0.45, 1.1, 2.3
        sxx, sxy, syy = rotation_covariance(rho, theta, sc)
        rho2, theta2, sc2 = moments_to_ellipse(sxx, sxy, syy)
        np.testing.assert_allclose([rho2, theta2, sc2], [rho, theta, sc], rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(min_value=0.1, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=np.pi - 1e-3),
    sc=st.floats(min_value=0.2, max_value=5.0),
)
def test_property_rotation_covariance_psd(rho, theta, sc):
    sxx, sxy, syy = rotation_covariance(rho, theta, sc)
    det = sxx * syy - sxy * sxy
    assert sxx > 0 and syy > 0
    assert det > 0 or np.isclose(det, (sc * sc * rho) ** 2, rtol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    rho=st.floats(min_value=0.15, max_value=0.95),
    theta=st.floats(min_value=0.05, max_value=np.pi - 0.05),
    sc=st.floats(min_value=0.3, max_value=4.0),
)
def test_property_moments_roundtrip(rho, theta, sc):
    sxx, sxy, syy = rotation_covariance(rho, theta, sc)
    rho2, theta2, sc2 = moments_to_ellipse(sxx, sxy, syy)
    np.testing.assert_allclose(rho2, rho, rtol=1e-6)
    np.testing.assert_allclose(sc2, sc, rtol=1e-6)
    dtheta = abs(theta2 - theta) % np.pi
    assert min(dtheta, np.pi - dtheta) < 1e-5 or rho > 0.999
