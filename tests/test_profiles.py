"""Tests for the galaxy-profile mixture-of-Gaussians approximations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.profiles import (
    GalaxyShape,
    convolved_components,
    dev_mixture,
    exp_mixture,
    fit_radial_mixture,
    galaxy_components,
    galaxy_density,
    mog,
    profile_dev,
    profile_exp,
)
from repro.psf import default_psf


def _radial_flux(profile, r_max=10.0, n=4000):
    r = np.linspace(1e-4, r_max, n)
    return np.trapezoid(profile(r) * 2 * np.pi * r, r)


class TestRadialProfiles:
    def test_exp_unit_flux(self):
        np.testing.assert_allclose(_radial_flux(profile_exp), 1.0, atol=2e-3)

    def test_dev_unit_flux(self):
        np.testing.assert_allclose(_radial_flux(profile_dev), 1.0, atol=5e-3)

    def test_exp_half_light_radius(self):
        # Half the flux should fall within r = 1 (unit effective radius).
        r = np.linspace(1e-4, 1.0, 4000)
        inner = np.trapezoid(profile_exp(r) * 2 * np.pi * r, r)
        np.testing.assert_allclose(inner, 0.5, atol=0.01)

    def test_dev_half_light_radius(self):
        # Truncation at 8 R_e shifts the enclosed fraction slightly above 1/2.
        r = np.linspace(1e-4, 1.0, 8000)
        inner = np.trapezoid(profile_dev(r) * 2 * np.pi * r, r)
        np.testing.assert_allclose(inner, 0.5, atol=0.05)

    def test_dev_steeper_than_exp_in_center(self):
        assert profile_dev(np.array([0.01]))[0] > profile_exp(np.array([0.01]))[0]

    def test_dev_truncated(self):
        assert profile_dev(np.array([9.0]))[0] == 0.0


class TestMixtureTables:
    def test_exp_mixture_normalized(self):
        w, v = exp_mixture()
        np.testing.assert_allclose(np.sum(w), 1.0, rtol=1e-9)
        assert all(x > 0 for x in v)
        assert list(v) == sorted(v)

    def test_dev_mixture_normalized(self):
        w, v = dev_mixture()
        np.testing.assert_allclose(np.sum(w), 1.0, rtol=1e-9)
        assert len(w) <= 8

    def test_exp_mixture_matches_profile(self):
        w, v = exp_mixture()
        r = np.linspace(0.05, 4.0, 200)
        approx = sum(
            wi * np.exp(-0.5 * r * r / vi) / (2 * np.pi * vi) for wi, vi in zip(w, v)
        )
        target = profile_exp(r)
        # flux-weighted relative error stays small where the light is
        err = np.abs(approx - target) * 2 * np.pi * r
        assert np.trapezoid(err, r) < 0.05

    def test_dev_mixture_matches_profile(self):
        w, v = dev_mixture()
        r = np.linspace(0.05, 6.0, 300)
        approx = sum(
            wi * np.exp(-0.5 * r * r / vi) / (2 * np.pi * vi) for wi, vi in zip(w, v)
        )
        target = profile_dev(r)
        err = np.abs(approx - target) * 2 * np.pi * r
        assert np.trapezoid(err, r) < 0.08

    def test_mixture_cached(self):
        assert exp_mixture() is exp_mixture()

    @pytest.mark.slow
    def test_committed_tables_are_the_fitters_output(self):
        """The default tables are generated, not hand-entered: the fitter
        reproduces them — to the bit on the SciPy they were generated
        with (1.17), to 1e-9 on any other."""
        import scipy

        for table, fitted in (
            (exp_mixture(), fit_radial_mixture(
                profile_exp, 6, r_max=mog.EXP_TRUNCATION)),
            (dev_mixture(), fit_radial_mixture(
                profile_dev, 8, r_max=mog.DEV_TRUNCATION, var_min=2e-4)),
        ):
            for committed, refit in zip(table, fitted):
                np.testing.assert_allclose(refit, committed, rtol=1e-9)
                if scipy.__version__.startswith("1.17."):
                    assert tuple(refit) == committed

    def test_other_component_counts_are_fitted(self, monkeypatch):
        calls = []

        def spy(profile, n_components, **kwargs):
            calls.append(n_components)
            return fit_radial_mixture(profile, n_components, **kwargs)

        monkeypatch.setattr(mog, "fit_radial_mixture", spy)
        exp_mixture.cache_clear()
        dev_mixture.cache_clear()
        try:
            exp_mixture(), dev_mixture()
            assert calls == []
            w, v = exp_mixture(4)
            assert calls == [4] and len(w) <= 4
            np.testing.assert_allclose(np.sum(w), 1.0, rtol=1e-9)
            assert (w, v) != exp_mixture()
            dev_mixture(5)
            assert calls == [4, 5]
        finally:
            # Drop the entries fitted through the spy.
            exp_mixture.cache_clear()
            dev_mixture.cache_clear()


class TestGalaxyShape:
    def test_covariance_matches_rotation(self):
        from repro.gaussians import rotation_covariance

        s = GalaxyShape(frac_dev=0.3, axis_ratio=0.6, angle=0.8, radius=2.5)
        np.testing.assert_allclose(
            s.covariance(), rotation_covariance(0.6, 0.8, 2.5), rtol=1e-12
        )

    def test_components_weights_sum_to_one(self):
        s = GalaxyShape(frac_dev=0.4, axis_ratio=0.7, angle=0.0, radius=1.5)
        comps = galaxy_components(s)
        np.testing.assert_allclose(sum(w for w, _ in comps), 1.0, rtol=1e-9)

    def test_pure_exp_has_no_dev_components(self):
        s = GalaxyShape(frac_dev=0.0, axis_ratio=0.7, angle=0.0, radius=1.5)
        comps = galaxy_components(s)
        assert len(comps) == len(exp_mixture()[0])

    def test_convolved_component_count(self):
        s = GalaxyShape(frac_dev=0.5, axis_ratio=0.7, angle=0.0, radius=1.5)
        psf = default_psf()
        n_gal = len(galaxy_components(s))
        assert len(convolved_components(s, psf)) == n_gal * psf.n_components

    def test_convolution_broadens(self):
        s = GalaxyShape(frac_dev=0.0, axis_ratio=1.0, angle=0.0, radius=1.0)
        psf = default_psf(fwhm=3.0)
        plain = galaxy_components(s)
        conv = convolved_components(s, psf)
        assert min(c[2][0] for c in conv) > min(c[1][0] for c in plain)


class TestGalaxyDensity:
    def test_unit_flux(self):
        s = GalaxyShape(frac_dev=0.5, axis_ratio=0.8, angle=0.3, radius=2.0)
        psf = default_psf(fwhm=3.0)
        xs = np.linspace(-40, 40, 401)
        dx, dy = np.meshgrid(xs, xs)
        total = galaxy_density(s, psf, dx, dy).sum() * (xs[1] - xs[0]) ** 2
        np.testing.assert_allclose(total, 1.0, atol=0.02)

    def test_elongation_direction(self):
        s = GalaxyShape(frac_dev=0.0, axis_ratio=0.3, angle=0.0, radius=3.0)
        psf = default_psf(fwhm=2.0)
        along = galaxy_density(s, psf, np.array([4.0]), np.array([0.0]))[0]
        across = galaxy_density(s, psf, np.array([0.0]), np.array([4.0]))[0]
        assert along > across

    def test_larger_radius_spreads_light(self):
        psf = default_psf(fwhm=2.0)
        small = GalaxyShape(0.0, 1.0, 0.0, 1.0)
        big = GalaxyShape(0.0, 1.0, 0.0, 4.0)
        d_small = galaxy_density(small, psf, 0.0, 0.0)
        d_big = galaxy_density(big, psf, 0.0, 0.0)
        assert d_small > d_big


@settings(max_examples=20, deadline=None)
@given(
    frac_dev=st.floats(min_value=0.0, max_value=1.0),
    axis=st.floats(min_value=0.2, max_value=1.0),
    angle=st.floats(min_value=0.0, max_value=np.pi),
    radius=st.floats(min_value=0.5, max_value=5.0),
)
def test_property_component_weights_normalized(frac_dev, axis, angle, radius):
    s = GalaxyShape(frac_dev, axis, angle, radius)
    comps = galaxy_components(s)
    np.testing.assert_allclose(sum(w for w, _ in comps), 1.0, rtol=1e-9)
    for _, (sxx, sxy, syy) in comps:
        assert sxx > 0 and syy > 0 and sxx * syy - sxy * sxy > 0
