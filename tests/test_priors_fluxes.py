"""Tests for priors (Phi, Upsilon, Xi) and band-flux moments."""

import numpy as np
import pytest

from repro.constants import NUM_BANDS, NUM_COLORS, REFERENCE_BAND
from repro.core.fluxes import COLOR_COEFFS, colors_from_fluxes, flux_from_colors
from repro.core.priors import Priors, default_priors

from taylor_oracle import seed, Taylor
from taylor_oracle.model import flux_moments


class TestColorCoeffs:
    def test_reference_band_has_zero_coeffs(self):
        np.testing.assert_allclose(COLOR_COEFFS[REFERENCE_BAND], np.zeros(NUM_COLORS))

    def test_adjacent_band_structure(self):
        # Moving one band up from the reference adds exactly one color.
        np.testing.assert_allclose(COLOR_COEFFS[3], [0, 0, 1, 0])
        np.testing.assert_allclose(COLOR_COEFFS[4], [0, 0, 1, 1])
        np.testing.assert_allclose(COLOR_COEFFS[1], [0, -1, 0, 0])
        np.testing.assert_allclose(COLOR_COEFFS[0], [-1, -1, 0, 0])

    def test_fluxes_roundtrip_colors(self):
        colors = np.array([0.8, 0.5, 0.3, 0.2])
        fluxes = flux_from_colors(10.0, colors)
        assert fluxes[REFERENCE_BAND] == pytest.approx(10.0)
        np.testing.assert_allclose(colors_from_fluxes(fluxes), colors, rtol=1e-9)

    def test_color_definition_is_adjacent_log_ratio(self):
        fluxes = flux_from_colors(5.0, np.array([0.1, 0.2, 0.3, 0.4]))
        for i in range(NUM_COLORS):
            np.testing.assert_allclose(
                np.log(fluxes[i + 1] / fluxes[i]), 0.1 * (i + 1), rtol=1e-9
            )


class TestFluxMoments:
    def _seeded(self):
        vals = [1.0, 0.3, 0.5, -0.2, 0.1, 0.4, 0.1, 0.2, 0.15, 0.1]
        vs = seed(vals)
        r1, r2 = vs[0], vs[1]
        c1 = vs[2:6]
        c2 = vs[6:10]
        return r1, r2, c1, c2

    def test_reference_band_moments(self):
        r1, r2, c1, c2 = self._seeded()
        first, second = flux_moments(r1, r2, c1, c2, REFERENCE_BAND)
        np.testing.assert_allclose(float(first.val), np.exp(1.0 + 0.15), rtol=1e-9)
        np.testing.assert_allclose(float(second.val), np.exp(2.0 + 0.6), rtol=1e-9)

    def test_variance_nonnegative(self):
        r1, r2, c1, c2 = self._seeded()
        for band in range(NUM_BANDS):
            first, second = flux_moments(r1, r2, c1, c2, band)
            assert float(second.val) >= float(first.val) ** 2 - 1e-9

    def test_offband_includes_color_terms(self):
        r1, r2, c1, c2 = self._seeded()
        first, _ = flux_moments(r1, r2, c1, c2, 3)
        expected = np.exp((1.0 + 0.1) + 0.5 * (0.3 + 0.15))
        np.testing.assert_allclose(float(first.val), expected, rtol=1e-9)

    def test_moment_gradients_match_fd(self):
        from taylor_oracle import check_gradient, check_hessian

        def fn(vs):
            r1, r2 = vs[0], vs[1]
            c1, c2 = vs[2:6], vs[6:10]
            first, second = flux_moments(r1, r2, c1, c2, 4)
            return first + second

        x0 = np.array([0.5, 0.2, 0.1, 0.2, 0.3, 0.1, 0.05, 0.1, 0.2, 0.1])
        check_gradient(fn, x0)
        check_hessian(fn, x0, rtol=2e-4)


class TestPriors:
    def test_default_priors_valid(self):
        p = default_priors()
        assert 0 < p.prob_galaxy < 1
        np.testing.assert_allclose(p.k_weights.sum(axis=0), [1, 1], rtol=1e-9)

    def test_validation_rejects_bad_simplex(self):
        p = default_priors()
        bad = p.k_weights.copy()
        bad[0, 0] += 0.5
        with pytest.raises(ValueError):
            Priors(p.prob_galaxy, p.r_loc, p.r_var, bad, p.c_mean, p.c_var)

    def test_validation_rejects_negative_variance(self):
        p = default_priors()
        with pytest.raises(ValueError):
            Priors(p.prob_galaxy, p.r_loc, -p.r_var, p.k_weights, p.c_mean, p.c_var)

    def test_validation_rejects_bad_prob(self):
        p = default_priors()
        with pytest.raises(ValueError):
            Priors(1.5, p.r_loc, p.r_var, p.k_weights, p.c_mean, p.c_var)
