"""Tests for the per-source ELBO: derivative correctness, model structure,
and inference quality on synthetic data."""

import numpy as np
import pytest

from taylor_oracle.check import finite_difference_gradient
from repro.constants import GALAXY, STAR
from repro.core import CatalogEntry, default_priors, elbo, make_context
from repro.core.params import FREE, canonical_to_free
from repro.core.single import (
    OptimizeConfig,
    initial_params,
    optimize_source,
    to_catalog_entry,
)
from repro.perf.counters import Counters
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image


def make_scene(entry, shape=(28, 28), seed=0, bands=(1, 2, 3), sky=100.0,
               calib=100.0, fwhm=3.0):
    rng = np.random.default_rng(seed)
    images = []
    for band in bands:
        meta = ImageMeta(band=band, wcs=AffineWCS.translation(0.0, 0.0),
                         psf=default_psf(fwhm), sky_level=sky, calibration=calib)
        images.append(render_image([entry], meta, shape, rng=rng))
    return images


#: Test sources sit on their type's color locus (see default_priors), as a
#: typical star/galaxy drawn from the synthetic universe would.
STAR_ENTRY = CatalogEntry(position=[14.0, 13.0], is_galaxy=False, flux_r=25.0,
                          colors=[1.5, 1.1, 0.25, 0.05])
GAL_ENTRY = CatalogEntry(position=[14.0, 13.0], is_galaxy=True, flux_r=60.0,
                         colors=[0.7, 0.45, 0.6, 0.45], gal_radius_px=2.0,
                         gal_axis_ratio=0.6, gal_angle=0.8, gal_frac_dev=0.4)


@pytest.fixture(scope="module")
def star_ctx():
    priors = default_priors()
    images = make_scene(STAR_ENTRY)
    counters = Counters()
    return make_context(images, STAR_ENTRY.position, priors,
                        counters=counters), counters


@pytest.fixture(scope="module")
def star_free(star_ctx):
    ctx, _ = star_ctx
    return canonical_to_free(
        initial_params(STAR_ENTRY, ctx.priors).to_canonical(), ctx.u_center
    )


class TestContext:
    def test_patches_built_per_image(self, star_ctx):
        ctx, _ = star_ctx
        assert len(ctx.patches) == 3
        assert ctx.n_active_pixels == sum(p.n_pixels for p in ctx.patches)

    def test_backgrounds_default_to_sky(self, star_ctx):
        ctx, _ = star_ctx
        for p in ctx.patches:
            assert np.all(p.background > 0)
            assert np.allclose(p.background, p.background[0])

    def test_counts_are_image_pixels(self, star_ctx):
        ctx, _ = star_ctx
        for p in ctx.patches:
            assert p.counts.min() >= 0


class TestElboEvaluation:
    def test_scalar_output_with_derivatives(self, star_ctx, star_free):
        ctx, _ = star_ctx
        out = elbo(ctx, star_free, order=2)
        assert out.val.shape == ()
        g = out.gradient(FREE.size)
        h = out.hessian(FREE.size)
        assert g.shape == (41,)
        assert h.shape == (41, 41)
        np.testing.assert_allclose(h, h.T, atol=1e-10)

    def test_counts_active_pixel_visits(self, star_ctx, star_free):
        ctx, counters = star_ctx
        before = counters.get("active_pixel_visits")
        elbo(ctx, star_free, order=2)
        after = counters.get("active_pixel_visits")
        assert after - before == ctx.n_active_pixels

    def test_gradient_matches_finite_differences(self, star_ctx, star_free):
        ctx, _ = star_ctx
        g_ad = elbo(ctx, star_free, order=2).gradient(FREE.size)
        f = lambda v: float(elbo(ctx, v, order=1).val)  # noqa: E731
        g_fd = finite_difference_gradient(f, star_free, eps=1e-5)
        np.testing.assert_allclose(
            g_ad, g_fd, rtol=1e-4, atol=1e-3 * (1 + np.abs(g_fd).max())
        )

    def test_hessian_subset_matches_finite_differences(self, star_ctx, star_free):
        ctx, _ = star_ctx
        h_ad = elbo(ctx, star_free, order=2).hessian(FREE.size)
        f = lambda v: float(elbo(ctx, v, order=1).val)  # noqa: E731
        idxs = [0, 1, 2, 3, 5, 29, 30]  # type, position, brightness, shape
        eps = 1e-4
        for i in idxs:
            for j in idxs:
                pp = star_free.copy(); pp[i] += eps; pp[j] += eps
                pm = star_free.copy(); pm[i] += eps; pm[j] -= eps
                mp = star_free.copy(); mp[i] -= eps; mp[j] += eps
                mm = star_free.copy(); mm[i] -= eps; mm[j] -= eps
                fd = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * eps * eps)
                assert abs(h_ad[i, j] - fd) / (abs(fd) + 1.0) < 5e-2

    def test_order1_matches_order2_value_and_gradient(self, star_ctx, star_free):
        ctx, _ = star_ctx
        o1 = elbo(ctx, star_free, order=1)
        o2 = elbo(ctx, star_free, order=2)
        np.testing.assert_allclose(float(o1.val), float(o2.val), rtol=1e-12)
        np.testing.assert_allclose(
            o1.gradient(FREE.size), o2.gradient(FREE.size), rtol=1e-10
        )
        assert o1.hess is None

    def test_variance_correction_lowers_bound(self, star_ctx, star_free):
        # The delta-approximation variance term subtracts from E[log F].
        ctx, _ = star_ctx
        with_corr = float(elbo(ctx, star_free, order=1).val)
        without = float(
            elbo(ctx, star_free, order=1, variance_correction=False).val
        )
        assert with_corr < without


class TestStarInference:
    def test_star_recovered_all_bands(self):
        # With all five bands the stellar color locus identifies the type;
        # with fewer bands the posterior stays (correctly) more uncertain.
        priors = default_priors()
        images = make_scene(STAR_ENTRY, bands=(0, 1, 2, 3, 4), seed=1)
        ctx = make_context(images, STAR_ENTRY.position, priors)
        res = optimize_source(ctx, STAR_ENTRY, OptimizeConfig(max_iter=60))
        assert res.converged
        est = to_catalog_entry(res.params)
        assert est.prob_galaxy < 0.1
        assert abs(est.flux_r - STAR_ENTRY.flux_r) / STAR_ENTRY.flux_r < 0.15
        assert np.linalg.norm(est.position - STAR_ENTRY.position) < 0.3

    def test_partial_bands_leave_type_uncertain(self, star_ctx):
        # Only g,r,i observed: u-g and i-z color evidence is missing, so the
        # type posterior must be softer than the all-band case.
        ctx, _ = star_ctx
        res = optimize_source(ctx, STAR_ENTRY, OptimizeConfig(max_iter=60))
        est = to_catalog_entry(res.params)
        assert est.prob_galaxy < 0.5

    def test_newton_converges_in_tens_of_iterations(self, star_ctx):
        ctx, _ = star_ctx
        res = optimize_source(ctx, STAR_ENTRY, OptimizeConfig(max_iter=60))
        assert res.optim.n_iterations <= 45

    def test_elbo_improves_from_init(self, star_ctx, star_free):
        ctx, _ = star_ctx
        init_val = float(elbo(ctx, star_free, order=1).val)
        res = optimize_source(ctx, STAR_ENTRY, OptimizeConfig(max_iter=40))
        assert res.elbo > init_val

    def test_perturbed_init_recovers_position(self, star_ctx):
        ctx, _ = star_ctx
        shifted = CatalogEntry(
            position=STAR_ENTRY.position + np.array([0.8, -0.6]),
            is_galaxy=False, flux_r=15.0, colors=STAR_ENTRY.colors,
        )
        images = make_scene(STAR_ENTRY)
        ctx2 = make_context(images, shifted.position, ctx.priors)
        res = optimize_source(ctx2, shifted, OptimizeConfig(max_iter=40))
        est = to_catalog_entry(res.params)
        assert np.linalg.norm(est.position - STAR_ENTRY.position) < 0.35


class TestGalaxyInference:
    def test_galaxy_recovered(self):
        priors = default_priors()
        images = make_scene(GAL_ENTRY, shape=(30, 30), seed=3)
        ctx = make_context(images, GAL_ENTRY.position, priors)
        res = optimize_source(ctx, GAL_ENTRY, OptimizeConfig(max_iter=40))
        est = to_catalog_entry(res.params)
        assert est.prob_galaxy > 0.95
        assert abs(est.flux_r - GAL_ENTRY.flux_r) / GAL_ENTRY.flux_r < 0.2
        assert abs(est.gal_radius_px - GAL_ENTRY.gal_radius_px) < 0.8
        assert abs(est.gal_axis_ratio - GAL_ENTRY.gal_axis_ratio) < 0.25

    def test_faint_source_has_wide_posterior(self):
        priors = default_priors()
        faint = CatalogEntry(position=[14.0, 13.0], is_galaxy=False,
                             flux_r=1.5, colors=[1.1, 0.8, 0.4, 0.2])
        bright = STAR_ENTRY
        res = {}
        for name, entry in (("faint", faint), ("bright", bright)):
            images = make_scene(entry, seed=9)
            ctx = make_context(images, entry.position, priors)
            r = optimize_source(ctx, entry, OptimizeConfig(max_iter=40))
            est = to_catalog_entry(r.params)
            res[name] = est.flux_r_sd / est.flux_r
        assert res["faint"] > 2.0 * res["bright"]
