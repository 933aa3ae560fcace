"""Tests for joint (block coordinate) optimization and posterior summaries."""

import numpy as np
import pytest

from repro.core import (
    CatalogEntry,
    JointConfig,
    default_priors,
    optimize_region,
    posterior_summary,
)
from repro.core.joint import (
    ContributionStore,
    RegionOptimizer,
    expected_contribution,
)
from repro.core.single import OptimizeConfig, initial_params
from repro.perf.counters import Counters
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image


def two_star_scene(sep=6.0, seed=0, shape=(36, 24)):
    """Two stars close enough that their PSFs overlap."""
    a = CatalogEntry(position=[12.0, 12.0], is_galaxy=False, flux_r=40.0,
                     colors=[1.5, 1.1, 0.25, 0.05])
    b = CatalogEntry(position=[12.0 + sep, 12.0], is_galaxy=False, flux_r=25.0,
                     colors=[1.2, 0.9, 0.2, 0.0])
    rng = np.random.default_rng(seed)
    images = []
    for band in (1, 2, 3):
        meta = ImageMeta(band=band, wcs=AffineWCS.translation(0.0, 0.0),
                         psf=default_psf(3.0), sky_level=100.0,
                         calibration=100.0)
        images.append(render_image([a, b], meta, shape, rng=rng))
    return [a, b], images


FAST = JointConfig(n_passes=2, single=OptimizeConfig(max_iter=25, grad_tol=3e-4))


class TestExpectedContribution:
    def test_contribution_positive_and_peaked(self):
        truth, images = two_star_scene()
        priors = default_priors()
        params = initial_params(truth[0], priors)
        contrib = expected_contribution(params, images[1], (4, 20, 4, 20))
        assert np.all(contrib >= 0)
        peak = np.unravel_index(np.argmax(contrib), contrib.shape)
        assert abs(peak[0] + 4 - 12) <= 1 and abs(peak[1] + 4 - 12) <= 1

    def test_contribution_scales_with_flux(self):
        truth, images = two_star_scene()
        priors = default_priors()
        p1 = initial_params(truth[0], priors)
        p2 = initial_params(truth[1], priors)
        c1 = expected_contribution(p1, images[1], (4, 20, 4, 20)).sum()
        c2 = expected_contribution(p2, images[1], (4, 20, 4, 20)).sum()
        assert c1 > c2


class TestRegionOptimizer:
    def test_model_images_include_all_sources(self):
        truth, images = two_star_scene()
        opt = RegionOptimizer(images, truth, default_priors(), FAST)
        model = opt.model[1]
        sky = images[1].meta.sky_level
        assert model.max() > sky * 1.5
        excess = (model - sky).sum()
        assert excess > 0

    def test_background_excludes_own_contribution(self):
        truth, images = two_star_scene()
        opt = RegionOptimizer(images, truth, default_priors(), FAST)
        bgs = opt.backgrounds_for(0)
        # Backgrounds are patch-shaped (no full-image canvas on the hot path).
        x0, x1, y0, y1 = opt._bounds[0][1]
        assert bgs[1].shape == (y1 - y0, x1 - x0)
        # Near source 0's center the background should be far below the
        # total model (its own flux removed), but still above plain sky
        # because source 1 leaks in.
        px, py = images[1].meta.wcs.sky_to_pix(truth[0].position)
        x, y = int(px), int(py)
        assert bgs[1][y - y0, x - x0] < opt.model[1][y, x]

    def test_patch_backgrounds_match_full_image_slices(self):
        # Regression for the hot-path fix: patch-shaped backgrounds passed
        # with bounds_list must produce the same active pixels as the old
        # full-image canvases.
        from repro.core.elbo import make_context

        truth, images = two_star_scene()
        opt = RegionOptimizer(images, truth, default_priors(), FAST)
        bgs = opt.backgrounds_for(0)
        bounds = opt._bounds[0]
        ctx_patch = make_context(
            images, opt.params[0].u, opt.priors,
            backgrounds=bgs, bounds_list=bounds,
        )
        full = []
        for i, im in enumerate(images):
            canvas = np.full(im.pixels.shape, im.meta.sky_level)
            x0, x1, y0, y1 = bounds[i]
            canvas[y0:y1, x0:x1] = bgs[i]
            full.append(canvas)
        ctx_full = make_context(
            images, opt.params[0].u, opt.priors,
            backgrounds=full, bounds_list=bounds,
        )
        assert len(ctx_patch.patches) == len(ctx_full.patches)
        for p, f in zip(ctx_patch.patches, ctx_full.patches):
            np.testing.assert_allclose(p.background, f.background)
            np.testing.assert_allclose(p.counts, f.counts)

    def test_bad_background_shape_rejected(self):
        from repro.core.elbo import make_context

        truth, images = two_star_scene()
        opt = RegionOptimizer(images, truth, default_priors(), FAST)
        bad = [np.zeros((3, 3)) for _ in images]
        with pytest.raises(ValueError):
            make_context(images, opt.params[0].u, opt.priors,
                         backgrounds=bad, bounds_list=opt._bounds[0])

    def test_frozen_entries_enter_model_images(self):
        truth, images = two_star_scene()
        frozen = [CatalogEntry([20.0, 24.0], False, 60.0,
                               [1.0, 0.8, 0.3, 0.1])]
        plain = RegionOptimizer(images, truth, default_priors(), FAST)
        with_halo = RegionOptimizer(images, truth, default_priors(), FAST,
                                    frozen_entries=frozen)
        # The halo source adds flux to the model but is not optimizable.
        assert with_halo.n_sources == plain.n_sources
        assert with_halo.model[1].sum() > plain.model[1].sum()
        px, py = images[1].meta.wcs.sky_to_pix(frozen[0].position)
        assert (with_halo.model[1][int(py), int(px)]
                > plain.model[1][int(py), int(px)])

    def test_update_source_changes_model_consistently(self):
        truth, images = two_star_scene()
        opt = RegionOptimizer(images, truth, default_priors(), FAST)
        before_total = opt.model[0].sum()
        opt.update_source(0)
        after_total = opt.model[0].sum()
        # The model stays finite and sky-dominated, and the bookkeeping
        # keeps model == sky + sum(contributions).
        recon = np.full(images[0].pixels.shape, images[0].meta.sky_level)
        for s in range(2):
            b = opt._bounds[s][0]
            x0, x1, y0, y1 = b
            recon[y0:y1, x0:x1] += opt._contrib[s][0]
        np.testing.assert_allclose(opt.model[0], recon, rtol=1e-9)
        assert np.isfinite(before_total) and np.isfinite(after_total)


class TestContributionStore:
    """Region setup renders through a store keyed by the rendered values:
    a warm store must give the bits a cold one does."""

    def _scene(self):
        truth, images = two_star_scene()
        halo = [CatalogEntry([20.0, 24.0], False, 60.0, [1.0, 0.8, 0.3, 0.1])]
        return truth, images, halo

    def _build(self, store, counters=None):
        truth, images, halo = self._scene()
        keys = None if store is None else [("field", i) for i in range(3)]
        return RegionOptimizer(images, truth, default_priors(), FAST,
                               counters or Counters(), frozen_entries=halo,
                               contributions=store, image_keys=keys)

    def test_warm_store_builds_bit_identical_model_images(self):
        cold = self._build(None)
        store = ContributionStore()
        first, counters = self._build(store), Counters()
        warm = self._build(store, counters)
        # Three sources (two own, one halo) on three images, all stored by
        # the first build and all reused by the second.
        assert len(store) == 9
        assert counters.get("contribution_renders") == 0
        assert counters.get("contribution_reuses") == 9
        for opt in (first, warm):
            for a, b in zip(opt.model, cold.model):
                assert np.array_equal(a, b)
            assert all(np.array_equal(x, y)
                       for row, ref in zip(opt._contrib, cold._contrib)
                       for x, y in zip(row, ref))

    def test_key_is_the_values(self):
        truth, images, _ = self._scene()
        priors, counters = default_priors(), Counters()
        store = ContributionStore()
        p = initial_params(truth[0], priors)
        b = (4, 20, 4, 20)
        first = store.contribution(p, images[1], 1, b, counters)
        assert store.contribution(initial_params(truth[0], priors),
                                  images[1], 1, b, counters) is first
        # Another image key, other bounds, other parameters: three renders.
        store.contribution(p, images[1], 2, b, counters)
        store.contribution(p, images[1], 1, (4, 20, 4, 21), counters)
        q = initial_params(truth[1], priors)
        store.contribution(q, images[1], 1, b, counters)
        assert counters.get("contribution_renders") == 4
        assert counters.get("contribution_reuses") == 1

    def test_stored_contribution_is_read_only(self):
        opt = self._build(ContributionStore())
        with pytest.raises(ValueError):
            opt._contrib[0][1][0, 0] = 0.0
        with pytest.raises(ValueError):
            opt._contrib[0][1] += 1.0

    def test_fold_back_renders_are_not_stored(self):
        store = ContributionStore()
        counters = Counters()
        opt = self._build(store, counters)
        opt.update_source(0)
        assert len(store) == 9
        assert counters.get("contribution_renders") == 9 + 3
        # The folded-back contribution is the optimizer's own to replace.
        assert opt._contrib[0][1].flags.writeable

    def test_shared_store_needs_image_keys(self):
        truth, images, _ = self._scene()
        with pytest.raises(ValueError, match="image_keys"):
            RegionOptimizer(images, truth, default_priors(), FAST,
                            contributions=ContributionStore())
        with pytest.raises(ValueError, match="one image key"):
            RegionOptimizer(images, truth, default_priors(), FAST,
                            contributions=ContributionStore(),
                            image_keys=[0])


class TestOptimizeRegion:
    @pytest.fixture(scope="class")
    def result(self):
        truth, images = two_star_scene()
        res = optimize_region(images, truth, default_priors(), FAST)
        return truth, res

    def test_both_sources_recovered(self, result):
        truth, res = result
        assert len(res.catalog) == 2
        for t, est in zip(truth, res.catalog):
            assert np.linalg.norm(est.position - t.position) < 0.5
            assert abs(est.flux_r - t.flux_r) / t.flux_r < 0.25

    def test_deblending_splits_flux(self, result):
        truth, res = result
        ratio_true = truth[0].flux_r / truth[1].flux_r
        ratio_est = res.catalog[0].flux_r / res.catalog[1].flux_r
        assert abs(np.log(ratio_est / ratio_true)) < 0.4

    def test_elbo_total_accumulated(self, result):
        _, res = result
        assert np.isfinite(res.elbo_total)
        assert res.n_converged >= 1

    def test_joint_beats_isolated_on_blended_pair(self):
        # Optimizing the pair jointly must beat treating each source alone
        # against a sky-only background (the paper's motivation for joint
        # optimization: overlapping sources bias isolated fits).
        from repro.core import make_context
        from repro.core.single import optimize_source, to_catalog_entry

        truth, images = two_star_scene(sep=4.0, seed=2)
        priors = default_priors()

        iso = []
        for t in truth:
            ctx = make_context(images, t.position, priors)
            r = optimize_source(ctx, t, FAST.single)
            iso.append(to_catalog_entry(r.params))
        joint = optimize_region(images, truth, priors, FAST).catalog

        def flux_err(catalog):
            return sum(
                abs(e.flux_r - t.flux_r) / t.flux_r
                for e, t in zip(catalog, truth)
            )

        assert flux_err(joint) < flux_err(iso)


class TestPosteriorSummary:
    def test_summary_fields(self):
        truth, images = two_star_scene()
        res = optimize_region(images, truth, default_priors(), FAST)
        params = [r.params for r in res.results]
        s = posterior_summary(params[0])
        assert 0.0 <= s.prob_galaxy <= 1.0
        assert s.flux_sd > 0
        assert s.flux_interval[0] < s.flux_mean < s.flux_interval[1] * 1.5
        assert s.color_sd.shape == (4,)
        assert s.band_flux_mean.shape == (5,)

    def test_entropy_peaks_at_half(self):
        from repro.core.uncertainty import _type_entropy

        assert _type_entropy(0.5) > _type_entropy(0.9) > _type_entropy(0.999)

    def test_interval_widens_with_variance(self):
        truth, _ = two_star_scene()
        p = initial_params(truth[0], default_priors())
        s1 = posterior_summary(p)
        p.r2 = p.r2 * 4.0
        s2 = posterior_summary(p)
        w1 = s1.flux_interval[1] - s1.flux_interval[0]
        w2 = s2.flux_interval[1] - s2.flux_interval[0]
        assert w2 > w1
