"""Tests for defective-pixel masking (cosmic rays, saturation).

Real survey frames carry pixel masks; the inference and the heuristic
pipeline must both exclude flagged pixels, and corruption that *is* flagged
must not bias results the way unflagged corruption does.
"""

import numpy as np
import pytest

from repro.core import CatalogEntry, default_priors, make_context
from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig, optimize_source, to_catalog_entry
from repro.driver import DriverConfig, run_pipeline
from repro.parallel import ParallelRegionConfig
from repro.photo import detect_sources, psf_flux, run_photo
from repro.photo.shapes import measure_shape
from repro.psf import default_psf
from repro.survey import (
    AffineWCS,
    Image,
    ImageMeta,
    SyntheticSkyConfig,
    generate_survey_fields,
    render_image,
)


STAR = CatalogEntry([13.0, 12.0], False, 30.0, [1.5, 1.1, 0.25, 0.05])


def meta(band=2):
    return ImageMeta(band=band, wcs=AffineWCS.translation(0.0, 0.0),
                     psf=default_psf(3.0), sky_level=100.0, calibration=100.0)


def clean_scene(seed=0, bands=(1, 2, 3)):
    rng = np.random.default_rng(seed)
    return [render_image([STAR], meta(b), (26, 26), rng=rng) for b in bands]


def corrupt(images, where=(12, 13), amount=5e4, flag=True):
    """Deposit a cosmic ray near the source, optionally flagged."""
    out = []
    for im in images:
        pixels = im.pixels.copy()
        pixels[where] += amount
        mask = np.zeros(pixels.shape, dtype=bool)
        mask[where] = True
        out.append(Image(pixels=pixels, meta=im.meta,
                         mask=mask if flag else None))
    return out


class TestImageMask:
    def test_mask_shape_validated(self):
        with pytest.raises(ValueError):
            Image(np.zeros((10, 10)), meta(), mask=np.zeros((5, 5), bool))

    def test_render_with_cosmic_rays(self):
        rng = np.random.default_rng(1)
        im = render_image([], meta(), (60, 60), rng=rng, cosmic_ray_rate=0.01)
        assert im.mask is not None
        n_hits = int(im.mask.sum())
        assert 10 <= n_hits <= 80
        # Hit pixels are far above sky.
        assert im.pixels[im.mask].mean() > 5 * im.meta.sky_level

    def test_render_without_cosmic_rays_has_no_mask(self):
        im = render_image([], meta(), (20, 20),
                          rng=np.random.default_rng(2))
        assert im.mask is None


class TestInferenceWithMask:
    def test_masked_pixels_excluded_from_context(self):
        images = corrupt(clean_scene(), flag=True)
        priors = default_priors()
        ctx_clean = make_context(clean_scene(), STAR.position, priors)
        ctx_masked = make_context(images, STAR.position, priors)
        assert ctx_masked.n_active_pixels == ctx_clean.n_active_pixels - 3

    def test_flagged_corruption_harmless(self):
        priors = default_priors()
        cfg = OptimizeConfig(max_iter=30)

        ctx_clean = make_context(clean_scene(), STAR.position, priors)
        clean_est = to_catalog_entry(
            optimize_source(ctx_clean, STAR, cfg).params)

        ctx_masked = make_context(corrupt(clean_scene(), flag=True),
                                  STAR.position, priors)
        masked_est = to_catalog_entry(
            optimize_source(ctx_masked, STAR, cfg).params)

        # Flagged corruption barely moves the answer.
        assert abs(masked_est.flux_r - clean_est.flux_r) < 0.1 * clean_est.flux_r

    def test_unflagged_corruption_biases(self):
        priors = default_priors()
        cfg = OptimizeConfig(max_iter=30)
        ctx_clean = make_context(clean_scene(), STAR.position, priors)
        clean_est = to_catalog_entry(
            optimize_source(ctx_clean, STAR, cfg).params)
        ctx_bad = make_context(corrupt(clean_scene(), flag=False),
                               STAR.position, priors)
        bad_est = to_catalog_entry(optimize_source(ctx_bad, STAR, cfg).params)
        # A 500-sigma unflagged deposit on the source visibly biases flux.
        assert abs(bad_est.flux_r - clean_est.flux_r) > 0.1 * clean_est.flux_r


class TestPhotoWithMask:
    def test_detection_ignores_flagged_cosmic_ray(self):
        rng = np.random.default_rng(5)
        blank = render_image([], meta(), (50, 50), rng=rng)
        corrupted = corrupt([blank], where=(25, 25), flag=True)[0]
        assert len(detect_sources(corrupted)) == 0

    def test_detection_fooled_by_unflagged_cosmic_ray(self):
        rng = np.random.default_rng(5)
        blank = render_image([], meta(), (50, 50), rng=rng)
        corrupted = corrupt([blank], where=(25, 25), amount=5e3, flag=False)[0]
        assert len(detect_sources(corrupted)) >= 1

    def test_psf_flux_with_mask(self):
        images = clean_scene(seed=6)
        ref = images[1]
        clean = psf_flux(ref, STAR.position)
        corrupted = corrupt([ref], flag=True)[0]
        flagged = psf_flux(corrupted, STAR.position)
        assert abs(flagged - clean) < 0.2 * clean

    def test_shape_ignores_flagged_cosmic_ray(self):
        ref = clean_scene(seed=6)[1]
        clean = measure_shape(ref, STAR.position)
        flagged = measure_shape(corrupt([ref], flag=True)[0], STAR.position)
        # Still read as a point source: concentration ~1.
        assert abs(flagged.concentration - clean.concentration) \
            < 0.05 * clean.concentration

    def test_shape_fooled_by_unflagged_cosmic_ray(self):
        ref = clean_scene(seed=6)[1]
        clean = measure_shape(ref, STAR.position)
        bad = measure_shape(corrupt([ref], flag=False)[0], STAR.position)
        assert abs(bad.concentration - clean.concentration) \
            > 0.5 * clean.concentration


class TestMaskIO:
    def test_mask_roundtrips_through_field_files(self, tmp_path):
        from repro.survey import load_field, save_field

        images = corrupt(clean_scene(seed=7), flag=True)
        path = str(tmp_path / "masked_field.npz")
        save_field(path, images)
        loaded = load_field(path)
        for a, b in zip(images, loaded):
            assert b.mask is not None
            np.testing.assert_array_equal(a.mask, b.mask)

    def test_no_mask_roundtrip(self, tmp_path):
        from repro.survey import load_field, save_field

        images = clean_scene(seed=8)
        path = str(tmp_path / "clean_field.npz")
        save_field(path, images)
        loaded = load_field(path)
        assert all(im.mask is None for im in loaded)


@pytest.fixture(scope="module")
def strip_survey():
    """Two overlapping 40x40 r-band fields, 19 sources through the driver."""
    sky = SyntheticSkyConfig(source_density=120.0, min_separation=7.0,
                             flux_floor=20.0)
    return generate_survey_fields(2, field_shape_hw=(40, 40), overlap=8.0,
                                  config=sky, rng=np.random.default_rng(7),
                                  bands=(2,))


def _mask_block(im, value):
    """``im`` with pixels [18:23, 18:23] masked and set to ``value``."""
    pixels = im.pixels.copy()
    pixels[18:23, 18:23] = value
    mask = np.zeros(pixels.shape, dtype=bool)
    mask[18:23, 18:23] = True
    return Image(pixels=pixels, meta=im.meta, mask=mask)


def _rows(catalog):
    return [(tuple(e.position), e.is_galaxy, e.flux_r, tuple(e.colors),
             e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle, e.gal_radius_px)
            for e in catalog]


class TestValuesUnderMaskAreInvisible:
    def test_photo_catalog_independent_of_masked_values(self, strip_survey):
        _, fields = strip_survey
        catalogs = [_rows(run_photo([_mask_block(im, value)
                                     for im in fields[0]]))
                    for value in (7.0, 100.0, np.nan)]
        assert catalogs[0]
        assert catalogs[1] == catalogs[0]
        assert catalogs[2] == catalogs[0]

    def test_photo_catalog_from_field_file_ignores_masked_nan(
            self, strip_survey, tmp_path):
        from repro.survey import load_field, save_field

        _, fields = strip_survey
        path = str(tmp_path / "field.npz")
        save_field(path, [_mask_block(im, np.nan) for im in fields[0]])
        loaded = load_field(path)
        assert np.isnan(loaded[0].pixels[20, 20])
        assert _rows(run_photo(loaded)) == _rows(
            run_photo([_mask_block(im, 7.0) for im in fields[0]]))

    @pytest.mark.slow
    def test_driver_catalog_independent_of_masked_values(self,
                                                         strip_survey):
        _, fields = strip_survey
        config = DriverConfig(
            n_nodes=1, target_weight=200.0,
            parallel=ParallelRegionConfig(
                n_threads=2, n_passes=1,
                joint=JointConfig(n_passes=1, single=OptimizeConfig(
                    max_iter=8, grad_tol=2e-3))))
        catalogs = [
            _rows(run_pipeline(
                [[_mask_block(im, value) for im in fields[0]], fields[1]],
                config).catalog)
            for value in (100.0, np.nan)]
        assert catalogs[0]
        assert catalogs[1] == catalogs[0]


class TestNonFinitePixels:
    def test_unmasked_nan_is_a_named_error(self, strip_survey):
        _, fields = strip_survey
        im = fields[0][0]
        pixels = im.pixels.copy()
        pixels[5, 5] = np.nan
        with pytest.raises(ValueError,
                           match=r"1 non-finite unmasked pixel\(s\), "
                                 r"first at \(row 5, col 5\)"):
            Image(pixels=pixels, meta=im.meta)

    def test_all_inf_image_is_rejected(self, strip_survey):
        _, fields = strip_survey
        im = fields[0][0]
        with pytest.raises(ValueError, match="1600 non-finite"):
            Image(pixels=np.full(im.pixels.shape, np.inf), meta=im.meta)

    def test_count_and_first_index_skip_masked_pixels(self, strip_survey):
        _, fields = strip_survey
        im = fields[0][0]
        pixels = im.pixels.copy()
        pixels[2, 30] = np.nan      # masked: neither counted nor reported
        pixels[7, 3] = np.inf
        pixels[9, 0] = -np.inf
        mask = np.zeros(pixels.shape, dtype=bool)
        mask[2, 30] = True
        with pytest.raises(ValueError,
                           match=r"2 non-finite unmasked pixel\(s\), "
                                 r"first at \(row 7, col 3\)"):
            Image(pixels=pixels, meta=im.meta, mask=mask)

    def test_masked_non_finite_pixels_are_allowed(self, strip_survey):
        _, fields = strip_survey
        im = _mask_block(fields[0][0], np.inf)
        assert np.isinf(im.pixels[20, 20])

    def test_field_file_with_unmasked_nan_is_rejected(self, strip_survey,
                                                      tmp_path):
        from repro.survey import load_field, save_field

        _, fields = strip_survey
        path = str(tmp_path / "field.npz")
        save_field(path, fields[0])
        with np.load(path) as data:
            payload = dict(data)
        payload["pixels_0"] = payload["pixels_0"].copy()
        payload["pixels_0"][20, 20] = np.nan
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=r"\(row 20, col 20\)"):
            load_field(path)
        # The same NaN under a mask loads.
        mask = np.zeros(payload["pixels_0"].shape, dtype=bool)
        mask[20, 20] = True
        np.savez(path, mask_0=mask, **payload)
        assert load_field(path)[0].mask[20, 20]
