"""Tests for the synthetic survey substrate (WCS, images, rendering, layout,
I/O)."""

import numpy as np
import pytest

from repro.core.catalog import Catalog, CatalogEntry
from repro.psf import default_psf
from repro.survey import (
    AffineWCS,
    FieldPrefetcher,
    Image,
    ImageMeta,
    SurveyConfig,
    SyntheticSkyConfig,
    build_survey,
    expected_image,
    field_file_size,
    generate_catalog,
    generate_field_images,
    load_field,
    render_image,
    save_field,
    source_patch,
    stripe82,
)


def star(pos, flux=30.0):
    return CatalogEntry(position=np.asarray(pos, float), is_galaxy=False,
                        flux_r=flux, colors=np.array([1.0, 0.7, 0.4, 0.2]))


def simple_meta(band=2, origin=(0.0, 0.0), sky=100.0, calib=100.0, fwhm=3.0):
    return ImageMeta(band=band, wcs=AffineWCS.translation(*origin),
                     psf=default_psf(fwhm), sky_level=sky, calibration=calib)


class TestWCS:
    def test_translation_roundtrip(self):
        wcs = AffineWCS.translation(50.0, -20.0)
        sky = np.array([55.0, -15.0])
        pix = wcs.sky_to_pix(sky)
        np.testing.assert_allclose(pix, [5.0, 5.0])
        np.testing.assert_allclose(wcs.pix_to_sky(pix), sky)

    def test_rotation(self):
        theta = 0.3
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        wcs = AffineWCS(R, np.zeros(2), np.zeros(2))
        sky = np.array([[1.0, 0.0], [0.0, 1.0]])
        back = wcs.pix_to_sky(wcs.sky_to_pix(sky))
        np.testing.assert_allclose(back, sky, atol=1e-12)

    def test_taylor_path_matches(self):
        from taylor_oracle import seed
        from taylor_oracle.model import sky_to_pix_taylor

        wcs = AffineWCS(np.array([[1.1, 0.1], [-0.2, 0.9]]),
                        np.array([3.0, 4.0]), np.array([10.0, 20.0]))
        sx, sy = seed([5.0, 6.0])
        px, py = sky_to_pix_taylor(wcs, sx, sy)
        ref = wcs.sky_to_pix(np.array([5.0, 6.0]))
        np.testing.assert_allclose([float(px.val), float(py.val)], ref, rtol=1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            AffineWCS(np.zeros((2, 2)), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("name,entry", [
        ("matrix", (0, 0)), ("matrix", (1, 0)), ("sky_ref", (1,)),
        ("pix_ref", (0,))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, name, entry, bad):
        parts = {"matrix": np.eye(2), "sky_ref": np.zeros(2),
                 "pix_ref": np.zeros(2)}
        parts[name][entry] = bad
        with pytest.raises(ValueError, match="WCS %s must be finite" % name):
            AffineWCS(**parts)


class TestImage:
    def test_bounds_and_containment(self):
        im = Image(np.zeros((40, 60)), simple_meta(origin=(100.0, 200.0)))
        assert im.contains_sky(np.array([130.0, 220.0]))
        assert not im.contains_sky(np.array([170.0, 220.0]))
        assert im.contains_sky(np.array([161.0, 220.0]), margin=5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Image(np.zeros(10), simple_meta())
        with pytest.raises(ValueError):
            ImageMeta(band=0, wcs=AffineWCS.translation(0, 0),
                      psf=default_psf(), sky_level=-1.0, calibration=100.0)

    @pytest.mark.parametrize("name", ["sky_level", "calibration"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_non_positive_meta_rejected(self, name, bad):
        values = {"sky_level": 100.0, "calibration": 100.0, name: bad}
        with pytest.raises(ValueError,
                           match="%s must be finite and positive" % name):
            ImageMeta(band=0, wcs=AffineWCS.translation(0, 0),
                      psf=default_psf(), **values)


class TestRendering:
    def test_expected_image_flux_conservation(self):
        meta = simple_meta()
        entry = star([25.0, 25.0], flux=50.0)
        rate = expected_image([entry], meta, (50, 50))
        excess = rate.sum() - meta.sky_level * 50 * 50
        expected_photons = meta.calibration * entry.band_fluxes()[meta.band]
        np.testing.assert_allclose(excess, expected_photons, rtol=0.02)

    def test_star_peak_at_position(self):
        meta = simple_meta()
        rate = expected_image([star([20.0, 30.0], 100.0)], meta, (50, 50))
        peak = np.unravel_index(np.argmax(rate), rate.shape)
        assert peak == (30, 20)  # (row=y, col=x)

    def test_galaxy_broader_than_star(self):
        meta = simple_meta()
        gal = CatalogEntry(position=[25.0, 25.0], is_galaxy=True, flux_r=50.0,
                           colors=[1.0, 0.7, 0.4, 0.2], gal_radius_px=3.0)
        r_star = expected_image([star([25.0, 25.0], 50.0)], meta, (50, 50))
        r_gal = expected_image([gal], meta, (50, 50))
        assert r_gal.max() < r_star.max()  # same flux, more spread

    def test_poisson_statistics(self):
        meta = simple_meta(sky=200.0)
        rng = np.random.default_rng(0)
        im = render_image([], meta, (80, 80), rng=rng)
        np.testing.assert_allclose(im.pixels.mean(), 200.0, rtol=0.01)
        np.testing.assert_allclose(im.pixels.var(), 200.0, rtol=0.05)

    def test_off_image_source_ignored(self):
        meta = simple_meta()
        rate = expected_image([star([500.0, 500.0])], meta, (30, 30))
        np.testing.assert_allclose(rate, meta.sky_level)

    def test_source_patch_clipping(self):
        im = Image(np.zeros((30, 30)), simple_meta())
        assert source_patch(im, np.array([2.0, 2.0]), 5.0) == (0, 8, 0, 8)
        assert source_patch(im, np.array([100.0, 100.0]), 5.0) is None


class TestSynthesis:
    def test_catalog_density(self):
        cfg = SyntheticSkyConfig(source_density=20.0)
        rng = np.random.default_rng(5)
        cat = generate_catalog((0, 200), (0, 200), cfg, rng=rng)
        # 200x200 px = 4 patches of 100x100 -> expect ~80 sources
        assert 40 <= len(cat) <= 130

    def test_min_separation_enforced(self):
        cfg = SyntheticSkyConfig(source_density=15.0, min_separation=8.0)
        cat = generate_catalog((0, 150), (0, 150), cfg,
                               rng=np.random.default_rng(1))
        pos = cat.positions()
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                assert np.linalg.norm(pos[i] - pos[j]) >= 8.0

    def test_flux_floor(self):
        cfg = SyntheticSkyConfig(flux_floor=2.0)
        cat = generate_catalog((0, 300), (0, 300), cfg,
                               rng=np.random.default_rng(2))
        assert all(e.flux_r >= 2.0 for e in cat)

    def test_field_images_share_wcs(self):
        cat = Catalog([star([20.0, 20.0])])
        images = generate_field_images(cat, (0.0, 0.0), (40, 40),
                                       rng=np.random.default_rng(3))
        assert len(images) == 5
        assert len({id(im.meta.wcs.matrix.tobytes()) for im in images}) >= 1
        for b, im in enumerate(images):
            assert im.band == b


class TestSurveyLayout:
    def test_fields_overlap(self):
        layout = build_survey(SurveyConfig(), rng=np.random.default_rng(0))
        s0, s1 = layout.field_specs[0], layout.field_specs[1]
        assert s0.bounds()[1] > s1.bounds()[0]  # x-overlap between neighbors

    def test_every_source_covered_by_some_image(self):
        layout = build_survey(SurveyConfig(), rng=np.random.default_rng(1))
        counts = layout.coverage_counts()
        assert np.all(counts >= 1)

    def test_coverage_nonuniform_with_overlaps(self):
        layout = build_survey(SurveyConfig(), rng=np.random.default_rng(2))
        counts = layout.coverage_counts()
        assert counts.max() > counts.min()  # overlap regions see more images

    def test_stripe82_epoch_count(self):
        layout = stripe82(n_epochs=4, rng=np.random.default_rng(3))
        epochs = {im.meta.epoch for im in layout.images}
        assert epochs == {0, 1, 2, 3}


class TestIO:
    def test_save_load_roundtrip(self, tmp_path):
        cat = Catalog([star([20.0, 20.0])])
        images = generate_field_images(cat, (0.0, 0.0), (30, 30),
                                       rng=np.random.default_rng(4))
        path = str(tmp_path / "field.npz")
        nbytes = save_field(path, images)
        assert nbytes > 0
        loaded = load_field(path)
        assert len(loaded) == len(images)
        for a, b in zip(images, loaded):
            np.testing.assert_allclose(a.pixels, b.pixels)
            assert a.band == b.band
            np.testing.assert_allclose(a.meta.calibration, b.meta.calibration)
            np.testing.assert_allclose(a.meta.psf.weights, b.meta.psf.weights)

    def test_field_metadata_matches_loaded_images_exactly(self, tmp_path):
        # The header-only peek must agree bit-for-bit with geometry computed
        # from the loaded images: the driver fingerprints and partitions the
        # sky from it.
        from repro.survey import field_metadata

        images = self._render_field((24, 40), (1, 3), masked=True)
        path = str(tmp_path / "field.npz")
        save_field(path, images)
        meta = field_metadata(path)
        assert len(meta) == len(images)
        for (bounds, shape, band), im in zip(meta, images):
            assert bounds == im.sky_bounds()
            assert shape == (im.height, im.width)
            assert band == im.band

    @pytest.mark.parametrize("keep", [0, 3, 0.5, -10])
    def test_truncated_file_is_a_named_error(self, tmp_path, keep):
        from repro.survey import field_metadata

        path = str(tmp_path / "field.npz")
        save_field(path, self._render_field((16, 16), (2,), masked=False))
        with open(path, "rb") as f:
            raw = f.read()
        cut = int(len(raw) * keep) if isinstance(keep, float) else keep
        with open(path, "wb") as f:
            f.write(raw[:cut])
        for read in (load_field, field_metadata):
            with pytest.raises(ValueError,
                               match="truncated or corrupt") as err:
                read(path)
            assert path in str(err.value)

    def test_unusable_psf_is_an_error_naming_the_file(self, tmp_path):
        images = self._render_field((16, 16), (2,), masked=False)
        psf = images[0].meta.psf
        # A singular covariance, as a file written elsewhere could carry it
        # (the constructor itself now refuses one).
        covs = psf.covs.copy()
        covs[0] = [[1.0, 1.0], [1.0, 1.0]]
        object.__setattr__(psf, "covs", covs)
        path = str(tmp_path / "field.npz")
        save_field(path, images)
        with pytest.raises(ValueError, match="not positive definite") as err:
            load_field(path)
        assert path in str(err.value)
        assert "component 0" in str(err.value)

    @pytest.mark.parametrize("key,value,message", [
        ("calibration_0", np.nan, "calibration must be finite"),
        ("sky_level_0", np.inf, "sky_level must be finite"),
        ("wcs_matrix_0", np.full((2, 2), np.nan), "WCS matrix must be finite"),
        ("wcs_pix_ref_0", np.array([0.0, np.inf]),
         "WCS pix_ref must be finite"),
    ])
    def test_unusable_metadata_is_an_error_naming_the_file(
            self, tmp_path, key, value, message):
        from repro.survey import field_metadata

        path = str(tmp_path / "field.npz")
        save_field(path, self._render_field((16, 16), (2,), masked=False))
        # Rewrite one stored value, as a file written elsewhere could carry
        # it (the constructors refuse it in memory).
        with np.load(path) as data:
            arrays = dict(data)
        arrays[key] = np.asarray(value, dtype=float)
        np.savez(path, **arrays)
        readers = [load_field]
        if key.startswith("wcs_"):
            readers.append(field_metadata)
        for read in readers:
            with pytest.raises(ValueError, match=message) as err:
                read(path)
            assert path in str(err.value)
            assert "image 0" in str(err.value)

    def test_missing_file_is_still_file_not_found(self, tmp_path):
        from repro.survey import field_metadata

        for read in (load_field, field_metadata):
            with pytest.raises(FileNotFoundError):
                read(str(tmp_path / "nope.npz"))

    def _render_field(self, shape_hw, bands, masked, seed=7):
        rng = np.random.default_rng(seed)
        cat = Catalog([star([shape_hw[1] / 2.0, shape_hw[0] / 2.0])])
        images = generate_field_images(cat, (0.0, 0.0), shape_hw,
                                       rng=rng, bands=bands)
        if masked:
            for im in images:
                im.mask = np.zeros(shape_hw, dtype=bool)
        return images

    @pytest.mark.parametrize("shape_hw,bands", [
        ((16, 16), (2,)),
        ((32, 32), (0, 1, 2, 3, 4)),
        ((48, 24), (1, 2, 3)),
    ])
    def test_field_file_size_tracks_save_field(self, tmp_path, shape_hw, bands):
        """The size model must match what save_field really writes — the
        cluster simulator charges Burst Buffer time per byte."""
        path = str(tmp_path / "field.npz")
        for masked in (False, True):
            images = self._render_field(shape_hw, bands, masked)
            actual = save_field(path, images)
            estimate = field_file_size(shape_hw, len(bands), masked=masked)
            assert estimate == pytest.approx(actual, rel=0.02)

    def test_field_file_size_counts_mask_plane(self):
        # The old estimate ignored the mask entirely; a masked field is one
        # byte per pixel per band bigger (plus the array's own overhead).
        h, w, bands = 64, 64, 5
        plain = field_file_size((h, w), bands)
        masked = field_file_size((h, w), bands, masked=True)
        assert masked - plain >= bands * h * w

    def test_field_file_size_counts_metadata_arrays(self):
        # Metadata (WCS + PSF + calibration arrays and their container
        # overhead) must be visible in the estimate: for a tiny field it is
        # a large fraction of the file, which the old flat "+1024" missed.
        est = field_file_size((8, 8), 1)
        assert est > 8 * 8 * 8 + 1024


class TestFieldPrefetcher:
    def _save_fields(self, tmp_path, n=3):
        paths = []
        for i in range(n):
            images = TestIO()._render_field((16, 16), (2,), False, seed=i)
            path = str(tmp_path / ("f%d.npz" % i))
            save_field(path, images)
            paths.append(path)
        return paths

    def test_hinted_loads_become_hits(self, tmp_path):
        import time

        paths = self._save_fields(tmp_path)
        pf = FieldPrefetcher(capacity=4)
        try:
            pf.hint(paths)
            deadline = time.monotonic() + 10.0
            while (pf.stats()["prefetched"] < 3
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert pf.stats()["prefetched"] == 3
            for p in paths:
                assert len(pf.get(p)) == 1
            stats = pf.stats()
            assert stats["prefetch_hits"] == 3
            assert stats["prefetch_misses"] == 0
            assert stats["prefetch_seconds"] > 0.0
        finally:
            pf.close()

    def test_close_joins_thread_and_clears_cache_with_failing_loader(self):
        # A loader that raises must not wedge the daemon thread, and
        # close() must notify the condition variable, join the thread, and
        # release the LRU cache — the leak run_pipeline's try/finally
        # exists to prevent when a stage dies mid-run.
        import threading
        import time

        def loader(path):
            if "bad" in path:
                raise IOError("burst buffer on fire: %s" % path)
            return ["field:" + path]

        pf = FieldPrefetcher(loader=loader, capacity=4)
        pf.hint(["good", "bad"])
        deadline = time.monotonic() + 10.0
        while pf.stats()["prefetched"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pf.get("good") == ["field:good"]
        # The failed prefetch surfaces as a synchronous (reported) error.
        with pytest.raises(IOError):
            pf.get("bad")

        thread = pf._thread
        assert thread is not None and thread.is_alive()
        pf.close()
        assert not thread.is_alive()
        assert pf._cache == {}
        assert pf._thread is None
        pf.close()  # idempotent

        # A closed prefetcher still serves synchronous loads, uncached.
        assert pf.get("good") == ["field:good"]
        assert pf._cache == {}
        assert threading.active_count() >= 1  # and started no new thread
        assert pf._thread is None

    def test_close_while_load_in_flight_does_not_repopulate_cache(self):
        import threading
        import time

        release = threading.Event()

        def loader(path):
            release.wait(timeout=10.0)
            return [path]

        pf = FieldPrefetcher(loader=loader, capacity=4)
        pf.hint(["slow"])
        deadline = time.monotonic() + 10.0
        while pf._inflight is None and time.monotonic() < deadline:
            time.sleep(0.01)
        with pf._cv:
            pf._closed = True
            pf._queue.clear()
            pf._cache.clear()
            pf._cv.notify_all()
        release.set()
        pf.close()
        assert pf._cache == {}  # the in-flight result was discarded

    def test_queued_but_unstarted_hint_is_a_synchronous_miss(self, tmp_path):
        # A hint the background thread never got to must not make the
        # caller queue behind it (nor count as a hidden load): get() claims
        # it off the queue and loads synchronously.
        paths = self._save_fields(tmp_path, n=1)
        pf = FieldPrefetcher()
        try:
            # Enqueue without waking a worker thread, pinning the "hinted
            # but load never started" state the accounting must call a miss.
            with pf._cv:
                pf._queue.append(paths[0])
            assert len(pf.get(paths[0])) == 1
            stats = pf.stats()
            assert stats["prefetch_misses"] == 1
            assert stats["prefetch_hits"] == 0
        finally:
            pf.close()

    def test_unhinted_load_is_a_miss(self, tmp_path):
        paths = self._save_fields(tmp_path, n=1)
        pf = FieldPrefetcher()
        try:
            assert len(pf.get(paths[0])) == 1
            assert pf.stats()["prefetch_misses"] == 1
            pf.get(paths[0])  # now cached
            assert pf.stats()["prefetch_hits"] == 1
        finally:
            pf.close()

    def test_capacity_evicts_lru(self, tmp_path):
        paths = self._save_fields(tmp_path, n=3)
        pf = FieldPrefetcher(capacity=1)
        try:
            for p in paths:
                pf.get(p)
            pf.get(paths[0])  # evicted by paths[2] -> miss again
            assert pf.stats()["prefetch_misses"] == 4
        finally:
            pf.close()

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            FieldPrefetcher(capacity=0)

    def test_failed_prefetch_surfaces_on_get(self, tmp_path):
        pf = FieldPrefetcher()
        missing = str(tmp_path / "nope.npz")
        try:
            pf.hint([missing])
            with pytest.raises(FileNotFoundError):
                pf.get(missing)
        finally:
            pf.close()
