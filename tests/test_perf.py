"""Tests for counters and FLOP reports."""

import threading

import numpy as np
import pytest

from repro.perf import (
    Counters,
    GLOBAL_COUNTERS,
    counting,
)


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("x", 2.0)
        c.add("x")
        assert c.get("x") == 3.0
        assert c.get("missing") == 0.0

    def test_snapshot_and_reset(self):
        c = Counters()
        c.add("a", 1.0)
        c.add("b", 2.0)
        snap = c.snapshot()
        assert snap == {"a": 1.0, "b": 2.0}
        c.reset("a")
        assert c.get("a") == 0.0 and c.get("b") == 2.0
        c.reset()
        assert c.snapshot() == {}

    def test_thread_safety(self):
        c = Counters()

        def bump():
            for _ in range(5000):
                c.add("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.get("n") == 20000

    def test_counting_context_merges_into_global(self):
        GLOBAL_COUNTERS.reset("ctx_test")
        with counting() as local:
            local.add("ctx_test", 5.0)
        assert GLOBAL_COUNTERS.get("ctx_test") == 5.0
        GLOBAL_COUNTERS.reset("ctx_test")


class TestElboCounters:
    def test_newton_iterations_counted(self):
        from repro.core import CatalogEntry, default_priors, make_context
        from repro.core.single import OptimizeConfig, optimize_source
        from repro.psf import default_psf
        from repro.survey import AffineWCS, ImageMeta, render_image

        truth = CatalogEntry([10.0, 10.0], False, 30.0,
                             [1.5, 1.1, 0.25, 0.05])
        rng = np.random.default_rng(0)
        images = [render_image([truth], ImageMeta(
            band=2, wcs=AffineWCS.translation(0, 0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (20, 20), rng=rng)]
        counters = Counters()
        ctx = make_context(images, truth.position, default_priors(),
                           counters=counters)
        res = optimize_source(ctx, truth, OptimizeConfig(max_iter=20))
        snap = counters.snapshot()
        assert snap["newton_solves"] == 1.0
        assert snap["newton_iterations"] == res.optim.n_iterations
        assert snap["objective_evaluations"] == res.optim.n_evaluations
        assert snap["active_pixel_visits"] == (
            res.optim.n_evaluations * ctx.n_active_pixels
        )
