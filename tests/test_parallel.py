"""Tests for the conflict graph, Cyclades batching, and the threaded executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import (
    build_conflict_graph,
    cyclades_batches,
    optimize_region_parallel,
    ParallelRegionConfig,
)
from repro.parallel.conflict import UnionFind
from repro.parallel.cyclades import allocate_components


def grid_positions(n_side=4, spacing=20.0):
    ys, xs = np.mgrid[0:n_side, 0:n_side]
    return np.column_stack([xs.ravel() * spacing, ys.ravel() * spacing])


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)

    def test_transitive(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(0) == uf.find(3)


class TestConflictGraph:
    def test_far_sources_no_conflict(self):
        g = build_conflict_graph(grid_positions(spacing=50.0), radii=5.0)
        assert g.n_edges == 0

    def test_close_sources_conflict(self):
        pos = np.array([[0.0, 0.0], [6.0, 0.0], [50.0, 50.0]])
        g = build_conflict_graph(pos, radii=5.0)
        assert g.conflicts(0, 1)
        assert not g.conflicts(0, 2)
        assert g.n_edges == 1

    def test_heterogeneous_radii(self):
        pos = np.array([[0.0, 0.0], [16.0, 0.0]])
        g_small = build_conflict_graph(pos, radii=np.array([5.0, 5.0]))
        g_big = build_conflict_graph(pos, radii=np.array([10.0, 5.0]))
        assert not g_small.conflicts(0, 1)
        assert g_big.conflicts(0, 1)

    def test_diagonal_boxes_conflict(self):
        # Euclidean circles are disjoint (distance 15.6 > 5 + 5) but the
        # axis-aligned patch boxes overlap on the diagonal (Chebyshev
        # distance 11 < 5 + 5 + 2): concurrent updates would race.
        pos = np.array([[0.0, 0.0], [11.0, 11.0]])
        g = build_conflict_graph(pos, radii=5.0)
        assert g.conflicts(0, 1)

    def test_rounding_pad_respected(self):
        # floor/ceil rounding lets boxes share a pixel up to per-axis
        # distance just under r_i + r_j + 2 (e.g. centers 0.01 and 11.91
        # with r=5 both cover pixel 11); at r_i + r_j + 2 they are
        # guaranteed disjoint.
        pos = np.array([[0.0, 0.0], [11.9, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        assert g.conflicts(0, 1)
        far = np.array([[0.0, 0.0], [12.0, 0.0]])
        assert not build_conflict_graph(far, radii=5.0).conflicts(0, 1)

    def test_connected_components_chain(self):
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0], [100.0, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        comps = sorted(g.connected_components(), key=len, reverse=True)
        assert sorted(comps[0]) == [0, 1, 2]
        assert comps[1] == [3]

    def test_components_respect_subset(self):
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        comps = g.connected_components(subset=[0, 2])
        # 0 and 2 only connect through 1, which is not in the sample.
        assert sorted(map(sorted, comps)) == [[0], [2]]

    def test_full_subset_matches_default(self):
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0], [100.0, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        assert (g.connected_components(subset=range(g.n))
                == g.connected_components())

    def test_subset_edges_survive_restriction(self):
        # Dropping a node cuts only *its* edges: the rest of the component
        # stays connected through the remaining members.
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0], [24.0, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        comps = g.connected_components(subset=[0, 1, 3])
        assert sorted(map(sorted, comps)) == [[0, 1], [3]]

    def test_subset_component_order_follows_subset_order(self):
        # The Cyclades sampler feeds its drawn sample here and relies on
        # group order being a deterministic function of the sample order
        # (first-member order), not of hash iteration.
        pos = np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        assert g.connected_components(subset=[2, 0, 1]) == [[2], [0], [1]]
        assert g.connected_components(subset=[1, 2, 0]) == [[1], [2], [0]]

    def test_empty_subset(self):
        pos = np.array([[0.0, 0.0], [8.0, 0.0]])
        g = build_conflict_graph(pos, radii=5.0)
        assert g.connected_components(subset=[]) == []

    def test_empty(self):
        g = build_conflict_graph(np.zeros((0, 2)), radii=5.0)
        assert g.n == 0
        assert g.connected_components() == []

    def test_sweep_finds_exactly_the_all_pairs_edges(self):
        """The x-sweep is a candidate filter only: on random geometry
        (per-source radii, coincident coordinates, sources sitting exactly
        on the conflict distance) the graph is the all-pairs one."""
        rng = np.random.default_rng(11)
        for trial in range(120):
            n = int(rng.integers(2, 40))
            pos = rng.uniform(0.0, 60.0, size=(n, 2))
            if trial % 3 == 0:
                pos = np.round(pos / 4.0) * 4.0
            radii = rng.uniform(1.0, 9.0, size=n) if trial % 2 else 5.0
            g = build_conflict_graph(pos, radii)
            r = np.broadcast_to(np.asarray(radii, dtype=float), (n,))
            expected = [
                {j for j in range(n) if j != i
                 and np.abs(pos[i] - pos[j]).max() < r[i] + r[j] + 2.0}
                for i in range(n)
            ]
            assert g.adjacency == expected


class TestAllocation:
    def test_components_never_split(self):
        comps = [[0, 1, 2], [3], [4, 5], [6]]
        assignments = allocate_components(comps, n_threads=2)
        for comp in comps:
            owners = {
                t for t, a in enumerate(assignments) if any(s in a for s in comp)
            }
            assert len(owners) == 1

    def test_load_balanced(self):
        comps = [[i] for i in range(16)]
        assignments = allocate_components(comps, n_threads=4)
        sizes = [len(a) for a in assignments]
        assert max(sizes) - min(sizes) <= 1


class TestCyclades:
    def _graph(self, n_side=5, spacing=8.0, radii=5.0):
        return build_conflict_graph(grid_positions(n_side, spacing), radii)

    def test_every_source_exactly_once_per_epoch(self):
        g = self._graph()
        batches = cyclades_batches(g, n_threads=4, rng=np.random.default_rng(0))
        seen = []
        for b in batches:
            for a in b.thread_assignments:
                seen.extend(a)
        assert sorted(seen) == list(range(g.n))

    def test_no_conflicts_across_threads_within_batch(self):
        g = self._graph(spacing=6.0)  # heavily connected
        batches = cyclades_batches(g, n_threads=4, rng=np.random.default_rng(1))
        for b in batches:
            for t1 in range(len(b.thread_assignments)):
                for t2 in range(t1 + 1, len(b.thread_assignments)):
                    for i in b.thread_assignments[t1]:
                        for j in b.thread_assignments[t2]:
                            assert not g.conflicts(i, j)

    def test_sample_shatters_into_components(self):
        # Even a connected conflict graph restricted to a small sample
        # typically has several components (the Cyclades observation).
        g = self._graph(n_side=8, spacing=6.0)
        batches = cyclades_batches(g, n_threads=4, batch_size=12,
                                   rng=np.random.default_rng(2))
        multi = [b for b in batches if len(b.components) > 1]
        assert len(multi) >= len(batches) // 2

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            cyclades_batches(self._graph(), n_threads=0)


class TestConflictRadiiMatchOptimizer:
    """Regression: the executor must derive conflict radii from the same
    rule (including the ``patch_radius`` override) the optimizer uses for
    its patch bounds.  The seed code derived them independently, so a custom
    ``patch_radius`` larger than the PSF-derived radius produced
    "conflict-free" batches whose patches overlapped."""

    def _scene(self):
        from repro.core.catalog import CatalogEntry
        from repro.psf import default_psf
        from repro.survey import AffineWCS, ImageMeta, render_image

        # 24 px apart: PSF-derived radii (~5-9 px) say no conflict, but a
        # 15 px patch_radius makes the patches overlap by 6 px.
        entries = [
            CatalogEntry([12.0, 12.0], False, 40.0, [1.5, 1.1, 0.25, 0.05]),
            CatalogEntry([36.0, 12.0], False, 30.0, [1.2, 0.9, 0.2, 0.0]),
        ]
        rng = np.random.default_rng(7)
        images = [render_image(entries, ImageMeta(
            band=2, wcs=AffineWCS.translation(0, 0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (24, 48), rng=rng)]
        return entries, images

    def test_custom_patch_radius_creates_conflict(self, monkeypatch):
        from repro.core import default_priors, JointConfig
        from repro.core.single import OptimizeConfig
        from repro.parallel import executor as executor_mod

        entries, images = self._scene()
        captured = {}
        real_build = executor_mod.build_conflict_graph

        def capture(positions, radii):
            graph = real_build(positions, radii)
            captured["radii"] = np.broadcast_to(
                np.asarray(radii, dtype=float), (len(positions),)
            ).copy()
            captured["graph"] = graph
            return graph

        monkeypatch.setattr(executor_mod, "build_conflict_graph", capture)
        joint = JointConfig(
            n_passes=1, patch_radius=15.0,
            single=OptimizeConfig(max_iter=2, grad_tol=1e-2),
        )
        optimize_region_parallel(
            images, entries, default_priors(),
            ParallelRegionConfig(n_threads=2, n_passes=1, joint=joint),
        )
        # The executor must schedule with the radius the optimizer uses.
        np.testing.assert_allclose(captured["radii"], 15.0)
        assert captured["graph"].conflicts(0, 1)

    def test_conflict_radii_helper_derived_rule(self):
        from repro.core import JointConfig
        from repro.core.joint import patch_radius_for
        from repro.parallel.executor import conflict_radii

        entries, images = self._scene()
        radii = conflict_radii(images, entries, JointConfig())
        expected = [
            max(patch_radius_for(e, im.meta.psf) for im in images)
            for e in entries
        ]
        np.testing.assert_allclose(radii, expected)

    def test_parallel_matches_serial_with_patch_radius(self):
        """Equivalence with overlapping custom-radius patches: every pair
        conflicts, so Cyclades must serialize everything onto one thread and
        parallel results must track serial quality."""
        from repro.core import default_priors, optimize_region, JointConfig
        from repro.core.single import OptimizeConfig
        from repro.core.catalog import Catalog
        from repro.validation import score_catalog

        entries, images = self._scene()
        priors = default_priors()
        joint = JointConfig(
            n_passes=1, patch_radius=15.0,
            single=OptimizeConfig(max_iter=15, grad_tol=5e-4),
        )
        serial = optimize_region(images, entries, priors, joint)
        parallel = optimize_region_parallel(
            images, entries, priors,
            ParallelRegionConfig(n_threads=2, n_passes=1, joint=joint),
        )
        truth = Catalog(entries)
        m_serial = score_catalog(truth, serial.catalog)
        m_parallel = score_catalog(truth, parallel.catalog)
        assert m_parallel.n_matched == len(entries)
        assert m_parallel.position < m_serial.position + 0.1
        assert abs(m_parallel.brightness - m_serial.brightness) < 0.1


class TestScheduledPatchesPixelDisjoint:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_sources_never_share_pixels(self, seed):
        """The invariant behind serial equivalence: sources scheduled on
        different threads in the same batch must have pixel-disjoint patch
        boxes in every image (box overlap = lost-update race on the shared
        model images)."""
        from repro.core import default_priors, JointConfig
        from repro.core.catalog import CatalogEntry
        from repro.core.joint import RegionOptimizer
        from repro.parallel.executor import conflict_radii
        from repro.psf import default_psf
        from repro.survey import AffineWCS, ImageMeta, render_image

        rng = np.random.default_rng(seed)
        entries = [
            CatalogEntry(pos, False, 30.0, [1.2, 0.9, 0.2, 0.0])
            for pos in rng.uniform(4, 56, size=(14, 2))
        ]
        images = [render_image(entries, ImageMeta(
            band=2, wcs=AffineWCS.translation(0, 0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (60, 60), rng=rng)]
        config = JointConfig(n_passes=1)
        opt = RegionOptimizer(images, entries, default_priors(), config)
        radii = conflict_radii(images, entries, config)
        graph = build_conflict_graph(
            np.stack([e.position for e in entries]), radii
        )

        def boxes_overlap(a, b):
            if a is None or b is None:
                return False
            ax0, ax1, ay0, ay1 = a
            bx0, bx1, by0, by1 = b
            return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1

        for batch in cyclades_batches(graph, n_threads=4, rng=rng):
            lanes = batch.thread_assignments
            for t1 in range(len(lanes)):
                for t2 in range(t1 + 1, len(lanes)):
                    for i in lanes[t1]:
                        for j in lanes[t2]:
                            for im_idx in range(len(images)):
                                assert not boxes_overlap(
                                    opt._bounds[i][im_idx],
                                    opt._bounds[j][im_idx],
                                )


class TestParallelExecutor:
    def test_parallel_matches_serial_quality(self):
        from repro.core import default_priors, optimize_region, JointConfig
        from repro.core.catalog import CatalogEntry
        from repro.core.single import OptimizeConfig
        from repro.psf import default_psf
        from repro.survey import AffineWCS, ImageMeta, render_image
        from repro.validation import score_catalog
        from repro.core.catalog import Catalog

        entries = [
            CatalogEntry([10.0, 10.0], False, 40.0, [1.5, 1.1, 0.25, 0.05]),
            CatalogEntry([30.0, 10.0], False, 30.0, [1.2, 0.9, 0.2, 0.0]),
            CatalogEntry([20.0, 22.0], False, 35.0, [1.6, 1.2, 0.3, 0.1]),
        ]
        rng = np.random.default_rng(4)
        images = [
            render_image(entries, ImageMeta(
                band=b, wcs=AffineWCS.translation(0, 0), psf=default_psf(3.0),
                sky_level=100.0, calibration=100.0), (32, 42), rng=rng)
            for b in (1, 2, 3)
        ]
        priors = default_priors()
        joint = JointConfig(n_passes=1, single=OptimizeConfig(max_iter=20,
                                                              grad_tol=5e-4))
        serial = optimize_region(images, entries, priors, joint)
        parallel = optimize_region_parallel(
            images, entries, priors,
            ParallelRegionConfig(n_threads=3, n_passes=1, joint=joint),
        )
        truth = Catalog(entries)
        m_serial = score_catalog(truth, serial.catalog)
        m_parallel = score_catalog(truth, parallel.catalog)
        assert m_parallel.n_matched == 3
        # Conflict-free parallel execution must match serial quality.
        assert m_parallel.position < m_serial.position + 0.1
        assert abs(m_parallel.brightness - m_serial.brightness) < 0.1


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    n_threads=st.integers(min_value=1, max_value=6),
)
def test_property_cyclades_conflict_free(seed, n_threads):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 60, size=(20, 2))
    g = build_conflict_graph(pos, radii=6.0)
    batches = cyclades_batches(g, n_threads=n_threads, rng=rng)
    seen = []
    for b in batches:
        for t1 in range(len(b.thread_assignments)):
            seen.extend(b.thread_assignments[t1])
            for t2 in range(t1 + 1, len(b.thread_assignments)):
                for i in b.thread_assignments[t1]:
                    for j in b.thread_assignments[t2]:
                        assert not g.conflicts(i, j)
    assert sorted(seen) == list(range(20))
