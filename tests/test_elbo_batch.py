"""Batched ELBO evaluation and the lockstep Newton optimizer.

There is one evaluation path and one solver path, and every single-source
entry point is its batch of one.  The hard invariant is **lane
independence**: k lanes in one call are bit-for-bit identical to k one-lane
calls at every level — a single evaluation, a whole Newton solve, a
Cyclades region, a multi-field driver run.  Padding a batch to a common
shape cannot satisfy that (NumPy's pairwise-summation grouping depends on
the reduced length), so the fused kernel groups lanes by shape instead;
these tests pin the invariant with exact equality, and pin batched-vs-Taylor
parity with the shared randomized harness from ``tests/conftest.py``.
"""

import numpy as np
import pytest

from repro.core import (
    JointConfig,
    OptimizeConfig,
    compile_elbo_batch,
    default_priors,
    elbo,
    elbo_batch,
    optimize_source,
    optimize_sources_batch,
)
from repro.core.catalog import CatalogEntry
from repro.core.params import FREE
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pipeline import ELBO_BATCH_ENV_VAR, _pin_config
from repro.parallel import ParallelRegionConfig, optimize_region_parallel
from repro.parallel.conflict import build_conflict_graph
from repro.parallel.executor import _batchable_runs
from repro.perf.counters import batch_occupancy
from repro.psf import default_psf
from repro.survey import (
    AffineWCS,
    ImageMeta,
    SyntheticSkyConfig,
    generate_survey_fields,
    render_image,
)


def _batch(make_random_context, specs):
    """Build a batch of ``(ctx, free)`` pairs from harness spec dicts."""
    pairs = [make_random_context(**spec) for spec in specs]
    return [c for c, _ in pairs], [f for _, f in pairs]


#: A deliberately ragged batch: same-shaped star/galaxy lanes that stack,
#: plus a smaller patch, a different visit count, and masked pixels — four
#: distinct shape groups in one batch.
RAGGED = [
    dict(entry="star", seed=0, perturb=0.1),
    dict(entry="galaxy", seed=1, perturb=0.1),
    dict(entry="star", seed=2, perturb=0.2),
    dict(entry="galaxy", seed=3, patch_shape=(16, 16), perturb=0.1),
    dict(entry="star", seed=4, n_visits=2, perturb=0.1),
    dict(entry="galaxy", seed=5, mask=True, perturb=0.1),
]

UNIFORM = [dict(entry="star", seed=s, perturb=0.1) for s in range(5)]


class TestBatchedEvaluationParity:
    """Lane independence of elbo_batch — k lanes against k one-lane calls
    (``elbo`` is the batch of one) — and parity with the Taylor oracle."""

    @pytest.mark.parametrize("specs", [UNIFORM, RAGGED],
                             ids=["uniform", "ragged"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_batched_bit_for_bit_equals_scalar(self, make_random_context,
                                               specs, order):
        ctxs, frees = _batch(make_random_context, specs)
        outs = elbo_batch(ctxs, frees, order=order, backend="fused")
        for ctx, free, out in zip(ctxs, frees, outs):
            ref = elbo(ctx, free, order=order, backend="fused")
            assert float(out.val) == float(ref.val)
            np.testing.assert_array_equal(out.gradient(FREE.size),
                                          ref.gradient(FREE.size))
            if order >= 2:
                np.testing.assert_array_equal(out.hessian(FREE.size),
                                              ref.hessian(FREE.size))
            else:
                assert out.hess is None

    @pytest.mark.parametrize("order", [1, 2])
    def test_batched_fused_matches_taylor_oracle(self, make_random_context,
                                                 assert_d012_close, order):
        """Randomized batched-vs-Taylor parity: the Taylor backend's
        trivial per-lane loop is the oracle the stacked kernel must
        match at both orders."""
        ctxs, frees = _batch(make_random_context, RAGGED)
        fused = elbo_batch(ctxs, frees, order=order, backend="fused")
        taylor = elbo_batch(ctxs, frees, order=order, backend="taylor")
        for out, ref in zip(fused, taylor):
            assert_d012_close(out, ref, order, rtol=1e-9)

    def test_batch_of_one(self, make_random_context):
        ctx, free = make_random_context("galaxy", seed=8, perturb=0.1)
        out = elbo_batch([ctx], [free], order=2, backend="fused")
        ref = elbo(ctx, free, order=2, backend="fused")
        assert float(out[0].val) == float(ref.val)
        np.testing.assert_array_equal(out[0].hessian(FREE.size),
                                      ref.hessian(FREE.size))

    def test_compiled_handle_reused_and_guarded(self, make_random_context):
        ctxs, frees = _batch(make_random_context, UNIFORM)
        compiled = compile_elbo_batch(ctxs, backend="fused")
        a = elbo_batch(ctxs, frees, compiled=compiled, backend="fused")
        b = elbo_batch(ctxs, frees, compiled=compiled, backend="fused")
        assert float(a[0].val) == float(b[0].val)
        # Membership changed without recompiling: refuse, don't misevaluate.
        with pytest.raises(ValueError):
            elbo_batch(ctxs[1:], frees[1:], compiled=compiled,
                       backend="fused")

    def test_active_mask_skips_lanes_and_accounting(self, make_random_context):
        ctxs, frees = _batch(make_random_context, UNIFORM)
        active = [True, False, True, False, True]
        outs = elbo_batch(ctxs, frees, order=2, backend="fused",
                          active=active)
        for flag, out in zip(active, outs):
            assert (out is not None) == flag
        # Inactive lanes are never accounted: no visits, no evaluations.
        assert "active_pixel_visits" not in ctxs[1].counters.snapshot()
        snap = ctxs[0].counters.snapshot()
        assert snap["elbo_batch_calls"] == 1.0
        assert snap["elbo_batch_lanes"] == 5.0
        assert snap["elbo_batch_lanes_active"] == 3.0
        assert batch_occupancy(snap) == pytest.approx(0.6)

    def test_sweep_counters_report_what_the_kernel_stacked(
            self, make_random_context):
        # elbo_batch_lanes counts lanes per *call*; the kernel only stacks
        # lanes of equal patch shape, so differently-shaped lanes sweep one
        # at a time however wide the call — and the counters must say so.
        def sweeps(specs):
            ctxs, frees = _batch(make_random_context, specs)
            elbo_batch(ctxs, frees, order=2, backend="fused")
            snaps = [c.counters.snapshot() for c in ctxs]
            assert snaps[0]["elbo_batch_lanes"] == float(len(ctxs))
            return (sum(s.get("elbo_sweep_calls", 0.0) for s in snaps),
                    sum(s.get("elbo_sweep_lanes", 0.0) for s in snaps))

        shapes = [(16, 16), (18, 16), (20, 22)]
        assert sweeps([dict(entry="galaxy", seed=i, patch_shape=shape)
                       for i, shape in enumerate(shapes)]) == (3.0, 3.0)
        assert sweeps(UNIFORM) == (1.0, float(len(UNIFORM)))

    def test_batch_occupancy_zero_batches(self):
        # A run where no batched evaluation ever happened wasted no lanes:
        # occupancy is defined as 1.0, not a division by zero.
        assert batch_occupancy({}) == 1.0
        assert batch_occupancy({"elbo_batch_lanes": 0.0}) == 1.0
        assert batch_occupancy({"elbo_batch_lanes": 0.0,
                                "elbo_batch_lanes_active": 0.0}) == 1.0
        # Negative lane counts cannot occur (counters only add), but the
        # guard is <= 0, not == 0: still no division blow-up.
        assert batch_occupancy({"elbo_batch_lanes": -1.0}) == 1.0

    def test_input_validation(self, make_random_context):
        ctxs, frees = _batch(make_random_context, UNIFORM[:2])
        with pytest.raises(ValueError):
            elbo_batch(ctxs, frees[:1], backend="fused")
        with pytest.raises(ValueError):
            elbo_batch(ctxs, frees, active=[True], backend="fused")

    def test_sweep_budget_never_changes_results(self, monkeypatch,
                                                make_random_context):
        """Cache blocking is an execution strategy: forcing one-lane
        chunks, the autotuned cap, and effectively-unchunked sweeps must
        all produce bit-identical evaluations (chunking only slices the
        lane axis; per-lane reduction trees never see the chunk
        boundary)."""
        from repro.core import kernel

        outs = {}
        for budget in (1, None, 1000000000):
            with monkeypatch.context() as patch:
                if budget is not None:
                    # An unreadable cache hierarchy falls back to the
                    # element budget: the two inputs of _lane_sweep_cap.
                    patch.setattr(kernel, "_CACHE_BYTES", (0, 0))
                    patch.setattr(kernel, "_LANE_SWEEP_BUDGET", budget)
                ctxs, frees = _batch(make_random_context, UNIFORM)
                outs[budget] = elbo_batch(ctxs, frees, order=2,
                                          backend="fused")
        ref = outs[None]
        for budget in (1, 1000000000):
            for out, want in zip(outs[budget], ref):
                assert float(out.val) == float(want.val)
                np.testing.assert_array_equal(out.gradient(FREE.size),
                                              want.gradient(FREE.size))
                np.testing.assert_array_equal(out.hessian(FREE.size),
                                              want.hessian(FREE.size))

    def test_empty_batch(self):
        assert elbo_batch([], [], backend="fused") == []


class TestLockstepOptimizer:
    """Lane independence of optimize_sources_batch: k lanes against k
    one-lane solves (``optimize_source`` is the batch of one)."""

    def _solve_both(self, make_random_context, specs, config,
                    **batch_kwargs):
        ref_ctxs, entries = _cases(make_random_context, specs)
        bat_ctxs, _ = _cases(make_random_context, specs)
        ref = [optimize_source(ctx, e, config)
               for ctx, e in zip(ref_ctxs, entries)]
        bat = optimize_sources_batch(bat_ctxs, entries, config,
                                     **batch_kwargs)
        return ref, bat, bat_ctxs

    def test_bit_for_bit_equals_scalar_solves(self, make_random_context):
        config = OptimizeConfig(max_iter=15, grad_tol=1e-4, backend="fused")
        ref, bat, _ = self._solve_both(make_random_context, RAGGED, config)
        for r, b in zip(ref, bat):
            np.testing.assert_array_equal(r.free, b.free)
            assert r.elbo == b.elbo
            assert r.optim.n_iterations == b.optim.n_iterations
            assert r.optim.n_evaluations == b.optim.n_evaluations
            assert r.optim.message == b.optim.message
            assert r.converged == b.converged

    def test_repack_thresholds_do_not_change_results(self,
                                                     make_random_context):
        config = OptimizeConfig(max_iter=20, grad_tol=1e-4, backend="fused")
        frees = {}
        for threshold in (0.0, 0.5, 1.0):
            ctxs, entries = _cases(make_random_context, UNIFORM)
            results = optimize_sources_batch(ctxs, entries, config,
                                             repack_threshold=threshold)
            frees[threshold] = [r.free for r in results]
            if threshold == 1.0:
                # Repacking on every drop keeps occupancy perfect: every
                # swept lane is active.
                snap = ctxs[0].counters.snapshot()
                assert (snap["elbo_batch_lanes_active"]
                        == snap["elbo_batch_lanes"])
        for threshold in (0.5, 1.0):
            for a, b in zip(frees[0.0], frees[threshold]):
                np.testing.assert_array_equal(a, b)

    def test_counters_match_scalar_path(self, make_random_context):
        config = OptimizeConfig(max_iter=10, grad_tol=1e-4, backend="fused")
        ref, bat, bat_ctxs = self._solve_both(
            make_random_context, UNIFORM, config)
        # Per-lane counter bags: visits/evaluations/iterations identical to
        # the scalar path; only the batch-shape counters are extra.
        ref_ctxs, entries = _cases(make_random_context, UNIFORM)
        for ctx, e in zip(ref_ctxs, entries):
            optimize_source(ctx, e, config)
        for rc, bc in zip(ref_ctxs, bat_ctxs):
            r = rc.counters.snapshot()
            b = bc.counters.snapshot()
            for key in ("active_pixel_visits", "objective_evaluations",
                        "objective_evaluations_fused", "newton_solves",
                        "newton_iterations"):
                assert r.get(key) == b.get(key), key

    def test_all_sources_converge_on_first_iteration(self,
                                                     make_random_context):
        # A sky-high tolerance converges every lane right after the shared
        # round-zero evaluation: one batch call, zero iterations, and the
        # lockstep loop must exit cleanly with nothing pending.
        config = OptimizeConfig(max_iter=10, grad_tol=1e9, backend="fused")
        ctxs, entries = _cases(make_random_context, UNIFORM)
        results = optimize_sources_batch(ctxs, entries, config)
        assert all(r.converged for r in results)
        assert all(r.optim.n_iterations == 0 for r in results)
        assert all(r.optim.n_evaluations == 1 for r in results)
        assert ctxs[0].counters.snapshot()["elbo_batch_calls"] == 1.0

    def test_lbfgs_runs_lockstep_and_matches_scalar(self,
                                                    make_random_context):
        """The L-BFGS baseline batches too (it used to fall back to the
        per-source loop): gradient-only lockstep rounds, bit-for-bit equal
        to the scalar solver lane by lane."""
        config = OptimizeConfig(max_iter=25, grad_tol=1e-4, method="lbfgs",
                                backend="fused")
        ctxs, entries = _cases(make_random_context, UNIFORM)
        results = optimize_sources_batch(ctxs, entries, config)
        # The batched path really ran, through the lbfgs counters.
        snap = ctxs[0].counters.snapshot()
        assert snap["elbo_batch_calls"] > 0
        assert snap["lbfgs_solves"] == 1.0
        assert "newton_solves" not in snap

        ref_ctxs, ref_entries = _cases(make_random_context, UNIFORM)
        for res, (ctx, e) in zip(results, zip(ref_ctxs, ref_entries)):
            ref = optimize_source(ctx, e, config)
            np.testing.assert_array_equal(res.free, ref.free)
            assert res.elbo == ref.elbo
            assert res.optim.n_iterations == ref.optim.n_iterations
            assert res.optim.n_evaluations == ref.optim.n_evaluations
            assert res.optim.message == ref.optim.message

    def test_raising_evaluation_releases_scratch_pool(self, monkeypatch,
                                                      make_random_context):
        """Extends the PR-4 regression to the batched path: an evaluation
        that raises mid-lockstep must return the per-thread scratch pool
        to baseline rather than strand stacked buffers."""
        from repro.core import kernel

        # Pinned to the numpy execution target: the scratch pool and the
        # patched-in failure are that target's own machinery, so the test
        # must not follow a REPRO_KERNEL_TARGET override.
        config = OptimizeConfig(max_iter=3, grad_tol=1e-4, backend="fused",
                                kernel_target="numpy")
        ctxs, entries = _cases(make_random_context, UNIFORM)
        optimize_sources_batch(ctxs, entries, config)
        assert getattr(kernel._TLS, "pool", None)  # buffers pooled

        def boom(*args, **kwargs):
            raise RuntimeError("stacked kernel exploded mid-lockstep")

        monkeypatch.setattr(kernel, "_patch_pixel_term", boom)
        fresh, fresh_entries = _cases(make_random_context, UNIFORM)
        with pytest.raises(RuntimeError):
            optimize_sources_batch(fresh, fresh_entries, config)
        assert not getattr(kernel._TLS, "pool", None)

    def test_empty_and_mismatched_inputs(self):
        assert optimize_sources_batch([], []) == []
        with pytest.raises(ValueError):
            optimize_sources_batch([object()], [])


def _cases(make_random_context, specs):
    """Contexts plus the catalog entries that initialize their solves."""
    triples = [make_random_context(**spec, with_entry=True)
               for spec in specs]
    return [c for c, _, _ in triples], [e for _, _, e in triples]


# ---------------------------------------------------------------------------
# Executor level


def _region_scene(n=10, spacing=12.0, seed=3):
    """A row of alternating star/galaxy sources, close enough that some
    neighbors conflict (patch boxes overlap) and some do not."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        x = 14.0 + spacing * i
        if i % 2 == 0:
            entries.append(CatalogEntry([x, 14.0], False, 30.0 + i,
                                        [1.5, 1.1, 0.25, 0.05]))
        else:
            entries.append(CatalogEntry(
                [x, 14.0], True, 50.0 + i, [0.7, 0.45, 0.6, 0.45],
                gal_radius_px=2.0, gal_axis_ratio=0.6, gal_angle=0.8,
                gal_frac_dev=0.4))
    shape = (28, int(28 + spacing * (n - 1)))
    images = [render_image(entries, ImageMeta(
        band=2, wcs=AffineWCS.translation(0, 0), psf=default_psf(3.0),
        sky_level=100.0, calibration=100.0), shape, rng=rng)]
    return images, entries


class TestBatchableRuns:
    def test_conflicting_sources_never_share_a_run(self):
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [40.0, 0.0], [80.0, 0.0]])
        graph = build_conflict_graph(pos, radii=5.0)
        assert graph.conflicts(0, 1)
        runs = _batchable_runs([0, 1, 2, 3], graph, limit=4)
        # Greedy list scheduling: the independent tail (2, 3) packs into
        # source 0's chunk instead of fragmenting on the 0-1 conflict;
        # 1 waits for the next round because it conflicts with 0.
        assert runs == [[0, 2, 3], [1]]
        # Conflicting pairs keep their relative order — chunking reorders
        # only independent sources, so the schedule stays serially
        # equivalent to the one-by-one loop.
        flat_pos = {s: i for i, run in enumerate(runs) for s in run}
        assert flat_pos[0] < flat_pos[1]

    def test_conflict_chain_preserves_order(self):
        # 0-1 and 1-2 conflict (chain); 3 is independent.  1 must not jump
        # past 0, and 2 must not jump past 1 even though 2 does not
        # conflict with 0 directly: deferral is transitive through the
        # rest-scan, so the serialized component executes in order.
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0], [80.0, 0.0]])
        graph = build_conflict_graph(pos, radii=5.0)
        runs = _batchable_runs([0, 1, 2, 3], graph, limit=4)
        assert runs == [[0, 3], [1], [2]]

    def test_size_limit_respected(self):
        pos = np.array([[40.0 * i, 0.0] for i in range(7)])
        graph = build_conflict_graph(pos, radii=5.0)
        runs = _batchable_runs(list(range(7)), graph, limit=3)
        assert runs == [[0, 1, 2], [3, 4, 5], [6]]

    def test_lane_limit_one_is_the_one_by_one_loop(self):
        # Limit 1 never reorders anything, conflicts or not: the
        # assignment's sources come back as singletons in their order.
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0], [80.0, 0.0]])
        graph = build_conflict_graph(pos, radii=5.0)
        assignment = [2, 0, 3, 1]
        assert _batchable_runs(assignment, graph, 1) == [[2], [0], [3], [1]]


class TestCoalesceBatches:
    def _graph(self):
        # 0-1 conflict; everything else is pairwise independent.
        pos = np.array([[0.0, 0.0], [8.0, 0.0], [40.0, 0.0], [80.0, 0.0],
                        [120.0, 0.0], [160.0, 0.0]])
        return build_conflict_graph(pos, radii=5.0)

    def test_merges_conflict_free_rounds(self):
        from repro.parallel.cyclades import CycladesBatch
        from repro.parallel.executor import _coalesce_batches

        graph = self._graph()
        batches = [
            CycladesBatch(thread_assignments=[[2], [3]],
                          components=[[2], [3]]),
            CycladesBatch(thread_assignments=[[4], [5]],
                          components=[[4], [5]]),
        ]
        out = _coalesce_batches(batches, graph, n_threads=2)
        assert len(out) == 1
        assert out[0].thread_assignments == [[2, 4], [3, 5]]
        assert out[0].components == [[2], [3], [4], [5]]

    def test_merges_co_threaded_conflicts(self):
        from repro.parallel.cyclades import CycladesBatch
        from repro.parallel.executor import _coalesce_batches

        graph = self._graph()
        # 0 and 1 conflict but land on the same thread in consecutive
        # rounds: the barrier between them is redundant (intra-thread
        # order already serializes them) and the rounds merge.
        batches = [
            CycladesBatch(thread_assignments=[[0], [2]],
                          components=[[0], [2]]),
            CycladesBatch(thread_assignments=[[1], [3]],
                          components=[[1], [3]]),
        ]
        out = _coalesce_batches(batches, graph, n_threads=2)
        assert len(out) == 1
        assert out[0].thread_assignments == [[0, 1], [2, 3]]

    def test_keeps_barrier_for_cross_thread_conflicts(self):
        from repro.parallel.cyclades import CycladesBatch
        from repro.parallel.executor import _coalesce_batches

        graph = self._graph()
        # 0 and 1 conflict and sit on *different* threads across the two
        # rounds: merging would race them, so the barrier must survive.
        batches = [
            CycladesBatch(thread_assignments=[[0], [2]],
                          components=[[0], [2]]),
            CycladesBatch(thread_assignments=[[3], [1]],
                          components=[[3], [1]]),
        ]
        out = _coalesce_batches(batches, graph, n_threads=2)
        assert len(out) == 2
        assert out[0].thread_assignments == [[0], [2]]
        assert out[1].thread_assignments == [[3], [1]]

    def test_conflict_with_any_group_member_blocks_merge(self):
        from repro.parallel.cyclades import CycladesBatch
        from repro.parallel.executor import _coalesce_batches

        graph = self._graph()
        # Round 3's source 1 conflicts with round 1's source 0 on another
        # thread.  The merge check must look at the whole accumulated
        # group, not just the previous round — otherwise 1 would slip in
        # two rounds after 0 and race it.
        batches = [
            CycladesBatch(thread_assignments=[[0], [2]],
                          components=[[0], [2]]),
            CycladesBatch(thread_assignments=[[3], [4]],
                          components=[[3], [4]]),
            CycladesBatch(thread_assignments=[[5], [1]],
                          components=[[5], [1]]),
        ]
        out = _coalesce_batches(batches, graph, n_threads=2)
        assert len(out) == 2
        assert out[0].thread_assignments == [[0, 3], [2, 4]]
        assert out[1].thread_assignments == [[5], [1]]


class TestExecutorBatching:
    @pytest.mark.parametrize("elbo_batch_size", [None, 1, 2, 4, 8, 16])
    def test_region_catalog_bit_for_bit(self, elbo_batch_size):
        images, entries = _region_scene()
        priors = default_priors()
        joint = JointConfig(
            n_passes=1, single=OptimizeConfig(max_iter=6, grad_tol=2e-3,
                                              backend="fused"),
        )

        def run(batch):
            return optimize_region_parallel(
                images, entries, priors,
                ParallelRegionConfig(n_threads=2, n_passes=1, joint=joint,
                                     elbo_batch_size=batch, seed=0),
            )

        ref = run(None)
        out = run(elbo_batch_size)
        assert len(ref.catalog) == len(out.catalog)
        for a, b in zip(ref.catalog, out.catalog):
            np.testing.assert_array_equal(a.position, b.position)
            assert a.flux_r == b.flux_r
            assert a.is_galaxy == b.is_galaxy
            np.testing.assert_array_equal(a.colors, b.colors)
        assert ref.elbo_total == out.elbo_total

    @pytest.mark.parametrize("elbo_batch_size", [None, 1])
    def test_lane_limit_one_runs_the_one_path(self, elbo_batch_size):
        """``None`` and ``1`` both mean lane limit 1 through the same
        batched path: every evaluation is a one-lane batch call, and no
        lane is ever swept masked."""
        from repro.perf import Counters

        images, entries = _region_scene()
        counters = Counters()
        optimize_region_parallel(
            images, entries, default_priors(),
            ParallelRegionConfig(
                n_threads=2, n_passes=1, elbo_batch_size=elbo_batch_size,
                joint=JointConfig(n_passes=1, single=OptimizeConfig(
                    max_iter=6, grad_tol=2e-3, backend="fused"))),
            counters=counters,
        )
        snap = counters.snapshot()
        assert snap["objective_evaluations"] > 0
        assert snap["elbo_batch_calls"] == snap["objective_evaluations"]
        assert snap["elbo_batch_lanes"] == snap["elbo_batch_calls"]
        assert batch_occupancy(snap) == 1.0

    def test_cross_assignment_coalescing_bit_for_bit_and_fuller(
            self, monkeypatch):
        """Cross-assignment batching: batch coalescing (always on above
        lane limit 1; switched off here by patching it out) lets lockstep
        evaluation batches span multiple Cyclades rounds — measurably more
        lanes per call on a clustered scene — while the catalog stays
        bit-for-bit identical to the uncoalesced (and scalar) schedule."""
        from repro.parallel import executor
        from repro.perf import Counters

        # Well-separated sources: the conflict graph shatters, so every
        # Cyclades round is mergeable and the only thing capping lockstep
        # width is the round boundary itself — exactly what coalescing
        # removes.  (Clustered scenes merge less; the unit tests above
        # cover the conflict-blocked cases.)
        images, entries = _region_scene(n=12, spacing=30.0)
        priors = default_priors()
        joint = JointConfig(
            n_passes=1, single=OptimizeConfig(max_iter=6, grad_tol=2e-3,
                                              backend="fused"),
        )

        def run(coalesce):
            counters = Counters()
            with monkeypatch.context() as patch:
                if not coalesce:
                    patch.setattr(executor, "_coalesce_batches",
                                  lambda batches, graph, n_threads: batches)
                result = optimize_region_parallel(
                    images, entries, priors,
                    ParallelRegionConfig(
                        n_threads=2, n_passes=1, joint=joint,
                        # A tiny sampling batch forces many small Cyclades
                        # rounds — the regime where per-round chunking
                        # starves the lockstep width.
                        batch_size=3, elbo_batch_size=16, seed=0),
                    counters=counters,
                )
            return result, counters.snapshot()

        split, split_snap = run(False)
        merged, merged_snap = run(True)
        for a, b in zip(split.catalog, merged.catalog):
            np.testing.assert_array_equal(a.position, b.position)
            assert a.flux_r == b.flux_r
            np.testing.assert_array_equal(a.colors, b.colors)
        assert split.elbo_total == merged.elbo_total

        def lanes_per_call(snap):
            return snap["elbo_batch_lanes"] / snap["elbo_batch_calls"]

        # Coalescing exists to fill lanes: strictly fewer batch calls,
        # strictly more lanes per call, on this scene.
        assert merged_snap["elbo_batch_calls"] < split_snap["elbo_batch_calls"]
        assert lanes_per_call(merged_snap) > lanes_per_call(split_snap)


# ---------------------------------------------------------------------------
# Driver level


@pytest.fixture(scope="module")
def batch_survey():
    rng = np.random.default_rng(5)
    sky = SyntheticSkyConfig(
        source_density=140.0, min_separation=6.0, flux_floor=20.0
    )
    return generate_survey_fields(
        2, field_shape_hw=(40, 40), overlap=8.0,
        config=sky, rng=rng, bands=(2,),
    )


def _driver_config(executor, batch, **kwargs):
    return DriverConfig(
        n_nodes=2,
        executor=executor,
        target_weight=200.0,
        elbo_batch_size=batch,
        parallel=ParallelRegionConfig(
            n_threads=2,
            n_passes=1,
            joint=JointConfig(
                n_passes=1,
                single=OptimizeConfig(max_iter=8, grad_tol=2e-3,
                                      backend="fused"),
            ),
        ),
        **kwargs,
    )


def _entry_tuple(e):
    return (tuple(e.position), e.is_galaxy, e.flux_r, tuple(e.colors),
            e.gal_frac_dev, e.gal_axis_ratio, e.gal_angle, e.gal_radius_px)


class TestDriverBatching:
    def test_batched_catalog_bit_for_bit_both_executors(self, batch_survey):
        """The acceptance invariant: fused catalogs at lane limit 8 are
        bit-for-bit identical to fused catalogs at lane limit 1 under the
        thread *and* process executors, and lanes really were shared."""
        _, fields = batch_survey
        # Explicit 1 pins one lane even when CI forces REPRO_ELBO_BATCH
        # (an explicit config always beats the env var).
        ref = run_pipeline(fields, _driver_config("thread", 1))
        assert (ref.counters["elbo_batch_calls"]
                == ref.counters["objective_evaluations"])
        for executor in ("thread", "process"):
            out = run_pipeline(fields, _driver_config(executor, 8))
            assert (0 < out.counters["elbo_batch_calls"]
                    < out.counters["objective_evaluations"])
            assert ([_entry_tuple(e) for e in out.catalog]
                    == [_entry_tuple(e) for e in ref.catalog])

    def test_env_var_plumbs_batch_size(self, batch_survey, monkeypatch):
        _, fields = batch_survey
        monkeypatch.setenv(ELBO_BATCH_ENV_VAR, "8")
        result = run_pipeline(fields, _driver_config("thread", None))
        assert (0 < result.counters["elbo_batch_calls"]
                < result.counters["objective_evaluations"])

    def test_batch_size_is_pinned_and_fingerprinted(self, monkeypatch):
        monkeypatch.delenv(ELBO_BATCH_ENV_VAR, raising=False)
        config = _pin_config(_driver_config("thread", 8))
        assert config.parallel.elbo_batch_size == 8
        monkeypatch.setenv(ELBO_BATCH_ENV_VAR, "4")
        config = _pin_config(_driver_config("thread", None))
        assert config.elbo_batch_size == 4
        assert config.parallel.elbo_batch_size == 4
        with pytest.raises(ValueError):
            _pin_config(_driver_config("thread", 0))

    def test_checkpoint_refuses_resume_across_batch_size(self, batch_survey,
                                                         tmp_path):
        """elbo_batch_size is result-neutral by invariant, but it is
        fingerprinted (the issue's contract): a checkpoint written under
        one evaluation layout refuses resume under another rather than
        silently mixing layouts across a resume boundary."""
        import dataclasses

        _, fields = batch_survey
        path = str(tmp_path / "ckpt.json")
        first = run_pipeline(fields, dataclasses.replace(
            _driver_config("thread", 8),
            checkpoint_path=path, stop_after="stage0"))
        assert first.stopped_early

        same = run_pipeline(fields, dataclasses.replace(
            _driver_config("thread", 8), checkpoint_path=path))
        assert "stage0" in same.resumed_stages

        other = run_pipeline(fields, dataclasses.replace(
            _driver_config("thread", 4), checkpoint_path=path))
        assert other.resumed_stages == []
