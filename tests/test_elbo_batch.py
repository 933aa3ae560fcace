"""Batched ELBO evaluation and the lockstep Newton optimizer.

There is one evaluation path and one solver path, and every single-source
entry point is its batch of one.  The hard invariant is **lane
independence**: k lanes in one call are bit-for-bit identical to k one-lane
calls at every level — a single evaluation, a whole Newton solve, a
Cyclades region, a multi-field driver run.  Padding a batch to a common
shape cannot satisfy that (NumPy's pairwise-summation grouping depends on
the reduced length), so the fused kernel runs one pixel pass per (lane,
patch) pair and stacks only the per-pair work that has fixed shapes;
these tests pin the invariant with exact equality, and pin batched-vs-Taylor
parity (the oracle in ``tests/taylor_oracle/``) with the shared randomized
harness from ``tests/conftest.py``.
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
from repro.parallel.executor import RegionJob, RegionRun
from repro.perf.counters import batch_occupancy
from repro.psf import default_psf
from repro.psf.gmm import MixturePSF
from repro.survey import (
    AffineWCS,
    ImageMeta,
    SyntheticSkyConfig,
    generate_survey_fields,
    render_image,
)

from taylor_oracle.elbo import elbo_taylor
from test_golden_pipeline import catalog_bits_digest


def _batch(make_random_context, specs):
    """Build a batch of ``(ctx, free)`` pairs from harness spec dicts."""
    pairs = [make_random_context(**spec) for spec in specs]
    return [c for c, _ in pairs], [f for _, f in pairs]


#: A deliberately ragged batch: same-shaped star/galaxy lanes, plus a
#: smaller patch, a different visit count, and masked pixels — four
#: distinct patch shapes in one batch.
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
        outs = elbo_batch(ctxs, frees, order=order)
        for ctx, free, out in zip(ctxs, frees, outs):
            ref = elbo(ctx, free, order=order)
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
        """Randomized batched-vs-Taylor parity: the oracle, evaluated lane
        by lane, is what the stacked kernel must match at both orders."""
        ctxs, frees = _batch(make_random_context, RAGGED)
        fused = elbo_batch(ctxs, frees, order=order)
        taylor = [elbo_taylor(ctx, free, order=order)
                  for ctx, free in zip(ctxs, frees)]
        for out, ref in zip(fused, taylor):
            assert_d012_close(out, ref, order, rtol=1e-9)

    def test_batch_of_one(self, make_random_context):
        ctx, free = make_random_context("galaxy", seed=8, perturb=0.1)
        out = elbo_batch([ctx], [free], order=2)
        ref = elbo(ctx, free, order=2)
        assert float(out[0].val) == float(ref.val)
        np.testing.assert_array_equal(out[0].hessian(FREE.size),
                                      ref.hessian(FREE.size))

    def test_compiled_handle_reused_and_guarded(self, make_random_context):
        ctxs, frees = _batch(make_random_context, UNIFORM)
        compiled = compile_elbo_batch(ctxs)
        a = elbo_batch(ctxs, frees, compiled=compiled)
        b = elbo_batch(ctxs, frees, compiled=compiled)
        assert float(a[0].val) == float(b[0].val)
        # Membership changed without recompiling: refuse, don't misevaluate.
        with pytest.raises(ValueError):
            elbo_batch(ctxs[1:], frees[1:], compiled=compiled)

    def test_every_lane_is_evaluated_and_accounted(self,
                                                   make_random_context):
        ctxs, frees = _batch(make_random_context, UNIFORM)
        outs = elbo_batch(ctxs, frees, order=2)
        assert all(out is not None for out in outs)
        for ctx in ctxs:
            assert ctx.counters.snapshot()["objective_evaluations"] >= 1.0
        snap = ctxs[0].counters.snapshot()
        assert snap["elbo_batch_calls"] == 1.0
        assert snap["elbo_batch_lanes"] == 5.0
        assert snap["elbo_batch_lanes_active"] == 5.0
        assert batch_occupancy(snap) == 1.0

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
            elbo_batch(ctxs, frees[:1])

    def test_mixture_scratch_holds_one_patch(self, make_random_context):
        """Every (lane, patch) pair runs its own pixel pass, so a wide call
        of same-shaped lanes grows the thread's mixture scratch to one
        patch's ``10 * C * M`` elements, not to the lanes' total."""
        from repro.core import kernel

        kernel.release_scratch()
        ctxs, frees = _batch(make_random_context, UNIFORM)
        elbo_batch(ctxs, frees, order=2)
        one_patch = max(10 * pws.var.shape[1] * pws.n_pixels
                        for ctx in ctxs for pws in ctx.workspace.patches)
        assert kernel._TLS.pool["mixture"].size == one_patch
        kernel.release_scratch()

    def test_layout_reads_the_contexts_own_pixels(self,
                                                  make_random_context):
        """A batch layout copies no pixel array: each pair's pixel pass
        reads its context's own compiled patch slot."""
        ctxs, _ = _batch(make_random_context, RAGGED)
        lay = compile_elbo_batch(ctxs).layout
        slots = [pws for g in lay.pair_groups for pws in g.slots]
        own = [pws for ctx in ctxs for pws in ctx.workspace.patches]
        assert len(slots) == len(own)
        assert {id(s) for s in slots} == {id(p) for p in own}

    def test_empty_batch(self):
        assert elbo_batch([], []) == []


def _shared_chain_batch(make_random_context, perturbed_priors):
    """RAGGED on one shared Priors, with two lanes moved to a second one,
    plus two lanes that stack together through different bands
    (mixed-band slots; one lane repeats a band, and band 4 is its alone)."""
    first, second = default_priors(), perturbed_priors(3)
    specs = RAGGED + [dict(entry="galaxy", seed=6, bands=(0, 4, 4),
                           perturb=0.1),
                      dict(entry="star", seed=7, bands=(3, 0, 2),
                           perturb=0.1)]
    pairs = [make_random_context(**spec, priors=second if i in (1, 4)
                                 else first)
             for i, spec in enumerate(specs)]
    return [c for c, _ in pairs], [f for _, f in pairs], (first, second)


class TestSharedChain:
    """The pixel-count-independent stages — the chain, the per-band chain
    rule and the KL term — run once per batch call, not once per lane or
    patch, and a lane's bits still depend on nothing else in the call."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_lanes_independent_across_sweep_groups(
            self, make_random_context, perturbed_priors, order):
        ctxs, frees, _ = _shared_chain_batch(make_random_context,
                                             perturbed_priors)
        outs = elbo_batch(ctxs, frees, order=order)
        for ctx, free, out in zip(ctxs, frees, outs):
            ref = elbo(ctx, free, order=order)
            assert float(out.val) == float(ref.val)
            np.testing.assert_array_equal(out.gradient(FREE.size),
                                          ref.gradient(FREE.size))
            if order >= 2:
                np.testing.assert_array_equal(out.hessian(FREE.size),
                                              ref.hessian(FREE.size))

    def test_one_chain_and_one_kl_stack_per_priors(
            self, monkeypatch, make_random_context, perturbed_priors):
        from repro.core import kernel

        ctxs, frees, priors = _shared_chain_batch(make_random_context,
                                                  perturbed_priors)
        chains, kl_stacks = [], []
        chain_init = kernel._EvalChain.__init__
        kl_eval = kernel.KlWorkspace.evaluate_stacked

        def counting_init(self, u_centers, frees, *args, **kwargs):
            chains.append(frees.shape[0])
            chain_init(self, u_centers, frees, *args, **kwargs)

        def counting_kl(self, frees, order, *args):
            kl_stacks.append(frees.shape[0])
            return kl_eval(self, frees, order, *args)

        monkeypatch.setattr(kernel._EvalChain, "__init__", counting_init)
        monkeypatch.setattr(kernel.KlWorkspace, "evaluate_stacked",
                            counting_kl)
        elbo_batch(ctxs, frees, order=2)
        assert chains == [len(ctxs)]        # one chain over all lanes
        assert sorted(kl_stacks) == [2, len(ctxs) - 2]
        assert len(priors) == len(kl_stacks)

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_bijector_pass_per_call(self, monkeypatch, make_random_context,
                                        perturbed_priors, order):
        """Every LogitBox coordinate of a call goes through one pass, shared
        by the chain and the KL stack, whatever the lane, patch and band
        counts; no per-block bijector call remains."""
        from repro.core import kernel
        from repro.transforms import LogitBox

        ctxs, frees, _ = _shared_chain_batch(make_random_context,
                                             perturbed_priors)
        passes, per_block = [], []
        real_pass = kernel._bijector_pass
        real_vec = LogitBox.forward_d012_vec

        def counting_pass(f):
            passes.append(f.shape[0])
            return real_pass(f)

        def counting_vec(self, u):
            per_block.append(1)
            return real_vec(self, u)

        monkeypatch.setattr(kernel, "_bijector_pass", counting_pass)
        monkeypatch.setattr(LogitBox, "forward_d012_vec", counting_vec)
        for lanes in (slice(None), slice(0, 1), slice(3, 6)):
            passes.clear()
            elbo_batch(ctxs[lanes], frees[lanes], order=order)
            assert passes == [len(ctxs[lanes])]
        assert per_block == []

    def test_one_prologue_per_call_not_per_patch(
            self, monkeypatch, make_random_context, perturbed_priors):
        """The pixel term's pixel-independent work runs once per call over
        every (lane, patch) pair of a component key, and only the pixel
        passes run per pair."""
        from repro.core import kernel

        ctxs, frees, _ = _shared_chain_batch(make_random_context,
                                             perturbed_priors)
        prologues, pixel_passes = [], []
        real_prologue = kernel._prologue
        real_pass = kernel._patch_pixel_term

        def counting_prologue(st, rows, amps, order, vc):
            prologues.append(rows[0].shape[0])
            return real_prologue(st, rows, amps, order, vc)

        def counting_pass(pws, pro, i, order, vc):
            pixel_passes.append(pws.n_pixels)
            return real_pass(pws, pro, i, order, vc)

        monkeypatch.setattr(kernel, "_prologue", counting_prologue)
        monkeypatch.setattr(kernel, "_patch_pixel_term", counting_pass)
        compiled = compile_elbo_batch(ctxs)
        elbo_batch(ctxs, frees, order=2, compiled=compiled)
        n_pairs = sum(len(c.patches) for c in ctxs)
        groups = compiled.layout.pair_groups
        assert prologues == [len(g.lane) for g in groups]
        assert sum(prologues) == n_pairs > len(prologues)
        # One pixel pass per (lane, patch) pair, in the groups' row order.
        assert pixel_passes == [pws.n_pixels for g in groups
                                for pws in g.slots]
        assert len(pixel_passes) == n_pairs
        # A one-lane call (one PSF shape): one prologue over its patches.
        for ctx, free in zip(ctxs, frees):
            prologues.clear()
            elbo(ctx, free, order=2)
            assert prologues == [len(ctx.patches)]

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_elbo_kl_is_the_fused_calls_kl(self, monkeypatch,
                                           make_random_context,
                                           perturbed_priors, order):
        """``elbo_kl`` alone gives the bits of the KL contribution inside a
        fused call, which reads the call's shared bijector pass."""
        from repro.core import kernel
        from repro.core.elbo import elbo_kl

        ctxs, frees, _ = _shared_chain_batch(make_random_context,
                                             perturbed_priors)
        stacks = []
        real = kernel.KlWorkspace.evaluate_stacked

        def capturing(self, f, order, boxed=None):
            out = real(self, f, order, boxed)
            # The fused call adds the pixel term into these in place.
            stacks.append((boxed is not None,
                           [None if a is None else a.copy() for a in out]))
            return out

        monkeypatch.setattr(kernel.KlWorkspace, "evaluate_stacked",
                            capturing)
        elbo_batch(ctxs, frees, order=order)
        fused = list(stacks)
        groups = compile_elbo_batch(ctxs).layout.kl_groups
        assert len(fused) == len(groups)
        for (_, lanes), (shared, (val, grad, hess)) in zip(groups, fused):
            assert shared
            for i, lane in enumerate(lanes):
                alone = elbo_kl(ctxs[lane], frees[lane], order=order)
                assert np.asarray(alone.val).tobytes() == val[i].tobytes()
                for a, b in ((alone.grad, grad), (alone.hess, hess)):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.tobytes() == b[i].tobytes()


def _wide_psf():
    """A three-component PSF: another component count than the default
    double Gaussian, so its patches take another prologue stack."""
    return MixturePSF(weights=np.array([0.7, 0.2, 0.1]),
                      means=np.zeros((3, 2)),
                      covs=np.stack([s * np.eye(2) for s in (1.6, 4.0, 9.0)]))


def _prologue_batch(make_random_context, perturbed_priors):
    """Lanes with 1, 2 and 3 patches over different band sets, on two
    ``Priors``, two of them of one patch shape, and patches of two PSF
    component counts — one lane mixing both — so the call's prologue runs
    over two stacks and a lane's patches span them."""
    first, second = default_priors(), perturbed_priors(5)
    wide = _wide_psf()
    specs = [
        dict(entry="star", seed=20, bands=(2,)),
        dict(entry="galaxy", seed=21, bands=(1, 3)),
        dict(entry="galaxy", seed=22, bands=(0, 2, 2)),
        dict(entry="star", seed=23, bands=(4, 1, 0), patch_shape=(16, 16)),
        dict(entry="galaxy", seed=24, bands=(3, 3), psf=wide),
        dict(entry="star", seed=25, bands=(2, 0, 2),
             psf=[wide, default_psf(3.0), wide]),
        dict(entry="galaxy", seed=26, bands=(1, 3)),
        dict(entry="galaxy", seed=27, bands=(0,), mask=True),
    ]
    pairs = [make_random_context(**spec, perturb=0.2,
                                 priors=second if i in (1, 5) else first)
             for i, spec in enumerate(specs)]
    return [c for c, _ in pairs], [f for _, f in pairs]


class TestStackedPrologue:
    """The per-call prologue stacks every (lane, patch) pair of a call,
    and a lane's bits still depend on nothing else in the call."""

    def test_batch_exercises_the_stacking(self, make_random_context,
                                          perturbed_priors):
        ctxs, _ = _prologue_batch(make_random_context, perturbed_priors)
        lay = compile_elbo_batch(ctxs).layout
        assert len(lay.pair_groups) == 2
        assert len(lay.kl_groups) == 2
        assert sorted({len(c.patches) for c in ctxs}) == [1, 2, 3]

    @pytest.mark.parametrize("vc", [True, False])
    @pytest.mark.parametrize("order", [1, 2])
    def test_lane_in_call_equals_lane_alone(self, make_random_context,
                                            perturbed_priors, order, vc):
        ctxs, frees = _prologue_batch(make_random_context, perturbed_priors)
        outs = elbo_batch(ctxs, frees, order=order, variance_correction=vc)
        for ctx, free, out in zip(ctxs, frees, outs):
            ref = elbo(ctx, free, order=order, variance_correction=vc)
            assert np.asarray(out.val).tobytes() == \
                np.asarray(ref.val).tobytes()
            assert out.grad.tobytes() == ref.grad.tobytes()
            if order >= 2:
                assert out.hess.tobytes() == ref.hess.tobytes()
            else:
                assert out.hess is None and ref.hess is None


class TestLockstepOptimizer:
    """Lane independence of optimize_sources_batch: k lanes against k
    one-lane solves (``optimize_source`` is the batch of one)."""

    def _solve_both(self, make_random_context, specs, config):
        ref_ctxs, entries = _cases(make_random_context, specs)
        bat_ctxs, _ = _cases(make_random_context, specs)
        ref = [optimize_source(ctx, e, config)
               for ctx, e in zip(ref_ctxs, entries)]
        bat = optimize_sources_batch(bat_ctxs, entries, config)
        return ref, bat, bat_ctxs

    def test_bit_for_bit_equals_scalar_solves(self, make_random_context):
        config = OptimizeConfig(max_iter=15, grad_tol=1e-4)
        ref, bat, _ = self._solve_both(make_random_context, RAGGED, config)
        for r, b in zip(ref, bat):
            np.testing.assert_array_equal(r.free, b.free)
            assert r.elbo == b.elbo
            assert r.optim.n_iterations == b.optim.n_iterations
            assert r.optim.n_evaluations == b.optim.n_evaluations
            assert r.optim.message == b.optim.message
            assert r.converged == b.converged

    def test_sources_admitted_mid_run_keep_their_bits(self,
                                                      make_random_context):
        """A source that joins a running lockstep solves exactly as it
        does alone, and each call holds exactly the sources in flight."""
        from repro.core.single import SourceLockstep

        config = OptimizeConfig(max_iter=15, grad_tol=1e-4)
        ref, _, _ = self._solve_both(make_random_context, RAGGED, config)
        ctxs, entries = _cases(make_random_context, RAGGED)
        lockstep = SourceLockstep(config)
        joins = {0: [0, 1], 2: [2], 3: [3, 4, 5]}
        out, round_ = {}, 0
        while lockstep or round_ <= max(joins):
            for i in joins.get(round_, []):
                lockstep.admit(ctxs[i], entries[i], i)
            lanes = len(lockstep)
            calls = sum(c.counters.snapshot().get("elbo_batch_calls", 0)
                        for c in ctxs)
            out.update(lockstep.step())
            after = sum(c.counters.snapshot().get("elbo_batch_calls", 0)
                        for c in ctxs)
            assert after - calls == (1 if lanes else 0)
            round_ += 1
        assert sorted(out) == list(range(len(ctxs)))
        for i, r in enumerate(ref):
            b = out[i]
            assert r.free.tobytes() == b.free.tobytes()
            assert r.elbo == b.elbo
            assert (r.optim.n_iterations, r.optim.n_evaluations,
                    r.optim.message) == (b.optim.n_iterations,
                                         b.optim.n_evaluations,
                                         b.optim.message)

    def test_counters_match_scalar_path(self, make_random_context):
        config = OptimizeConfig(max_iter=10, grad_tol=1e-4)
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
                        "newton_solves",
                        "newton_iterations"):
                assert r.get(key) == b.get(key), key

    def test_all_sources_converge_on_first_iteration(self,
                                                     make_random_context):
        # A sky-high tolerance converges every lane right after the shared
        # round-zero evaluation: one batch call, zero iterations, and the
        # lockstep loop must exit cleanly with nothing pending.
        config = OptimizeConfig(max_iter=10, grad_tol=1e9)
        ctxs, entries = _cases(make_random_context, UNIFORM)
        results = optimize_sources_batch(ctxs, entries, config)
        assert all(r.converged for r in results)
        assert all(r.optim.n_iterations == 0 for r in results)
        assert all(r.optim.n_evaluations == 1 for r in results)
        assert ctxs[0].counters.snapshot()["elbo_batch_calls"] == 1.0

    def test_raising_evaluation_releases_scratch_pool(self, monkeypatch,
                                                      make_random_context):
        """Extends the PR-4 regression to the batched path: an evaluation
        that raises mid-lockstep must return the per-thread scratch pool
        to baseline rather than strand stacked buffers."""
        from repro.core import kernel

        config = OptimizeConfig(max_iter=3, grad_tol=1e-4)
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


class TestRegionRunOrder:
    """A region run hands out sources in its schedule's serial order, each
    only once every conflicting source before it (itself, in an earlier
    pass) has folded back — the rule that keeps a barrier-free lockstep
    bit-for-bit equal to the one-by-one loop."""

    @staticmethod
    def _run(n_passes, batch_size=3, seed=0):
        images, entries = _region_scene(n=10, spacing=12.0)
        config = ParallelRegionConfig(
            n_threads=2, n_passes=n_passes, batch_size=batch_size, seed=seed,
            joint=JointConfig(n_passes=1, single=OptimizeConfig(max_iter=2)))
        job = RegionJob(images, entries, None, None, None, seed)
        return RegionRun(job, default_priors(), config)

    @staticmethod
    def _fake_result(run, item):
        # Folding back the source's current parameters moves nothing.
        from repro.core.single import SourceResult

        return SourceResult(params=run.opt.params[run.order[item]],
                            free=None, elbo=0.0, optim=None)

    @pytest.mark.parametrize("n_passes", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_admitted_sources_wait_for_conflicting_predecessors(
            self, n_passes, seed):
        run = self._run(n_passes, seed=seed)
        assert sorted(run.order) == sorted(list(range(10)) * n_passes)
        assert any(run.graph.conflicts(s, s + 1) for s in range(9))
        rng = np.random.default_rng(seed)
        done, in_flight = set(), []
        while not run.done:
            for i in run.ready(4 - len(in_flight)):
                s = run.order[i]
                for j in range(i):
                    t = run.order[j]
                    if t == s or run.graph.conflicts(s, t):
                        assert j in done, (j, i)
                in_flight.append(i)
            assert 0 < len(in_flight) <= 4
            item = in_flight.pop(int(rng.integers(len(in_flight))))
            run.fold_back(item, self._fake_result(run, item))
            done.add(item)
        assert len(done) == len(run.order)

    def test_ready_admits_in_serial_order_up_to_the_room(self):
        run = self._run(1, batch_size=10)
        first = run.ready(16)
        assert first == sorted(first) and first[0] == 0
        # Every source not admitted waits on an earlier conflicting one.
        for i in set(range(len(run.order))) - set(first):
            s = run.order[i]
            assert any(run.graph.conflicts(s, run.order[j])
                       for j in range(i))
        assert run.ready(16) == []          # nothing folded back yet
        assert self._run(1, batch_size=10).ready(2) == first[:2]


class TestExecutorBatching:
    @pytest.mark.parametrize("elbo_batch_size", [None, 1, 2, 4, 8, 16])
    def test_region_catalog_bit_for_bit(self, elbo_batch_size):
        images, entries = _region_scene()
        priors = default_priors()
        joint = JointConfig(
            n_passes=1, single=OptimizeConfig(max_iter=6, grad_tol=2e-3),
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

    @staticmethod
    def _region_counters(elbo_batch_size):
        from repro.perf import Counters

        images, entries = _region_scene()
        counters = Counters()
        result = optimize_region_parallel(
            images, entries, default_priors(),
            ParallelRegionConfig(
                n_threads=2, n_passes=1, elbo_batch_size=elbo_batch_size,
                joint=JointConfig(n_passes=1, single=OptimizeConfig(
                    max_iter=6, grad_tol=2e-3))),
            counters=counters,
        )
        return result, counters.snapshot()

    @pytest.mark.parametrize("elbo_batch_size", [1])
    def test_lane_limit_one_runs_the_one_path(self, elbo_batch_size):
        """Lane limit 1 runs the same batched path: every evaluation is a
        one-lane batch call."""
        _, snap = self._region_counters(elbo_batch_size)
        assert snap["objective_evaluations"] > 0
        assert snap["elbo_batch_calls"] == snap["objective_evaluations"]
        assert snap["elbo_batch_lanes"] == snap["elbo_batch_calls"]
        assert batch_occupancy(snap) == 1.0

    @pytest.mark.parametrize("elbo_batch_size", [0, -1])
    def test_lane_limit_below_one_is_refused(self, elbo_batch_size):
        with pytest.raises(ValueError, match="elbo_batch_size"):
            self._region_counters(elbo_batch_size)

    def test_unset_lane_limit_is_sixteen(self):
        """``None`` is lane limit 16 (``DEFAULT_LANE_LIMIT``): the same
        calls, lanes and bits as an explicit 16, and fewer calls than at
        lane limit 1."""
        from repro.parallel.executor import DEFAULT_LANE_LIMIT

        assert DEFAULT_LANE_LIMIT == 16
        unset, unset_snap = self._region_counters(None)
        sixteen, sixteen_snap = self._region_counters(16)
        _, one_snap = self._region_counters(1)
        assert unset_snap == sixteen_snap
        assert catalog_bits_digest(unset.catalog) == catalog_bits_digest(
            sixteen.catalog)
        assert unset_snap["elbo_batch_calls"] < one_snap["elbo_batch_calls"]

    def test_rolling_lockstep_needs_no_round_barrier(self):
        """Well-separated sources conflict with nothing, so every source
        of the region is ready at once: a tiny Cyclades sampling batch
        (many small rounds) no longer caps the lanes of a call, and the
        catalog keeps the bits of lane limit 1."""
        from repro.perf import Counters

        images, entries = _region_scene(n=12, spacing=30.0)
        priors = default_priors()
        joint = JointConfig(
            n_passes=1, single=OptimizeConfig(max_iter=6, grad_tol=2e-3),
        )

        def run(lanes):
            counters = Counters()
            result = optimize_region_parallel(
                images, entries, priors,
                ParallelRegionConfig(n_threads=2, n_passes=1, joint=joint,
                                     batch_size=3, elbo_batch_size=lanes,
                                     seed=0),
                counters=counters)
            return result, counters.snapshot()

        one, _ = run(1)
        wide, snap = run(16)
        assert catalog_bits_digest(one.catalog) == catalog_bits_digest(
            wide.catalog)
        assert one.elbo_total == wide.elbo_total
        # Every call holds every source still in flight, so there are no
        # more calls than one solve's evaluations at most.
        assert snap["elbo_batch_calls"] <= joint.single.max_iter + 1


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
                single=OptimizeConfig(max_iter=8, grad_tol=2e-3),
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

    def test_batch_size_is_pinned(self, monkeypatch):
        monkeypatch.delenv(ELBO_BATCH_ENV_VAR, raising=False)
        config = _pin_config(_driver_config("thread", 8))
        assert config.parallel.elbo_batch_size == 8
        monkeypatch.setenv(ELBO_BATCH_ENV_VAR, "4")
        config = _pin_config(_driver_config("thread", None))
        assert config.elbo_batch_size == 4
        assert config.parallel.elbo_batch_size == 4
        with pytest.raises(ValueError):
            _pin_config(_driver_config("thread", 0))

    def test_checkpoint_resumes_across_batch_size(self, batch_survey,
                                                  tmp_path):
        """elbo_batch_size is ``neutral``: no part of the fingerprint, so
        a checkpoint written under one lane limit resumes under another,
        and the resumed catalog has the bits of an uninterrupted run."""
        import dataclasses

        _, fields = batch_survey
        path = str(tmp_path / "ckpt.json")
        first = run_pipeline(fields, dataclasses.replace(
            _driver_config("thread", 8),
            checkpoint_path=path, stop_after="stage0"))
        assert first.stopped_early

        other = run_pipeline(fields, dataclasses.replace(
            _driver_config("thread", 4), checkpoint_path=path))
        assert "stage0" in other.resumed_stages
        whole = run_pipeline(fields, _driver_config("thread", 1))
        assert (catalog_bits_digest(other.catalog)
                == catalog_bits_digest(whole.catalog))
