"""Section V/VI-B: the vectorized ELBO kernel.

The paper's unit of account is the active-pixel visit (32,317 FLOPs each).
This benchmark measures our per-visit evaluation rate of the fused
analytic kernel at orders 1 and 2, splits each evaluation's cost into its
pixel term and its (pixel-count-independent) KL terms, sweeps the lockstep evaluation batch
size (the paper's AVX-512 many-sources-at-once analogue; B in
{1, 4, 16, 64, 128}), reports the implied single-thread DP FLOP rate
under the paper's accounting, records the numbers in
``BENCH_elbo_backend.json`` (sections ``backend_comparison`` and
``batch_sweep``, merged so the perf trajectory of the objective layer is
tracked across PRs), and checks the ablation that
the variance-correction (delta approximation) term is a material part of
the objective.

**Smoke mode** (``REPRO_BENCH_SMOKE=1``): a seconds-long wiring check run
in CI — every order/term combination is exercised end to end, but
timings are not trusted, the committed JSON is left untouched, and the
machine-dependent speedup thresholds are skipped.
"""

import json
import os
import time

import numpy as np

from repro.constants import FLOP_OVERHEAD_FACTOR, FLOPS_PER_ACTIVE_PIXEL_VISIT
from repro.core import (
    CatalogEntry,
    compile_elbo_batch,
    default_priors,
    elbo,
    elbo_batch,
    make_context,
)
from repro.core.elbo import elbo_kl
from repro.core.params import canonical_to_free
from repro.core.single import initial_params
from repro.envvars import env_flag
from repro.perf.counters import Counters
from repro.perf.flops import visit_rate
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image

from conftest import print_header

#: Where the recorded rates land (repo root, committed alongside the code).
BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_elbo_backend.json",
)

#: CI wiring check: run everything briefly, record nothing, assert no
#: machine-dependent thresholds.
SMOKE = env_flag("REPRO_BENCH_SMOKE")

#: Batched evaluation must lift the per-visit rate at B=16 by at least this
#: factor over the B=1 fused rate on the sweep context (ISSUE 5 criterion).
REQUIRED_BATCH_SPEEDUP = 1.5

#: Wide batches must stay within chunk-boundary overhead of the B=16 peak
#: per-visit rate instead of regressing (ISSUE 8 criterion: the old global
#: sweep budget let B=64 spill the cache and fall well below this).  With
#: cache-sized sweeps B=64 runs as back-to-back ~16-lane chunks, so its
#: ideal ratio is 1.0 minus a few percent of per-chunk bookkeeping.
REQUIRED_PLATEAU_RATIO = 0.9

#: Lockstep batch sizes the sweep records.
BATCH_SIZES = (1, 4, 16, 64, 128)


def _merge_into_json(section: str, payload) -> None:
    """Merge one section into the committed benchmark JSON, preserving the
    other sections (the backend comparison and the batch sweep are separate
    tests that share the file)."""
    record = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            record = json.load(fh)
    record[section] = payload
    with open(BENCH_JSON, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def star_context():
    truth = CatalogEntry([15.0, 14.0], False, 30.0, [1.5, 1.1, 0.25, 0.05])
    rng = np.random.default_rng(5)
    images = [
        render_image([truth], ImageMeta(
            band=b, wcs=AffineWCS.translation(0.0, 0.0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (30, 30), rng=rng)
        for b in range(5)
    ]
    counters = Counters()
    ctx = make_context(images, truth.position, default_priors(),
                       counters=counters)
    free = canonical_to_free(
        initial_params(truth, default_priors()).to_canonical(), ctx.u_center
    )
    return ctx, free, counters


def _timed(fn, min_seconds=0.4, min_iters=3, repeats=1):
    """Seconds per call of ``fn`` (after one warm-up call, which also
    compiles any fused workspace).

    With ``repeats`` > 1 the measurement is the *fastest* of ``repeats``
    independent timing windows — the standard ``timeit`` noise rejection:
    background load only ever makes a window slower, so the minimum is the
    best estimate of the undisturbed rate on a shared machine."""
    if SMOKE:
        min_seconds, min_iters, repeats = 0.01, 1, 1

    def window():
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds and n >= min_iters:
                return elapsed / n

    fn()
    return min(window() for _ in range(max(repeats, 1)))


def _timed_grid(fns, min_seconds=0.25, min_iters=2, repeats=5):
    """Best-window seconds per call for several measurands at once,
    *interleaved*: each round times one window of every entry before any
    entry gets its next window.  On a shared machine the effective speed
    drifts over minutes; interleaving makes a slow epoch hit all entries
    alike instead of biasing whichever key happened to be on the clock,
    which matters when the recorded quantity is a *ratio* of two entries
    (the B=64/B=16 plateau criterion).  Per key the fastest window wins,
    as in ``_timed``."""
    if SMOKE:
        min_seconds, min_iters, repeats = 0.01, 1, 1
    for fn in fns.values():
        fn()  # warm-up: compile workspaces, fault in buffers
    best = {}
    for _ in range(max(repeats, 1)):
        for key, fn in fns.items():
            n = 0
            t0 = time.perf_counter()
            while True:
                fn()
                n += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= min_seconds and n >= min_iters:
                    break
            sec = elapsed / n
            best[key] = min(best.get(key, sec), sec)
    return best


def test_elbo_kernel_rate(benchmark):
    ctx, free, counters = star_context()
    elbo(ctx, free, order=2)  # warm-up compiles workspace
    counters.reset()

    result = benchmark(lambda: elbo(ctx, free, order=2))
    assert result.val.shape == ()

    visits_per_eval = ctx.n_active_pixels
    if SMOKE:  # --benchmark-disable leaves no stats; take a quick timing
        seconds = _timed(lambda: elbo(ctx, free, order=2))
    else:
        seconds = benchmark.stats["mean"]
    rate = visits_per_eval / seconds
    implied = rate * FLOPS_PER_ACTIVE_PIXEL_VISIT * FLOP_OVERHEAD_FACTOR

    print_header("ELBO kernel: active-pixel-visit rate (fused, order 2)")
    print("active pixels per evaluation: %d" % visits_per_eval)
    print("visit rate: %.0f visits/s/thread" % rate)
    print("implied DP rate under paper accounting: %.2f GFLOP/s" % (implied / 1e9))
    print("(paper's Xeon Phi threads sustained ~26.6k visits/s each)")
    assert rate > 1000  # sanity: vectorization is working at all


def test_backend_comparison_records_json():
    """Measure the kernel at both orders — full evaluations plus the
    KL-only call, so the record splits pixel-term from KL-term cost — and
    emit the ``backend_comparison`` section of BENCH_elbo_backend.json.
    (The section name and its ``backends`` key date from when a Taylor
    backend was measured alongside; its last ratios are in
    docs/performance.md.)"""
    ctx, free, _ = star_context()
    visits = ctx.n_active_pixels

    entry = {}
    for order in (1, 2):
        sec = _timed(lambda: elbo(ctx, free, order=order),
                     min_seconds=0.8, min_iters=5)
        kl_sec = _timed(lambda: elbo_kl(ctx, free, order=order))
        entry["order%d" % order] = {
            "seconds_per_evaluation": sec,
            # The KL terms cost the same whatever the pixel count; the
            # remainder of a full evaluation is the pixel term.
            "kl_seconds_per_evaluation": kl_sec,
            "pixel_seconds_per_evaluation": max(sec - kl_sec, 0.0),
            "kl_fraction": min(kl_sec / sec, 1.0),
            "visit_rate_per_s": visit_rate(visits, sec),
            "implied_gflops": visit_rate(visits, sec)
            * FLOPS_PER_ACTIVE_PIXEL_VISIT * FLOP_OVERHEAD_FACTOR / 1e9,
        }
    record = {"visits_per_evaluation": visits, "backends": {"fused": entry}}
    if not SMOKE:  # a smoke run's timings would clobber real measurements
        _merge_into_json("backend_comparison", record)

    print_header("ELBO kernel: per-visit rate by order")
    for order in (1, 2):
        e = entry["order%d" % order]
        print("order %d: %8.0f visits/s  (%6.2f ms/eval, %4.1f%% KL)"
              % (order, e["visit_rate_per_s"],
                 1e3 * e["seconds_per_evaluation"],
                 100.0 * e["kl_fraction"]))
    print("recorded to %s" % ("(smoke: not recorded)" if SMOKE else BENCH_JSON))


#: One prior configuration for every sweep lane, as in production — a
#: survey run holds a single ``Priors``.  Sharing the instance is what
#: lets the batched KL path stack lanes (it groups by prior workspace);
#: per-lane copies would silently demote the KL term to scalar loops and
#: the sweep would understate real batched throughput.
SWEEP_PRIORS = default_priors()


def sweep_context(seed: int):
    """One lane of the batch sweep: a survey-typical *small* source — three
    visits of a 16x16 patch.  Small patches are where per-evaluation
    dispatch overhead dominates and batching pays; they are also the
    realistic regime (most catalog sources are near the detection limit
    with patches a few PSF widths across)."""
    truth = CatalogEntry([8.0, 7.0], False, 25.0 + seed,
                         [1.5, 1.1, 0.25, 0.05])
    rng = np.random.default_rng(seed)
    images = [
        render_image([truth], ImageMeta(
            band=b, wcs=AffineWCS.translation(0.0, 0.0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (16, 16), rng=rng)
        for b in (1, 2, 3)
    ]
    ctx = make_context(images, truth.position, SWEEP_PRIORS,
                       counters=Counters())
    free = canonical_to_free(
        initial_params(truth, SWEEP_PRIORS).to_canonical(), ctx.u_center
    )
    return ctx, free


def test_batch_sweep_records_json():
    """Sweep the lockstep evaluation batch size (B in {1, 4, 16, 64, 128})
    on the fused kernel, record per-visit rates into the committed JSON,
    and enforce the batching criteria: the B=16 per-visit rate must be at
    least 1.5x the B=1 fused rate, and the B=64 rate must stay within a
    few percent of B=16 instead of regressing (the plateau the
    cache-blocking autotune removed — one global sweep budget used to let
    64-lane stacks spill the cache; with cache-sized sweeps a 64-lane
    batch runs as back-to-back 16-lane chunks, so its per-visit rate
    tracks B=16 to within chunk-boundary overhead).  Batched results are
    bit-for-bit equal to scalar ones (asserted here too — the benchmark
    must never record a speedup bought with a different answer)."""
    pairs = [sweep_context(seed) for seed in range(max(BATCH_SIZES))]
    visits = pairs[0][0].n_active_pixels

    handles = {}
    for b in BATCH_SIZES:
        ctxs = [c for c, _ in pairs[:b]]
        frees = [f for _, f in pairs[:b]]
        compiled = compile_elbo_batch(ctxs)
        handles[b] = (ctxs, frees, compiled)
    # Interleaved best-of-5 windows: the plateau criterion (B=64 vs B=16)
    # is a ratio, and measuring the two ends minutes apart would fold
    # machine-speed drift into it.
    secs = _timed_grid({
        b: (lambda h=handles[b]: elbo_batch(
            h[0], h[1], order=2, compiled=h[2]))
        for b in BATCH_SIZES
    })

    sweep = {"visits_per_lane": visits, "order": 2, "rates": {}}
    for b in BATCH_SIZES:
        sweep["rates"]["B%d" % b] = {
            "seconds_per_batch": secs[b],
            "visit_rate_per_s": visit_rate(b * visits, secs[b]),
        }
    rate = {b: sweep["rates"]["B%d" % b]["visit_rate_per_s"]
            for b in BATCH_SIZES}
    sweep["batch16_speedup"] = rate[16] / rate[1]
    sweep["batch64_over_16"] = rate[64] / rate[16]

    # The wiring check smoke mode also asserts: batched == scalar, exactly.
    ctx, free = pairs[0]
    batched = elbo_batch([c for c, _ in pairs[:4]],
                         [f for _, f in pairs[:4]], order=2)[0]
    scalar = elbo(ctx, free, order=2)
    assert float(batched.val) == float(scalar.val)
    assert np.array_equal(batched.hessian(41), scalar.hessian(41))

    if not SMOKE:
        _merge_into_json("batch_sweep", sweep)

    print_header("ELBO batch sweep: per-visit rate vs lockstep batch size")
    for b in BATCH_SIZES:
        print("B=%-3d %9.0f visits/s  (%.3f ms/batch)"
              % (b, rate[b],
                 1e3 * sweep["rates"]["B%d" % b]["seconds_per_batch"]))
    print("B=16 speedup over B=1: %.2fx (criterion >= %.1fx)"
          % (sweep["batch16_speedup"], REQUIRED_BATCH_SPEEDUP))
    print("B=64 over B=16: %.2fx (criterion >= %.2fx)"
          % (sweep["batch64_over_16"], REQUIRED_PLATEAU_RATIO))
    print("recorded to %s" % ("(smoke: not recorded)" if SMOKE else BENCH_JSON))

    if not SMOKE:
        assert sweep["batch16_speedup"] >= REQUIRED_BATCH_SPEEDUP
        # The plateau criterion: wider batches must not regress the rate.
        assert sweep["batch64_over_16"] >= REQUIRED_PLATEAU_RATIO


def test_variance_correction_ablation(benchmark):
    ctx, free, _ = star_context()
    with_corr = benchmark.pedantic(
        lambda: float(elbo(ctx, free, order=1).val), rounds=1, iterations=1
    )
    without = float(elbo(ctx, free, order=1, variance_correction=False).val)

    print_header("Ablation: E[log F] delta-approximation variance term")
    print("ELBO with variance correction:    %.2f" % with_corr)
    print("ELBO without variance correction: %.2f" % without)
    print("gap: %.2f nats" % (without - with_corr))
    # The correction subtracts Var F/(2 E[F]^2) per pixel: strictly lower.
    assert with_corr < without
    assert without - with_corr > 1.0
