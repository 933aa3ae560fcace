"""Section V/VI-B: the vectorized ELBO kernel.

The paper's unit of account is the active-pixel visit (32,317 FLOPs each).
This benchmark measures our per-visit evaluation rate of the fused
analytic kernel at orders 1 and 2, splits each evaluation's cost into its
pixel term and its (pixel-count-independent) KL terms, sweeps the lockstep evaluation batch
size (the paper's AVX-512 many-sources-at-once analogue; B in
{1, 4, 16, 64, 128}), reports the implied single-thread DP FLOP rate
under the paper's accounting, measures what an evaluation costs whatever
its pixel count (one pixel per patch against the full patch) and what a
batch of distinct patch shapes still shares (one pixel pass per pair),
records the numbers in ``BENCH_elbo_backend.json`` (sections
``backend_comparison``, ``batch_sweep``, ``fixed_cost`` and
``mixed_shape_batch``, merged beside a ``machine`` stamp so the perf
trajectory of the objective layer is tracked across PRs), and checks the
ablation that
the variance-correction (delta approximation) term is a material part of
the objective.

**Smoke mode** (``REPRO_BENCH_SMOKE=1``): a seconds-long wiring check run
in CI — every order/term combination is exercised end to end, but
timings are not trusted, the committed JSON is left untouched, and the
machine-dependent speedup thresholds are skipped.
"""

import dataclasses
import json
import os
import platform
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

#: Wide batches must keep the B=16 per-visit rate instead of regressing.
#: Every (lane, patch) pair runs its own pixel pass, so a wider call only
#: lengthens the per-call stacks (the chain, the prologue, the assembly,
#: the chain rule and the KL stack), whose per-pair arrays are a few
#: hundred doubles; B=64's ideal ratio is 1.0.  Gated on the median of the
#: per-round ratios of interleaved windows: a ratio of two best-of-five
#: windows read 0.80-1.17 from run to run on a 2-core box.
REQUIRED_PLATEAU_RATIO = 0.9

#: Interleaved rounds of the batch sweep (each times one window of every
#: batch size); the plateau gate reads their per-round ratios' median.
PLATEAU_ROUNDS = 9

#: Lockstep batch sizes the sweep records.
BATCH_SIZES = (1, 4, 16, 64, 128)


def _machine_stamp() -> dict:
    """The host and environment the recorded timings come from: CPU,
    Python and NumPy, the BLAS NumPy was built against, the BLAS kernel
    and the BLAS thread settings."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_env": {name: os.environ.get(name, "unset") for name in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "OPENBLAS_CORETYPE")}}


def _merge_into_json(section: str, payload) -> None:
    """Merge one section into the committed benchmark JSON, preserving the
    other sections (each is written by its own test), and refresh the
    ``machine`` stamp beside them."""
    record = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            record = json.load(fh)
    record[section] = payload
    record["machine"] = _machine_stamp()
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


def _timed_grid(fns, min_seconds=0.25, min_iters=2, repeats=5,
                windows=None):
    """Best-window seconds per call for several measurands at once,
    *interleaved*: each round times one window of every entry before any
    entry gets its next window.  On a shared machine the effective speed
    drifts over minutes; interleaving makes a slow epoch hit all entries
    alike instead of biasing whichever key happened to be on the clock,
    which matters when the recorded quantity is a *ratio* of two entries
    (the B=64/B=16 plateau criterion).  Per key the fastest window wins,
    as in ``_timed``; a ``windows`` dict, if given, also receives every
    window's seconds per call, per key."""
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
            if windows is not None:
                windows.setdefault(key, []).append(sec)
    return best


def test_elbo_kernel_rate(benchmark):
    ctx, free, counters = star_context()
    elbo(ctx, free, order=2)  # warm-up compiles workspace
    counters.reset()

    result = benchmark(lambda: elbo(ctx, free, order=2))
    assert result.val.shape == ()

    visits_per_eval = ctx.n_active_pixels
    if benchmark.stats is None:  # --benchmark-disable: time it here
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


def sweep_context(seed: int, n_masked: int = 0, one_pixel: bool = False):
    """One lane of the batch sweep: a survey-typical *small* source — three
    visits of a 16x16 patch.  Small patches are where per-evaluation
    dispatch overhead dominates and batching pays; they are also the
    realistic regime (most catalog sources are near the detection limit
    with patches a few PSF widths across).  ``n_masked`` masks that many
    corner pixels — a distinct patch shape at nearly the same cost;
    ``one_pixel`` masks every pixel but the source's own, so an
    evaluation costs only what does not scale with pixels."""
    truth = CatalogEntry([8.0, 7.0], False, 25.0 + seed,
                         [1.5, 1.1, 0.25, 0.05])
    rng = np.random.default_rng(seed)
    images = [
        render_image([truth], ImageMeta(
            band=b, wcs=AffineWCS.translation(0.0, 0.0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (16, 16), rng=rng)
        for b in (1, 2, 3)
    ]
    if one_pixel or n_masked:
        mask = np.zeros((16, 16), dtype=bool)
        mask.flat[:n_masked] = True
        if one_pixel:
            mask[:] = True
            mask[7, 8] = False
        images = [dataclasses.replace(im, mask=mask) for im in images]
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
    least 1.5x the B=1 fused rate — what B lanes share is the call's
    pixel-independent work, one chain, prologue, assembly, chain rule and
    KL stack for all of them, while each (lane, patch) pair runs its own
    pixel pass — and the B=64 rate must stay within a few percent of B=16
    instead of regressing.  Batched results are
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
    # Interleaved windows: the plateau criterion (B=64 vs B=16) is a
    # ratio, and measuring the two ends minutes apart would fold
    # machine-speed drift into it.  Each round's two windows are seconds
    # apart, so the criterion is the median of the per-round ratios.
    windows = {}
    secs = _timed_grid({
        b: (lambda h=handles[b]: elbo_batch(
            h[0], h[1], order=2, compiled=h[2]))
        for b in BATCH_SIZES
    }, repeats=PLATEAU_ROUNDS, windows=windows)
    plateau = np.array([
        (64 / s64) / (16 / s16) for s16, s64 in zip(windows[16], windows[64])
    ])

    sweep = {"visits_per_lane": visits, "order": 2, "rates": {}}
    for b in BATCH_SIZES:
        sweep["rates"]["B%d" % b] = {
            "seconds_per_batch": secs[b],
            "visit_rate_per_s": visit_rate(b * visits, secs[b]),
        }
    rate = {b: sweep["rates"]["B%d" % b]["visit_rate_per_s"]
            for b in BATCH_SIZES}
    sweep["batch16_speedup"] = rate[16] / rate[1]
    sweep["batch64_over_16"] = float(np.median(plateau))
    sweep["batch64_over_16_rounds"] = {
        "median": float(np.median(plateau)),
        "min": float(plateau.min()),
        "max": float(plateau.max()),
        "best_windows": rate[64] / rate[16],
        "n_rounds": int(plateau.size),
    }

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
    print("B=64 over B=16, median of %d rounds: %.2fx (range %.2f-%.2f; "
          "criterion >= %.2fx)"
          % (plateau.size, sweep["batch64_over_16"], plateau.min(),
             plateau.max(), REQUIRED_PLATEAU_RATIO))
    print("recorded to %s" % ("(smoke: not recorded)" if SMOKE else BENCH_JSON))

    if not SMOKE:
        assert sweep["batch16_speedup"] >= REQUIRED_BATCH_SPEEDUP
        # The plateau criterion: wider batches must not regress the rate.
        assert sweep["batch64_over_16"] >= REQUIRED_PLATEAU_RATIO


def test_fixed_cost_records_json():
    """The per-evaluation cost that does not scale with pixels: the same
    three-visit source evaluated on its full 16x16 patches and on one
    pixel per patch, at both orders.  What the one-pixel evaluation still
    costs — chain rule, KL term, NumPy dispatch — is what batching lanes
    into one call amortizes; its share of the full evaluation is the
    recorded ``fixed_fraction``.

    The one-pixel order-2 evaluation is timed once, in the same
    interleaved grid as the parts of its split, so the split's total and
    the fixed fraction read one number; the median and spread of its
    windows are recorded next to the best, so load that lasted the whole
    grid shows."""
    full_ctx, free = sweep_context(0)
    tiny_ctx, _ = sweep_context(0, one_pixel=True)
    assert tiny_ctx.n_active_pixels == 3
    fns = {
        (name, order): (lambda c=ctx, o=order: elbo(c, free, order=o))
        for name, ctx in (("full", full_ctx), ("one_pixel", tiny_ctx))
        for order in (1, 2)
    }
    # The same split at B=16, per lane: what a full lockstep call still
    # pays per lane that does not scale with pixels.
    for name, one_pixel in (("full", False), ("one_pixel", True)):
        lanes = [sweep_context(seed, one_pixel=one_pixel)
                 for seed in range(16)]
        ctxs, frees = [c for c, _ in lanes], [f for _, f in lanes]
        compiled = compile_elbo_batch(ctxs)
        fns[name, "B16"] = (lambda c=ctxs, f=frees, k=compiled: elbo_batch(
            c, f, order=2, compiled=k))
    parts = _one_pixel_split_parts(tiny_ctx, free)
    fns.update((("split", k), fn) for k, fn in parts.items())
    windows = {}
    secs = _timed_grid(fns, windows=windows)
    record = {"visits_per_evaluation": full_ctx.n_active_pixels}
    for order in (1, 2):
        full, tiny = secs["full", order], secs["one_pixel", order]
        record["order%d" % order] = {
            "seconds_per_evaluation": full,
            "one_pixel_seconds_per_evaluation": tiny,
            "fixed_fraction": tiny / full,
        }
    full16, tiny16 = secs["full", "B16"] / 16, secs["one_pixel", "B16"] / 16
    record["order2"]["per_lane_at_B16"] = {
        "seconds_per_lane": full16,
        "one_pixel_seconds_per_lane": tiny16,
        "fixed_fraction": tiny16 / full16,
    }
    one_pixel = 1e3 * np.asarray(windows["one_pixel", 2])
    record["order2"]["one_pixel_windows_ms"] = {
        "best": float(one_pixel.min()),
        "median": float(np.median(one_pixel)),
        "spread": float(one_pixel.max() - one_pixel.min()),
        "n_windows": int(one_pixel.size),
    }
    split = {"total": 1e3 * secs["one_pixel", 2]}
    split.update((k, 1e3 * secs["split", k]) for k in parts)
    split["rest"] = split["total"] - sum(split[k] for k in parts)
    split["patches"] = len(tiny_ctx.patches)
    record["order2"]["one_pixel_split_ms"] = split
    if not SMOKE:
        _merge_into_json("fixed_cost", record)

    print_header("ELBO kernel: per-evaluation fixed cost")
    for order in (1, 2):
        e = record["order%d" % order]
        print("order %d: %.3f ms full, %.3f ms at one pixel per patch "
              "(%.0f%% fixed)" % (order, 1e3 * e["seconds_per_evaluation"],
                                  1e3 * e["one_pixel_seconds_per_evaluation"],
                                  100.0 * e["fixed_fraction"]))
    b16 = record["order2"]["per_lane_at_B16"]
    print("order 2 at B=16, per lane: %.3f ms full, %.3f ms at one pixel "
          "per patch (%.0f%% fixed)"
          % (1e3 * b16["seconds_per_lane"],
             1e3 * b16["one_pixel_seconds_per_lane"],
             100.0 * b16["fixed_fraction"]))
    w = record["order2"]["one_pixel_windows_ms"]
    print("order 2 at one pixel per patch over %d windows, ms: best %.3f, "
          "median %.3f, spread %.3f" % (w["n_windows"], w["best"],
                                        w["median"], w["spread"]))
    print("order 2 at one pixel per patch, ms: "
          + ", ".join("%s %.3f" % kv for kv in split.items()))
    print("recorded to %s" % ("(smoke: not recorded)" if SMOKE else BENCH_JSON))


def _one_pixel_split_parts(ctx, free) -> dict:
    """The parts of a one-lane order-2 evaluation of ``ctx``, each a
    callable on the kernel's own inputs: the chain (the bijector pass and
    the amplitude and shape chains), the KL stack, the chain rule, and the
    pixel term of all patches (the per-call prologue, the per-patch pixel
    passes and the assembly).  The rest of the evaluation is its total
    less these four (band-space accumulation, workspace lookup, the front
    end)."""
    from repro.core import kernel

    compiled = compile_elbo_batch([ctx])
    lay = compiled.layout
    frees = np.asarray(free, dtype=float)[None]
    boxed = kernel._bijector_pass(frees)
    chain = kernel._EvalChain(lay.u_centers, frees, boxed, lay.bands, 2,
                              True)
    kl = lay.kl_groups[0][0]
    inputs = [((chain.u[g.lane], chain.shape[g.lane], chain.dev[g.lane]),
               chain.amps[:, g.col, g.lane], g) for g in lay.pair_groups]
    n_q = lay.lb_lane.shape[0]
    gzq, hzq = np.ones((n_q, 10)), np.ones((n_q, 10, 10))
    return {
        "chain": lambda: kernel._EvalChain(
            lay.u_centers, frees, kernel._bijector_pass(frees), lay.bands,
            2, True),
        "kl": lambda: kl.evaluate_stacked(frees, 2, boxed),
        "chain_rule": lambda: chain.chain_rule(gzq, hzq, lay),
        "pixel_term": lambda: [
            kernel._pixel_terms(g.stack, rows, amps, g.slots, 2, True)
            for rows, amps, g in inputs],
    }


#: Batch sizes of the mixed-shape row.
MIXED_BATCH_SIZES = (1, 4, 16)


def test_mixed_shape_batch_records_json():
    """B lanes of B distinct patch shapes: every (lane, patch) pair runs
    its own pixel pass whatever its shape, and what B lanes share is the
    call — the chain, the prologue and assembly, the per-band chain rule
    and the KL term.  Records milliseconds per lane at B in {1, 4, 16};
    lanes stay bit-for-bit what they are alone."""
    pairs = [sweep_context(seed, n_masked=seed)
             for seed in range(max(MIXED_BATCH_SIZES))]
    handles = {}
    for b in MIXED_BATCH_SIZES:
        ctxs = [c for c, _ in pairs[:b]]
        handles[b] = (ctxs, [f for _, f in pairs[:b]],
                      compile_elbo_batch(ctxs))
    secs = _timed_grid({
        b: (lambda h=handles[b]: elbo_batch(h[0], h[1], order=2,
                                            compiled=h[2]))
        for b in MIXED_BATCH_SIZES
    })
    ctxs, frees, compiled = handles[max(MIXED_BATCH_SIZES)]
    # One pixel pass per (lane, patch) pair.
    assert sum(len(g.slots) for g in compiled.layout.pair_groups) == sum(
        len(ctx.patches) for ctx in ctxs)
    batched = elbo_batch(ctxs, frees, order=2, compiled=compiled)
    for ctx, free, out in zip(ctxs, frees, batched):
        assert np.array_equal(out.hessian(41),
                              elbo(ctx, free, order=2).hessian(41))

    record = {"order": 2, "ms_per_lane": {
        "B%d" % b: 1e3 * secs[b] / b for b in MIXED_BATCH_SIZES}}
    if not SMOKE:
        _merge_into_json("mixed_shape_batch", record)

    print_header("ELBO kernel: batch of distinct patch shapes")
    for b in MIXED_BATCH_SIZES:
        print("B=%-3d %.3f ms/lane" % (b, record["ms_per_lane"]["B%d" % b]))
    print("recorded to %s" % ("(smoke: not recorded)" if SMOKE else BENCH_JSON))


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
