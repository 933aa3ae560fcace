"""Section VII-A: per-thread runtime breakdown.

The paper profiles thread runtime into categories (67% generated code, 18%
native dependencies, 10% math library, ...).  Our analogue instruments one
worker's source optimization into vectorized-kernel time, Python
orchestration, and linear-algebra (trust-region) time, and reports the
fractions.
"""

import time

import numpy as np

from repro.core import CatalogEntry, default_priors, elbo, make_context
from repro.core.params import FREE, canonical_to_free
from repro.core.single import initial_params
from repro.optim import solve_trust_region
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image

from conftest import print_header


def test_perthread_breakdown(benchmark):
    truth = CatalogEntry([13.0, 12.0], False, 30.0, [1.5, 1.1, 0.25, 0.05])
    rng = np.random.default_rng(3)
    images = [
        render_image([truth], ImageMeta(
            band=b, wcs=AffineWCS.translation(0.0, 0.0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (26, 26), rng=rng)
        for b in (1, 2, 3)
    ]
    priors = default_priors()
    ctx = make_context(images, truth.position, priors)
    free = canonical_to_free(
        initial_params(truth, priors).to_canonical(), ctx.u_center
    )
    elbo(ctx, free, order=2)  # warm-up

    def run_instrumented():
        seconds = dict.fromkeys((
            "objective kernel (vectorized)",
            "trust region (eigendecomposition)",
            "orchestration (python)",
        ), 0.0)
        x = free.copy()
        for _ in range(8):
            t0 = time.perf_counter()
            out = elbo(ctx, x, order=2)
            g = out.gradient(FREE.size)
            h = out.hessian(FREE.size)
            t1 = time.perf_counter()
            step, _ = solve_trust_region(-g, -h, radius=0.5)
            t2 = time.perf_counter()
            x = x + 0.5 * step
            time.sleep(0)  # yield point, mirrors runtime bookkeeping
            t3 = time.perf_counter()
            seconds["objective kernel (vectorized)"] += t1 - t0
            seconds["trust region (eigendecomposition)"] += t2 - t1
            seconds["orchestration (python)"] += t3 - t2
        return seconds

    seconds = benchmark.pedantic(run_instrumented, rounds=1, iterations=1)
    total = sum(seconds.values())
    fractions = {name: secs / total for name, secs in seconds.items()}

    print_header("Per-thread runtime breakdown (one worker, 8 Newton steps)")
    for name, frac in sorted(fractions.items(), key=lambda kv: -kv[1]):
        print("  %-38s %5.1f%%" % (name, 100 * frac))
    print("(paper: 67%% generated code, 18%% native deps, 10%% math lib, "
          "3%% MKL, 2%% libc+kernel)")

    # The vectorized objective dominates, as generated code does in Celeste.
    assert fractions["objective kernel (vectorized)"] > 0.5
    assert sum(fractions.values()) > 0.99
