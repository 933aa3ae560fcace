"""Section IV-D: Newton/trust-region vs L-BFGS on the per-source ELBO.

Paper claims: Newton converges reliably "in tens of iterations" where L-BFGS
takes "up to 2000"; computing the Hessian alongside the gradient costs ~3x a
gradient-only evaluation but cuts total iterations by up to 100x.
"""

import numpy as np

from repro.core import CatalogEntry, default_priors, elbo, make_context
from repro.core.params import FREE, canonical_to_free
from repro.core.single import OptimizeConfig, initial_params, optimize_source
from repro.optim import lbfgs_minimize
from repro.psf import default_psf
from repro.survey import AffineWCS, ImageMeta, render_image

from conftest import print_header


def make_ctx():
    truth = CatalogEntry([13.0, 12.0], False, 30.0, [1.5, 1.1, 0.25, 0.05])
    rng = np.random.default_rng(17)
    images = [
        render_image([truth], ImageMeta(
            band=b, wcs=AffineWCS.translation(0.0, 0.0), psf=default_psf(3.0),
            sky_level=100.0, calibration=100.0), (26, 26), rng=rng)
        for b in (1, 2, 3)
    ]
    return make_context(images, truth.position, default_priors()), truth


def test_newton_vs_lbfgs(benchmark):
    ctx, truth = make_ctx()
    free0 = canonical_to_free(
        initial_params(truth, ctx.priors).to_canonical(), ctx.u_center)

    def neg_elbo_and_grad(free):
        out = elbo(ctx, free, order=1)
        return -float(out.val), -out.gradient(FREE.size)

    def run_both():
        newton = optimize_source(ctx, truth, OptimizeConfig(
            max_iter=100, grad_tol=1e-4))
        lbfgs = lbfgs_minimize(neg_elbo_and_grad, free0, grad_tol=1e-4,
                               max_iter=2000)
        return newton.optim, lbfgs

    newton, lbfgs = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_header("Newton (trust region) vs L-BFGS on one source's ELBO")
    print("%-10s %10s %12s %10s %12s" % ("method", "iters", "evaluations",
                                         "converged", "final ELBO"))
    for name, res in (("newton", newton), ("lbfgs", lbfgs)):
        print("%-10s %10d %12d %10s %12.1f" % (
            name, res.n_iterations, res.n_evaluations, res.converged,
            -res.fun))
    ratio = max(lbfgs.n_iterations, 1) / max(newton.n_iterations, 1)
    print("iteration ratio (L-BFGS / Newton): %.0fx (paper: 10-100x)" % ratio)

    assert newton.converged
    assert newton.n_iterations < 60          # "tens of iterations"
    assert lbfgs.n_iterations > 5 * newton.n_iterations
    # Both reach comparable objective values when L-BFGS converges at all.
    if lbfgs.converged:
        assert abs(newton.fun - lbfgs.fun) < 1e-2 * abs(newton.fun)


def test_hessian_cost_factor(benchmark):
    import time

    ctx, truth = make_ctx()
    free = canonical_to_free(
        initial_params(truth, ctx.priors).to_canonical(), ctx.u_center
    )
    elbo(ctx, free, order=2)  # warm-up

    def time_orders():
        t0 = time.perf_counter()
        for _ in range(5):
            elbo(ctx, free, order=1)
        t1 = time.perf_counter()
        for _ in range(5):
            elbo(ctx, free, order=2)
        t2 = time.perf_counter()
        return (t1 - t0) / 5, (t2 - t1) / 5

    grad_t, hess_t = benchmark.pedantic(time_orders, rounds=1, iterations=1)
    factor = hess_t / grad_t
    print_header("Hessian cost factor")
    print("gradient-only evaluation: %.1f ms" % (grad_t * 1e3))
    print("gradient+Hessian:         %.1f ms  (%.1fx; paper: ~3x)" % (
        hess_t * 1e3, factor))
    # Dense NumPy Hessian blocks are pricier than Celeste's hand-coded
    # kernels; accept a wider band around the paper's 3x.
    assert 1.5 < factor < 20.0
