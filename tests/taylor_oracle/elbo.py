"""The Taylor-mode reference ELBO.

The whole objective — Poisson pixel term plus KL terms — is built as one
sparse-index Taylor expression (:mod:`taylor_oracle.taylor`) on every
evaluation, so one call yields the value, gradient, and exact Hessian over
the free parameters, vectorized across all active pixels.  Derivatives
follow mechanically from the model with no hand-written formulas, which is
what makes this path the correctness oracle: it is validated against
central finite differences (:mod:`taylor_oracle.check`), and the fused
kernel (:mod:`repro.core.kernel`) is in turn validated against it.

The KL terms live here too (:func:`kl_total`, :func:`elbo_kl_taylor`):
they are the reference expression for the fused closed-form KL kernel
(:class:`repro.core.kernel.KlWorkspace`), exactly as the Taylor pixel term
is the reference for the fused pixel kernel.

The cost is per-iteration expression-graph construction: dozens of NumPy
temporaries per evaluation — 5.7x (order 1) to 16x (order 2) the fused
kernel's time per active-pixel visit (``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    GALAXY,
    NUM_COLOR_COMPONENTS,
    NUM_COLORS,
    NUM_TYPES,
    STAR,
)
from repro.core.elbo import PatchData, SourceContext
from repro.core.priors import Priors

from taylor_oracle.model import (
    TaylorParams,
    flux_moments,
    gauss2d_taylor,
    rotation_covariance_taylor,
    seed_params,
    sky_to_pix_taylor,
)
from taylor_oracle.taylor import (
    Taylor,
    constant,
    expand_dims,
    lift,
    tlog,
    tsum,
)

__all__ = ["elbo_kl_taylor", "elbo_taylor", "kl_total"]

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# KL terms (pixel-count-independent), as one Taylor expression


def _kl_bernoulli(params: TaylorParams, priors: Priors) -> Taylor:
    """-KL(q(a) || Bernoulli(Phi))."""
    pg = params.prob_galaxy
    ps = params.prob_star
    phi = priors.prob_galaxy
    return -1.0 * (
        pg * (tlog(pg) - float(np.log(phi)))
        + ps * (tlog(ps) - float(np.log(1.0 - phi)))
    )


def _kl_brightness(params: TaylorParams, priors: Priors, ty: int) -> Taylor:
    """-KL(q(log r | type) || N(Upsilon)) — Gaussian KL on the log scale."""
    m0 = float(priors.r_loc[ty])
    v0 = float(priors.r_var[ty])
    m, v = params.r1[ty], params.r2[ty]
    diff = m - m0
    return -0.5 * ((v + diff * diff) / v0 - 1.0 + float(np.log(v0)) - tlog(v))


def _color_term(params: TaylorParams, priors: Priors, ty: int) -> Taylor:
    """E_q[log p(c, k | type)] - E_q[log q(c, k | type)]: the mixture color
    prior with a variational categorical over components."""
    c1 = params.c1[ty]
    c2 = params.c2[ty]
    kappa = params.kappa[ty]

    acc = None
    for d in range(NUM_COLOR_COMPONENTS):
        w = float(priors.k_weights[d, ty])
        e_log_norm = lift(0.0)
        for i in range(NUM_COLORS):
            m0 = float(priors.c_mean[i, d, ty])
            v0 = float(priors.c_var[i, d, ty])
            diff = c1[i] - m0
            e_log_norm = e_log_norm - 0.5 * (
                _LOG_2PI + float(np.log(v0)) + (c2[i] + diff * diff) / v0
            )
        term = kappa[d] * (e_log_norm + float(np.log(w)) - tlog(kappa[d]))
        acc = term if acc is None else acc + term

    entropy = lift(0.0)
    for i in range(NUM_COLORS):
        entropy = entropy + 0.5 * (tlog(c2[i]) + _LOG_2PI + 1.0)
    return acc + entropy


def kl_total(params: TaylorParams, priors: Priors) -> Taylor:
    """Sum of every KL term of the single-source ELBO (a Taylor scalar).

    This is the reference expression the fused closed-form KL kernel is
    validated against (randomized value/gradient/Hessian parity tests, both
    orders).
    """
    total = _kl_bernoulli(params, priors)
    for ty, prob in ((STAR, params.prob_star), (GALAXY, params.prob_galaxy)):
        total = total + prob * _kl_brightness(params, priors, ty)
        total = total + prob * _color_term(params, priors, ty)
    return total


def _star_density(patch: PatchData, dx: Taylor, dy: Taylor) -> Taylor:
    """PSF density at the patch pixels (Taylor in position).

    All PSF components are evaluated in one batched expression: the component
    axis lives in the value shape, so the Python-level op count is constant
    regardless of mixture size (the reproduction's analogue of Celeste's
    vectorized kernels).
    """
    w, mux, muy, sxx, sxy, syy = patch.star_arrays
    dxk = expand_dims(dx, 0)      # (1, M) -> broadcasts against (K, 1)
    dyk = expand_dims(dy, 0)
    dens = gauss2d_taylor(dxk - mux, dyk - muy, sxx, sxy, syy)   # (K, M)
    return tsum(constant(w) * dens, axis=0)


def _galaxy_group_density(arrays, dxk: Taylor, dyk: Taylor, shape_cov) -> Taylor:
    """Batched density of one profile group (dev or exp) convolved with the
    PSF: covariances are ``var_j * Sigma_shape + Sigma_psf_k``."""
    w, var, mux, muy, pxx, pxy, pyy = arrays
    sxx, sxy, syy = shape_cov
    cxx = constant(var) * sxx + constant(pxx)
    cxy = constant(var) * sxy + constant(pxy)
    cyy = constant(var) * syy + constant(pyy)
    dens = gauss2d_taylor(dxk - mux, dyk - muy, cxx, cxy, cyy)   # (J*K, M)
    return tsum(constant(w) * dens, axis=0)


def _galaxy_density(patch: PatchData, dx: Taylor, dy: Taylor,
                    params: TaylorParams, shape_cov) -> Taylor:
    """PSF-convolved galaxy mixture density (Taylor in position + shape)."""
    dxk = expand_dims(dx, 0)
    dyk = expand_dims(dy, 0)
    dev = _galaxy_group_density(patch.gal_arrays["dev"], dxk, dyk, shape_cov)
    exp = _galaxy_group_density(patch.gal_arrays["exp"], dxk, dyk, shape_cov)
    return params.e_dev * dev + (1.0 - params.e_dev) * exp


def _pixel_term(patch: PatchData, params: TaylorParams, shape_cov,
                flux_cache: dict, variance_correction: bool) -> Taylor:
    """Expected Poisson log-likelihood of one patch (up to the x! constant)."""
    b = patch.band
    if b not in flux_cache:
        flux_cache[b] = tuple(
            flux_moments(params.r1[t], params.r2[t], params.c1[t], params.c2[t], b)
            for t in range(NUM_TYPES)
        )
    (ef_star, ef2_star), (ef_gal, ef2_gal) = flux_cache[b]

    # Pixel offsets from the (Taylor) source position, in image pixel coords.
    ux_pix, uy_pix = sky_to_pix_taylor(patch.wcs, params.ux, params.uy)
    dx = constant(patch.px) - ux_pix
    dy = constant(patch.py) - uy_pix

    g_star = _star_density(patch, dx, dy)
    g_gal = _galaxy_density(patch, dx, dy, params, shape_cov)

    iota = patch.calibration
    pg = params.prob_galaxy
    ps = params.prob_star

    mean_star = ef_star * g_star          # E[f g | star]
    mean_gal = ef_gal * g_gal
    e_src = iota * (ps * mean_star + pg * mean_gal)
    e_f = constant(patch.background) + e_src

    log_ef = tlog(e_f)
    if variance_correction:
        e_src2 = (iota * iota) * (
            ps * (ef2_star * (g_star * g_star))
            + pg * (ef2_gal * (g_gal * g_gal))
        )
        var_f = e_src2 - e_src * e_src
        e_log_f = log_ef - 0.5 * (var_f / (e_f * e_f))
    else:
        e_log_f = log_ef

    return tsum(constant(patch.counts) * e_log_f - e_f)


def elbo_taylor(
    ctx: SourceContext,
    free,
    order: int = 2,
    variance_correction: bool = True,
) -> Taylor:
    """Evaluate the full ELBO as one Taylor expression.

    Returns a Taylor scalar; use ``.val``, ``.gradient(41)``, ``.hessian(41)``.
    """
    params = seed_params(free, ctx.u_center, order=order)
    shape_cov = rotation_covariance_taylor(
        params.e_axis, params.e_angle, params.e_scale
    )

    flux_cache: dict = {}
    total = lift(0.0)
    for patch in ctx.patches:
        total = total + _pixel_term(
            patch, params, shape_cov, flux_cache, variance_correction
        )
    return total + kl_total(params, ctx.priors)


def elbo_kl_taylor(ctx: SourceContext, free, order: int = 2) -> Taylor:
    """Only the KL terms of :func:`elbo_taylor` — the reference for
    :func:`repro.core.elbo.elbo_kl`."""
    return kl_total(seed_params(free, ctx.u_center, order=order), ctx.priors)
