"""The model's building blocks in Taylor mode.

Each function here is the Taylor view of a NumPy map in ``src/``: the
canonical parameters seeded from the free vector (:mod:`repro.core.params`),
the bijectors (:mod:`repro.transforms`), the affine sky-to-pixel map
(:mod:`repro.survey.wcs`), the log-normal band-flux moments
(:mod:`repro.core.fluxes`) and the bivariate Gaussian density
(:mod:`repro.gaussians`).  Derivatives follow mechanically from the
:class:`~taylor_oracle.taylor.Taylor` arithmetic — no hand-written formulas
— which is what makes :mod:`taylor_oracle.elbo` an independent reference
for the fused kernel's closed forms.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NUM_COLOR_COMPONENTS, NUM_COLORS, NUM_TYPES
from repro.core.fluxes import COLOR_COEFFS
from repro.core.params import (
    FREE,
    U_BOX_HALFWIDTH,
    _BIJ_AXIS,
    _BIJ_C2,
    _BIJ_DEV,
    _BIJ_PROB,
    _BIJ_R2,
    _BIJ_SCALE,
)
from repro.gaussians import TWO_PI
from repro.transforms import Identity, LogitBox

from taylor_oracle.taylor import (
    Taylor,
    lift,
    tcos,
    texp,
    tlog,
    tsin,
    tsquare,
)

__all__ = [
    "TaylorParams",
    "flux_moments",
    "forward_taylor",
    "gauss2d_taylor",
    "rotation_covariance_taylor",
    "seed_params",
    "sky_to_pix_taylor",
    "softmax_fixed_last_taylor",
]


# ---------------------------------------------------------------------------
# Bijectors and the WCS map


def forward_taylor(bijector, u) -> Taylor:
    """A bijector's forward map applied to a Taylor value (the identity
    passes its argument through)."""
    u = lift(u)
    if isinstance(bijector, Identity):
        return u
    return (bijector.lo
            + (bijector.hi - bijector.lo) * (1.0 + texp(-1.0 * u)).reciprocal())


def softmax_fixed_last_taylor(free: list) -> list:
    """Taylor version of :func:`repro.transforms.softmax_fixed_last`;
    takes/returns lists of Taylor scalars."""
    lifted = [lift(u) for u in free]
    # Max-shift like the NumPy path.  The shift is a plain float constant at
    # the evaluation point, so derivatives with respect to the free logits
    # are untouched, while every exp argument is bounded above by zero —
    # no overflow however large a logit gets.  When all logits are <= 0 the
    # shift is zero and the expression reduces bit-for-bit to the unshifted
    # form.
    m = max(0.0, *(float(u.val) for u in lifted)) if lifted else 0.0
    exps = [texp(u - m) for u in lifted]
    pinned = float(np.exp(-m))
    denom = lift(pinned)
    for e in exps:
        denom = denom + e
    inv = denom.reciprocal()
    probs = [e * inv for e in exps]
    probs.append(pinned * inv)
    return probs


def sky_to_pix_taylor(wcs, sky_x, sky_y):
    """Taylor-mode affine sky->pixel map (position parameters carry
    derivatives)."""
    a = wcs.matrix
    dx = sky_x - float(wcs.sky_ref[0])
    dy = sky_y - float(wcs.sky_ref[1])
    px = a[0, 0] * dx + a[0, 1] * dy + float(wcs.pix_ref[0])
    py = a[1, 0] * dx + a[1, 1] * dy + float(wcs.pix_ref[1])
    return px, py


# ---------------------------------------------------------------------------
# Seeded canonical parameters


class TaylorParams:
    """Canonical parameters as Taylor values over the free-parameter indices.

    Built by :func:`seed_params`; consumed by the oracle ELBO.  Attributes
    mirror :class:`repro.core.params.SourceParams` but hold Taylor scalars
    (or lists thereof).
    """

    __slots__ = (
        "prob_galaxy", "prob_star", "ux", "uy", "r1", "r2", "c1", "c2",
        "e_dev", "e_axis", "e_angle", "e_scale", "kappa",
    )

    def __init__(self, prob_galaxy, ux, uy, r1, r2, c1, c2,
                 e_dev, e_axis, e_angle, e_scale, kappa):
        self.prob_galaxy = prob_galaxy
        self.prob_star = 1.0 - prob_galaxy
        self.ux, self.uy = ux, uy
        self.r1, self.r2 = r1, r2          # lists [star, galaxy]
        self.c1, self.c2 = c1, c2          # nested [type][color]
        self.e_dev, self.e_axis = e_dev, e_axis
        self.e_angle, self.e_scale = e_angle, e_scale
        self.kappa = kappa                 # nested [type][component]


def seed_params(free: np.ndarray, u_center: np.ndarray,
                order: int = 2) -> TaylorParams:
    """Seed Taylor variables at the free indices and push them through the
    bijections, yielding canonical parameters that carry derivatives with
    respect to the free vector."""
    free = np.asarray(free, dtype=float)
    var = lambda i: Taylor.variable(free[i], i, order=order)  # noqa: E731

    pg = forward_taylor(_BIJ_PROB, var(FREE["a"].start))
    ub = LogitBox(-U_BOX_HALFWIDTH, U_BOX_HALFWIDTH)
    u0, u1 = FREE.indices("u")
    ux = forward_taylor(ub, var(u0)) + float(u_center[0])
    uy = forward_taylor(ub, var(u1)) + float(u_center[1])

    r1_idx = FREE.indices("r1")
    r2_idx = FREE.indices("r2")
    r1 = [var(r1_idx[t]) for t in range(NUM_TYPES)]
    r2 = [forward_taylor(_BIJ_R2, var(r2_idx[t])) for t in range(NUM_TYPES)]

    c1_idx = FREE.indices("c1")
    c2_idx = FREE.indices("c2")
    c1 = [[var(c1_idx[t * NUM_COLORS + i]) for i in range(NUM_COLORS)]
          for t in range(NUM_TYPES)]
    c2 = [[forward_taylor(_BIJ_C2, var(c2_idx[t * NUM_COLORS + i]))
           for i in range(NUM_COLORS)] for t in range(NUM_TYPES)]

    e_dev = forward_taylor(_BIJ_DEV, var(FREE["e_dev"].start))
    e_axis = forward_taylor(_BIJ_AXIS, var(FREE["e_axis"].start))
    e_angle = var(FREE["e_angle"].start)
    e_scale = forward_taylor(_BIJ_SCALE, var(FREE["e_scale"].start))

    k_idx = FREE.indices("k")
    width = NUM_COLOR_COMPONENTS - 1
    kappa = []
    for t in range(NUM_TYPES):
        frees = [var(k_idx[t * width + j]) for j in range(width)]
        kappa.append(softmax_fixed_last_taylor(frees))

    return TaylorParams(pg, ux, uy, r1, r2, c1, c2,
                        e_dev, e_axis, e_angle, e_scale, kappa)


# ---------------------------------------------------------------------------
# Band-flux moments and Gaussian densities


def flux_moments(r1, r2, c1: list, c2: list, band: int) -> tuple[Taylor, Taylor]:
    """First and second moments of the band flux under q.

    Parameters are Taylor scalars: ``r1``/``r2`` the mean/variance of the log
    reference-band flux; ``c1``/``c2`` lists of per-color means/variances.

    Returns ``(E[f_b], E[f_b^2])``.
    """
    coeff = COLOR_COEFFS[band]
    m = lift(r1)
    v = lift(r2)
    for i in range(NUM_COLORS):
        w = coeff[i]
        if w != 0.0:
            m = m + w * lift(c1[i])
            v = v + (w * w) * lift(c2[i])
    first = texp(m + 0.5 * v)
    second = texp(2.0 * m + 2.0 * v)
    return first, second


def gauss2d_taylor(dx, dy, sxx, sxy, syy) -> Taylor:
    """Taylor-mode bivariate normal density.

    ``dx``/``dy`` may be Taylor (position is a variational parameter) and the
    covariance entries may be Taylor (galaxy shape parameters).  Constants are
    lifted automatically.

    The normalizer is folded into the exponent (``exp(-q/2 - log(2 pi
    sqrt(det)))``) so the expensive wide-Hessian multiply of density by
    normalizer never materializes — the log-normalizer is added where
    arrays are still component-sized.
    """
    dx, dy = lift(dx), lift(dy)
    sxx, sxy, syy = lift(sxx), lift(sxy), lift(syy)
    det = sxx * syy - sxy * sxy
    inv_det = det.reciprocal() if not det.is_constant else lift(1.0 / det.val)
    ixx = syy * inv_det
    ixy = -1.0 * (sxy * inv_det)
    iyy = sxx * inv_det
    q = ixx * (dx * dx) + 2.0 * (ixy * (dx * dy)) + iyy * (dy * dy)
    if det.is_constant:
        log_norm = lift(np.log(TWO_PI) + 0.5 * np.log(det.val))
    else:
        log_norm = np.log(TWO_PI) + 0.5 * tlog(det)
    return texp(-0.5 * q - log_norm)


def rotation_covariance_taylor(axis_ratio, angle, scale):
    """Taylor version of :func:`repro.gaussians.rotation_covariance` (shape
    parameters carry derivatives)."""
    axis_ratio, angle, scale = lift(axis_ratio), lift(angle), lift(scale)
    c, s = tcos(angle), tsin(angle)
    major = tsquare(scale)
    minor = tsquare(scale * axis_ratio)
    sxx = tsquare(c) * major + tsquare(s) * minor
    syy = tsquare(s) * major + tsquare(c) * minor
    sxy = (c * s) * (major - minor)
    return sxx, sxy, syy
