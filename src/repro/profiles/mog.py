"""Mixture-of-Gaussians approximations to galaxy radial profiles.

The exponential and de Vaucouleurs surface-brightness laws

.. math::

    I_{exp}(r) \\propto e^{-b_1 r / R_e},\\qquad
    I_{dev}(r) \\propto e^{-b_4 ((r/R_e)^{1/4} - 1)}

(with :math:`b_1 = 1.6783`, :math:`b_4 = 7.6693` so that :math:`R_e` is the
half-light radius) do not convolve analytically with a Gaussian PSF.
Following Celeste (and Hogg & Lang), each profile is approximated by a
mixture of concentric circular Gaussians; the approximation is *fitted here
from scratch* (:func:`fit_radial_mixture`) by non-negative least squares on
a flux-weighted radial grid.

``exp_mixture()`` (6 components) and ``dev_mixture()`` (8 components)
return ``(weights, variances)`` for a unit half-light-radius profile
normalized to unit total flux.  A galaxy of effective radius
:math:`\\sigma` simply scales every variance by :math:`\\sigma^2`.  The two
default tables are committed constants — the fitter's own float64 output,
28 numbers — so a fresh process (every spawned node-worker) neither
imports SciPy nor re-runs the fit, and the catalog bits do not depend on
the installed SciPy's ``nnls``/``least_squares``;
``tests/test_profiles.py`` regenerates them with the fitter, which also
serves every other component count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.constants import NNLS_AMPLITUDE_FLOOR, PROFILE_RADIUS_FLOOR

__all__ = [
    "profile_exp",
    "profile_dev",
    "fit_radial_mixture",
    "exp_mixture",
    "dev_mixture",
]

#: Sersic n=1 normalization constant: I(R_e) = I0 * exp(-B1).
B1 = 1.6783469900166605
#: Sersic n=4 normalization constant.
B4 = 7.669249443219044
#: Truncation radius (units of R_e) applied to the de Vaucouleurs profile,
#: mirroring the SDSS softened truncation at large radii.
DEV_TRUNCATION = 8.0
EXP_TRUNCATION = 6.0


def profile_exp(r: np.ndarray) -> np.ndarray:
    """Unit-total-flux exponential surface brightness at radius ``r`` (in
    units of the half-light radius)."""
    r = np.asarray(r, dtype=float)
    # With I(r) = A exp(-b1 r), total flux = A * 2 pi / b1^2  => A = b1^2 / (2 pi)
    amp = B1 * B1 / (2.0 * np.pi)
    out = amp * np.exp(-B1 * r)
    return np.where(r > EXP_TRUNCATION, 0.0, out)


def profile_dev(r: np.ndarray) -> np.ndarray:
    """Unit-total-flux de Vaucouleurs surface brightness at radius ``r``
    (units of the half-light radius), truncated at ``DEV_TRUNCATION``."""
    r = np.asarray(r, dtype=float)
    x = np.maximum(r, PROFILE_RADIUS_FLOOR)
    raw = np.exp(-B4 * (x ** 0.25 - 1.0))
    raw = np.where(r > DEV_TRUNCATION, 0.0, raw)
    # Normalize numerically to unit total flux over the truncated disk.
    grid = np.linspace(1e-4, DEV_TRUNCATION, 4000)
    vals = np.exp(-B4 * (grid ** 0.25 - 1.0))
    total = np.trapezoid(vals * 2.0 * np.pi * grid, grid)
    return raw / total


def _gauss_radial(r: np.ndarray, var: float) -> np.ndarray:
    """Radial density of a unit-flux circular 2-D Gaussian with variance ``var``."""
    return np.exp(-0.5 * r * r / var) / (2.0 * np.pi * var)


def fit_radial_mixture(
    profile,
    n_components: int,
    r_max: float,
    var_min: float = 5e-4,
    var_max: float | None = None,
    n_grid: int = 1200,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``n_components`` circular Gaussians to a radial profile.

    Amplitudes and variances are optimized jointly (log-parameterized, so both
    stay positive) by nonlinear least squares on a flux-weighted radial grid;
    an NNLS solve on log-spaced candidate widths provides the starting point.

    Returns ``(weights, variances)`` with ``weights.sum() == 1`` and the
    variances sorted ascending.
    """
    # SciPy is imported where it is used: nothing a node-worker imports
    # may import it (docs/scaling.md, "Fixed cost of a process run").
    from scipy.optimize import least_squares, nnls

    if var_max is None:
        var_max = (0.6 * r_max) ** 2
    # Log-spaced radial grid resolves the steep center; flux weighting keeps
    # the fit honest where the light actually is.
    r = np.geomspace(3e-3, r_max, n_grid)
    target = profile(r)
    flux_w = np.sqrt(2.0 * np.pi * r * np.gradient(r))

    # Warm start: NNLS amplitudes on fixed log-spaced widths.
    init_vars = np.geomspace(var_min * 4, var_max / 2, n_components)
    design = np.stack([_gauss_radial(r, v) for v in init_vars], axis=1)
    amps, _ = nnls(design * flux_w[:, None], target * flux_w)
    amps = np.maximum(amps, NNLS_AMPLITUDE_FLOOR)

    def residuals(params):
        a = np.exp(params[:n_components])
        v = np.exp(params[n_components:])
        model = sum(ai * _gauss_radial(r, vi) for ai, vi in zip(a, v))  # det: ignore[DET103] -- pinned sequential accumulation: fitted MoG profiles feed the golden catalog hash
        return (model - target) * flux_w

    x0 = np.concatenate([np.log(amps), np.log(init_vars)])
    lower = np.concatenate([
        np.full(n_components, -20.0), np.full(n_components, np.log(var_min))
    ])
    upper = np.concatenate([
        np.full(n_components, 5.0), np.full(n_components, np.log(var_max * 4))
    ])
    sol = least_squares(residuals, x0, bounds=(lower, upper), max_nfev=400)

    weights = np.exp(sol.x[:n_components])
    variances = np.exp(sol.x[n_components:])
    keep = weights > 1e-5 * weights.sum()
    weights, variances = weights[keep], variances[keep]
    weights = weights / weights.sum()
    order = np.argsort(variances)
    return weights[order], variances[order]


#: ``fit_radial_mixture(profile_exp, 6, r_max=EXP_TRUNCATION)``.
_EXP_TABLE = (
    (0.0006234783306874178, 0.007992314875331377, 0.05342511938636321,
     0.2181190892887215, 0.4547453140070771, 0.26509468411181947),
    (0.002601138585521739, 0.019023454165694998, 0.08307566371079095,
     0.2833952035844499, 0.8323943378717507, 2.254897476907319),
)
#: ``fit_radial_mixture(profile_dev, 8, r_max=DEV_TRUNCATION, var_min=2e-4)``.
_DEV_TABLE = (
    (0.008582694869463668, 0.025924119993047622, 0.05271819817828867,
     0.09390467941608238, 0.15072974953373577, 0.20993688950841116,
     0.2418139328307387, 0.21638973567023198),
    (0.0002000000000000002, 0.0019428099354813816, 0.009297868508999064,
     0.035710005004594876, 0.13087673928006863, 0.49555246059008895,
     2.077470239748567, 11.81339494007528),
)


@lru_cache(maxsize=None)
def exp_mixture(n_components: int = 6) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """MoG table for the exponential profile (unit R_e, unit flux): the
    committed table for the default 6 components, a cached fit otherwise."""
    if n_components == len(_EXP_TABLE[0]):
        return _EXP_TABLE
    w, v = fit_radial_mixture(profile_exp, n_components, r_max=EXP_TRUNCATION)
    return tuple(w), tuple(v)


@lru_cache(maxsize=None)
def dev_mixture(n_components: int = 8) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """MoG table for the de Vaucouleurs profile (unit R_e, unit flux): the
    committed table for the default 8 components, a cached fit otherwise."""
    if n_components == len(_DEV_TABLE[0]):
        return _DEV_TABLE
    w, v = fit_radial_mixture(
        profile_dev, n_components, r_max=DEV_TRUNCATION, var_min=2e-4
    )
    return tuple(w), tuple(v)
