"""Band-flux moments under the variational distribution.

The model specifies the flux of source ``s`` in band ``b`` through the
reference-band brightness and the colors (log flux ratios of adjacent
bands):

.. math::

    \\log f_b = \\tilde r + w_b^\\top c, \\qquad \\tilde r = \\log r,

where ``w_b`` is a fixed sign pattern (``COLOR_COEFFS``).  Under the
variational posterior, ``log r ~ N(r1, r2)`` and each color is an
independent Gaussian ``N(c1_i, c2_i)``, so ``log f_b`` is Gaussian with mean
``r1 + w_b . c1`` and variance ``r2 + (w_b^2) . c2`` and the flux moments are
log-normal moments — everything stays analytic, which is what makes the
Celeste ELBO tractable.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    FLUX_RATIO_FLOOR,
    NUM_BANDS,
    NUM_COLORS,
    REFERENCE_BAND,
)

__all__ = ["COLOR_COEFFS", "flux_from_colors", "colors_from_fluxes"]


def _build_color_coeffs() -> np.ndarray:
    """Sign pattern relating band log-fluxes to the reference band and colors.

    Color ``i`` is ``log(f_{i+1} / f_i)``.  Walking from the reference band
    outwards: bands above the reference add colors, bands below subtract.
    """
    coeffs = np.zeros((NUM_BANDS, NUM_COLORS))
    for b in range(REFERENCE_BAND + 1, NUM_BANDS):
        coeffs[b] = coeffs[b - 1]
        coeffs[b, b - 1] += 1.0
    for b in range(REFERENCE_BAND - 1, -1, -1):
        coeffs[b] = coeffs[b + 1]
        coeffs[b, b] -= 1.0
    return coeffs


#: ``COLOR_COEFFS[b]`` is the coefficient vector w_b over the 4 colors.
COLOR_COEFFS: np.ndarray = _build_color_coeffs()


def flux_from_colors(flux_ref: float, colors: np.ndarray) -> np.ndarray:
    """Deterministic band fluxes from a reference flux and colors (NumPy
    path, used by the renderer and catalog code)."""
    colors = np.asarray(colors, dtype=float)
    log_ref = np.log(flux_ref)
    return np.exp(log_ref + COLOR_COEFFS @ colors)  # det: ignore[NUM200] -- log-flux is unbounded by design; the runtime NumericSanitizer watches this path


def colors_from_fluxes(fluxes: np.ndarray) -> np.ndarray:
    """Invert :func:`flux_from_colors`: colors are log ratios of adjacent
    band fluxes."""
    fluxes = np.maximum(np.asarray(fluxes, dtype=float), FLUX_RATIO_FLOOR)
    return np.log(fluxes[1:] / fluxes[:-1])
