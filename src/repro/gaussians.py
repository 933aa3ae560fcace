"""Bivariate Gaussian utilities shared by the PSF, galaxy-profile, and ELBO code.

Plain-NumPy evaluation, used for rendering synthetic images, by the Photo
baseline and by the PSF/profile fits.  Covariances are handled as explicit
``(sxx, sxy, syy)`` triples so the 2x2 inverse/determinant algebra stays
closed-form.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MOMENT_EIGENVALUE_FLOOR

TWO_PI = 2.0 * np.pi

__all__ = [
    "gauss2d",
    "covariance_det",
    "rotation_covariance",
    "moments_to_ellipse",
]


def gauss2d(dx, dy, sxx: float, sxy: float, syy: float) -> np.ndarray:
    """Density of N(0, [[sxx, sxy], [sxy, syy]]) at offsets ``(dx, dy)``."""
    det = sxx * syy - sxy * sxy
    if det <= 0:
        raise ValueError("covariance must be positive definite (det=%g)" % det)
    ixx = syy / det
    ixy = -sxy / det
    iyy = sxx / det
    q = ixx * dx * dx + 2.0 * ixy * dx * dy + iyy * dy * dy
    return np.exp(-0.5 * q) / (TWO_PI * np.sqrt(det))


def covariance_det(sxx, sxy, syy):
    return sxx * syy - sxy * sxy


def rotation_covariance(axis_ratio: float, angle: float, scale: float):
    """Covariance triple of an elliptical Gaussian with unit-variance major
    axis scaled by ``scale``, minor/major axis ratio ``axis_ratio`` and
    position angle ``angle`` (radians, measured from the +x axis).

    Returns ``(sxx, sxy, syy)`` of ``R(angle) @ diag(scale^2, (scale*axis)^2) @ R^T``.
    """
    c, s = np.cos(angle), np.sin(angle)
    major = scale * scale
    minor = (scale * axis_ratio) ** 2
    sxx = c * c * major + s * s * minor
    syy = s * s * major + c * c * minor
    sxy = c * s * (major - minor)
    return sxx, sxy, syy


def moments_to_ellipse(mxx: float, mxy: float, myy: float):
    """Invert :func:`rotation_covariance`: recover ``(axis_ratio, angle,
    scale)`` from second moments.  Used by the Photo shape pipeline."""
    m = np.array([[mxx, mxy], [mxy, myy]])
    evals, evecs = np.linalg.eigh(m)
    evals = np.maximum(evals, MOMENT_EIGENVALUE_FLOOR)
    minor2, major2 = evals[0], evals[1]
    scale = np.sqrt(major2)
    axis_ratio = float(np.sqrt(minor2 / major2))
    v = evecs[:, 1]
    angle = float(np.arctan2(v[1], v[0])) % np.pi
    return axis_ratio, angle, scale
