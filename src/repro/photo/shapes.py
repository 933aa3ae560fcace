"""Shape measurement: adaptive second moments with PSF deconvolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaussians import moments_to_ellipse
from repro.profiles.galaxy import GalaxyShape, galaxy_density
from repro.survey.image import Image
from repro.survey.render import source_patch

__all__ = ["ShapeMeasurement", "measure_shape"]


@dataclass
class ShapeMeasurement:
    """Observed and PSF-deconvolved morphology of one detection.

    Attributes
    ----------
    observed_moments:
        Second-moment matrix of the detection, including PSF smearing.
    intrinsic_moments:
        PSF-deconvolved moments (observed minus PSF; floored at zero).
    axis_ratio, angle, radius_px:
        Ellipse parameters of the intrinsic moments; ``radius_px`` is the
        moment-matched effective radius of the major axis.
    concentration:
        sqrt(det(observed)) / sqrt(det(PSF)) — 1.0 for point sources.
    frac_dev:
        Heuristic profile type from chi-square comparison of the two
        canonical profiles (0 = exponential, 1 = de Vaucouleurs).
    """

    observed_moments: np.ndarray
    intrinsic_moments: np.ndarray
    axis_ratio: float
    angle: float
    radius_px: float
    concentration: float
    frac_dev: float


#: Moment-to-half-light-radius conversion for an exponential profile:
#: <r^2> of exp profile with R_e = 1 is integral -> sigma_moment ~ 1.12 R_e.
_MOMENT_TO_RE_EXP = 1.0 / 1.12


def _weighted_moments(data: np.ndarray, xs, ys, cx, cy, w_sigma: float,
                      n_iter: int = 3):
    """Adaptive Gaussian-weighted second moments with exact Gaussian
    deconvolution of the weight.

    For a Gaussian source with covariance ``T`` weighted by a Gaussian of
    covariance ``W``, the measured moments are ``(T^-1 + W^-1)^-1``; we
    invert that relation exactly with the final weight, which also
    self-corrects the measured PSF reference used by the concentration
    classifier.
    """
    sigma = w_sigma
    mxx = myy = sigma ** 2
    mxy = 0.0
    for _ in range(n_iter):
        w = np.exp(-0.5 * ((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma ** 2))
        ww = np.clip(data, 0.0, None) * w
        total = ww.sum()
        if total <= 0:
            break
        mxx = float((ww * (xs - cx) ** 2).sum() / total)
        mxy = float((ww * (xs - cx) * (ys - cy)).sum() / total)
        myy = float((ww * (ys - cy) ** 2).sum() / total)
        sigma = max(np.sqrt(max(0.5 * (mxx + myy), 0.25)), 0.7)
    measured = np.array([[mxx, mxy], [mxy, myy]])
    w_cov_inv = np.eye(2) / (2.0 * sigma ** 2)
    m_inv = np.linalg.inv(measured + 1e-9 * np.eye(2))
    t_inv = m_inv - w_cov_inv
    evals, evecs = np.linalg.eigh(t_inv)
    evals = np.maximum(evals, 1e-3)  # keep the deconvolution bounded
    return np.linalg.inv((evecs * evals) @ evecs.T)


def measure_shape(image: Image, sky_position: np.ndarray,
                  radius: float = 12.0) -> ShapeMeasurement:
    """Measure a detection's morphology on one image, from its unmasked
    pixels only."""
    bounds = source_patch(image, sky_position, radius)
    if bounds is None:
        raise ValueError("source is off the image")
    x0, x1, y0, y1 = bounds
    ys, xs = np.mgrid[y0:y1, x0:x1]
    px, py = image.meta.wcs.sky_to_pix(np.asarray(sky_position))
    data = image.pixels[y0:y1, x0:x1] - image.meta.sky_level
    # A masked pixel weighs nothing: not in the data, the PSF reference or
    # the profile fit (as in psf_flux).
    good = (np.ones(data.shape, dtype=bool) if image.mask is None
            else ~image.mask[y0:y1, x0:x1])
    data = np.where(good, data, 0.0)

    psf_true = image.meta.psf.second_moment()
    w_sigma = float(np.sqrt(max(np.trace(psf_true) / 2.0, 0.25)))
    observed = _weighted_moments(data, xs, ys, px, py, w_sigma)

    # Measure the PSF model through the identical adaptive pipeline so any
    # residual estimator bias cancels in the comparison.
    psf_img = np.where(good, image.meta.psf.density(xs - px, ys - py), 0.0)
    psf_m = _weighted_moments(psf_img, xs, ys, px, py, w_sigma)

    intrinsic = observed - psf_m
    evals, evecs = np.linalg.eigh(intrinsic)
    evals = np.maximum(evals, 1e-3)
    intrinsic_psd = (evecs * evals) @ evecs.T

    axis_ratio, angle, sigma_int = moments_to_ellipse(
        intrinsic_psd[0, 0], intrinsic_psd[0, 1], intrinsic_psd[1, 1]
    )
    radius_px = sigma_int * _MOMENT_TO_RE_EXP / max(np.sqrt(axis_ratio), 0.3)

    det_obs = max(np.linalg.det(observed), 1e-9)
    det_psf = max(np.linalg.det(psf_m), 1e-9)
    concentration = float((det_obs / det_psf) ** 0.25)

    frac_dev = _profile_type(image, data, good, xs, ys, px, py,
                             axis_ratio, angle, radius_px)

    return ShapeMeasurement(
        observed_moments=observed,
        intrinsic_moments=intrinsic_psd,
        axis_ratio=float(np.clip(axis_ratio, 0.05, 1.0)),
        angle=float(angle % np.pi),
        radius_px=float(np.clip(radius_px, 0.25, 30.0)),
        concentration=concentration,
        frac_dev=frac_dev,
    )


def _profile_type(image, data, good, xs, ys, px, py, axis_ratio, angle,
                  radius_px):
    """Chi-square comparison of exponential vs de Vaucouleurs models with the
    measured ellipse, returning a hard 0/1 decision softened by the relative
    fit quality (Photo's "fracDeV"), over the ``good`` pixels only."""
    chis = []
    total = max(data.sum(), 1e-9)
    for frac_dev in (0.0, 1.0):
        shape = GalaxyShape(frac_dev=frac_dev,
                            axis_ratio=max(axis_ratio, 0.1),
                            angle=angle,
                            radius=max(radius_px, 0.3))
        model = galaxy_density(shape, image.meta.psf, xs - px, ys - py) * total
        var = np.maximum(image.meta.sky_level + np.clip(data, 0, None), 1.0)
        chis.append(float(
            np.where(good, (data - model) ** 2 / var, 0.0).sum()))
    chi_exp, chi_dev = chis
    # Softmax on chi-square difference: ~0 for clearly-exponential, ~1 for
    # clearly-de-Vaucouleurs, ~0.5 when indistinguishable.
    scale = max(0.05 * min(chi_exp, chi_dev), 1.0)
    return float(1.0 / (1.0 + np.exp((chi_dev - chi_exp) / scale)))
