"""Coadds: combining repeated exposures into a high signal-to-noise image.

The paper's validation (Section VIII) combines ~80 Stripe-82 exposures into a
very deep image and treats a catalog built from it as ground truth.  Because
our synthetic exposures of a field can differ in calibration, sky and seeing,
the coadd is formed in calibrated units (sky-subtracted, divided by the
calibration), inverse-variance weighted.
"""

from __future__ import annotations

import numpy as np

from repro.psf.gmm import MixturePSF
from repro.survey.image import Image, ImageMeta

__all__ = ["coadd_images"]


def coadd_images(images: list[Image]) -> Image:
    """Coadd same-band, same-footprint exposures.

    All inputs must share a band and pixel grid shape (they may differ in
    PSF, sky and calibration).  The output is expressed back in the photon
    units of a reference exposure (the first), with an effective sky level
    and calibration, so downstream code treats a coadd exactly like a single
    very deep image.  The effective PSF is the weight-averaged mixture.

    Masked input pixels take no part: each output pixel is weighted over
    the exposures that have it unmasked (a masked pixel may hold anything,
    NaN included), and is masked itself where every exposure masks it.
    Pixels that no exposure masks coadd exactly as without masks.
    """
    if not images:
        raise ValueError("need at least one image to coadd")
    band = images[0].band
    shape = images[0].pixels.shape
    for im in images:
        if im.band != band:
            raise ValueError("cannot coadd images from different bands")
        if im.pixels.shape != shape:
            raise ValueError("cannot coadd images with different shapes")

    # Inverse-variance weights in calibrated (nanomaggy) units: the variance
    # of (x - sky)/iota is approximately sky/iota^2 for background-dominated
    # pixels.
    weights = np.array([
        im.meta.calibration ** 2 / im.meta.sky_level for im in images
    ])
    weights = weights / weights.sum()

    valid = mask = None
    cover = 1.0
    if any(im.mask is not None for im in images):
        valid = np.stack([
            ~im.mask if im.mask is not None else np.ones(shape, dtype=bool)
            for im in images
        ])
        mask = ~valid.any(axis=0)
        # Per-pixel weight left over the exposures that have the pixel;
        # exactly 1.0 where all (or none) do.
        cover = np.where(valid, weights[:, None, None], 0.0).sum(axis=0)
        cover[valid.all(axis=0) | mask] = 1.0

    calibrated = np.zeros(shape)
    for k, (w, im) in enumerate(zip(weights, images)):
        term = ((w / cover) * (im.pixels - im.meta.sky_level)
                / im.meta.calibration)
        calibrated += term if valid is None else np.where(valid[k], term, 0.0)

    ref = images[0].meta
    n = len(images)
    # Effective exposure: n-fold deeper in photon terms.
    eff_calibration = ref.calibration * n
    eff_sky = ref.sky_level * n
    pixels = calibrated * eff_calibration + eff_sky

    # Average PSF mixture (weights scaled by epoch weight).
    all_w, all_mu, all_cov = [], [], []
    for w, im in zip(weights, images):
        psf = im.meta.psf
        all_w.extend(w * psf.weights)
        all_mu.extend(psf.means)
        all_cov.extend(psf.covs)
    eff_psf = MixturePSF(
        weights=np.asarray(all_w),
        means=np.asarray(all_mu),
        covs=np.asarray(all_cov),
    )

    meta = ImageMeta(
        band=band,
        wcs=ref.wcs,
        psf=eff_psf,
        sky_level=eff_sky,
        calibration=eff_calibration,
        field_id=ref.field_id,
        epoch=-1,
    )
    return Image(pixels=pixels, meta=meta, mask=mask)
