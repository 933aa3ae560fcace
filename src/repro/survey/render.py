"""Rendering: evaluating the generative model's pixel rates.

The rate of pixel m in image n is

.. math::

    F_{nm} = \\epsilon_n + \\sum_s \\iota_n f_{s,b_n} g_{ns}(m)

where :math:`\\epsilon_n` is the sky background, :math:`\\iota_n` the
calibration, :math:`f_{s,b}` the band flux and :math:`g_{ns}` the
PSF-convolved light profile density.  Observed pixels are Poisson draws from
``F``.  The same patch machinery (bounding boxes of "active pixels") is used
by the renderer and by the ELBO.
"""

from __future__ import annotations

import numpy as np

from repro.profiles.galaxy import GalaxyShape, galaxy_density
from repro.survey.image import Image, ImageMeta

__all__ = [
    "source_radius",
    "source_patch",
    "add_source_rate",
    "expected_image",
    "render_image",
]


def source_radius(entry_or_radius, psf, min_radius: float = 4.0) -> float:
    """Patch radius (pixels) containing essentially all of a source's flux.

    Stars are PSF-limited; galaxies extend several effective radii beyond.
    Accepts either a catalog entry or a galaxy radius in pixels.  (Duck-typed
    to avoid importing the catalog module, which sits above this one in the
    package graph.)
    """
    psf_sigma = float(np.sqrt(max(np.trace(psf.second_moment()) / 2.0, 0.25)))
    if hasattr(entry_or_radius, "is_galaxy"):
        gal_r = entry_or_radius.gal_radius_px if entry_or_radius.is_galaxy else 0.0
    else:
        gal_r = float(entry_or_radius)
    return max(min_radius, 4.0 * psf_sigma + 4.0 * gal_r)


def source_patch(image: Image, sky_position: np.ndarray, radius: float):
    """Integer pixel bounds of the active patch for a source in an image.

    Returns ``(x0, x1, y0, y1)`` as half-open pixel index ranges, or ``None``
    when the patch misses the image entirely.
    """
    px, py = image.meta.wcs.sky_to_pix(np.asarray(sky_position))
    x0 = max(int(np.floor(px - radius)), 0)
    x1 = min(int(np.ceil(px + radius)) + 1, image.width)
    y0 = max(int(np.floor(py - radius)), 0)
    y1 = min(int(np.ceil(py + radius)) + 1, image.height)
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, x1, y0, y1)


def add_source_rate(rate: np.ndarray, image_meta: ImageMeta, shape_hw: tuple,
                    entry: CatalogEntry, radius: float | None = None) -> None:
    """Accumulate one source's expected photon contribution into ``rate``."""
    h, w = shape_hw
    psf = image_meta.psf
    if radius is None:
        radius = source_radius(entry, psf)
    px, py = image_meta.wcs.sky_to_pix(entry.position)
    x0 = max(int(np.floor(px - radius)), 0)
    x1 = min(int(np.ceil(px + radius)) + 1, w)
    y0 = max(int(np.floor(py - radius)), 0)
    y1 = min(int(np.ceil(py + radius)) + 1, h)
    if x0 >= x1 or y0 >= y1:
        return
    ys, xs = np.mgrid[y0:y1, x0:x1]
    dx = xs - px
    dy = ys - py
    if entry.is_galaxy:
        shape = GalaxyShape(
            frac_dev=entry.gal_frac_dev,
            axis_ratio=entry.gal_axis_ratio,
            angle=entry.gal_angle,
            radius=entry.gal_radius_px,
        )
        dens = galaxy_density(shape, psf, dx, dy)
    else:
        dens = psf.density(dx, dy)
    flux = entry.band_fluxes()[image_meta.band]
    rate[y0:y1, x0:x1] += image_meta.calibration * flux * dens


def expected_image(entries, meta: ImageMeta, shape_hw: tuple) -> np.ndarray:
    """Expected photon counts E[F] for a set of sources plus sky."""
    rate = np.full(shape_hw, meta.sky_level, dtype=float)
    for entry in entries:
        add_source_rate(rate, meta, shape_hw, entry)
    return rate


def render_image(entries, meta: ImageMeta, shape_hw: tuple,
                 rng: np.random.Generator | None = None,
                 cosmic_ray_rate: float = 0.0) -> Image:
    """Draw a Poisson realization of the model: one synthetic image.

    ``cosmic_ray_rate`` is the per-pixel probability of a cosmic-ray hit;
    hit pixels are corrupted with a large charge deposit and flagged in the
    image mask (as the SDSS frame pipeline flags them).
    """
    if rng is None:
        rng = np.random.default_rng()
    rate = expected_image(entries, meta, shape_hw)
    pixels = rng.poisson(rate).astype(float)
    mask = None
    if cosmic_ray_rate > 0.0:
        mask = rng.random(shape_hw) < cosmic_ray_rate
        n_hits = int(mask.sum())
        if n_hits:
            pixels[mask] += rng.gamma(2.0, 40.0 * meta.sky_level, n_hits)
    return Image(pixels=pixels, meta=meta, mask=mask)
