"""The end-to-end Photo-style pipeline: images of one field -> catalog.

Mirrors the structure of the SDSS Photo pipeline on a single field: detect on
the reference band, then measure positions, per-band fluxes, shapes and type
per detection.  Deliberately single-field (the heuristic baseline "ignores
all but one image in regions with overlap", Figure 1 caption) and entirely
point-estimate (no uncertainty fields are filled in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import NUM_BANDS, NUM_COLORS, REFERENCE_BAND
from repro.core.catalog import Catalog, CatalogEntry
from repro.core.fluxes import colors_from_fluxes
from repro.knobs import knob
from repro.photo.classify import classify_star_galaxy
from repro.photo.detect import detect_sources
from repro.photo.photometry import aperture_flux, psf_flux
from repro.photo.shapes import measure_shape
from repro.survey.image import Image

__all__ = ["PhotoConfig", "run_photo"]


@dataclass
class PhotoConfig:
    """Hand-tuned thresholds of the heuristic pipeline.

    All fields are ``fingerprinted`` (:func:`repro.knobs.knob`): the whole
    config lands in the checkpoint fingerprint.
    """

    threshold_sigma: float = knob(4.0, provenance="fingerprinted")
    min_separation: float = knob(3.0, provenance="fingerprinted")
    concentration_threshold: float = knob(1.25, provenance="fingerprinted")
    aperture_radius: float = knob(6.0, provenance="fingerprinted")
    measure_radius: float = knob(12.0, provenance="fingerprinted")


def run_photo(field_images: list[Image], config: PhotoConfig | None = None) -> Catalog:
    """Run the heuristic pipeline on one field's images (one per band).

    Detection runs on the reference (r) band; photometry runs per band;
    shapes and classification use the reference band.
    """
    if config is None:
        config = PhotoConfig()
    by_band = {im.band: im for im in field_images}
    bad = sorted(b for b in by_band if not 0 <= b < NUM_BANDS)
    if bad:
        raise ValueError(
            "field contains images with invalid band ids %r "
            "(bands must be in [0, %d))" % (bad, NUM_BANDS)
        )
    if REFERENCE_BAND not in by_band:
        raise ValueError("Photo requires the reference (r) band")
    ref = by_band[REFERENCE_BAND]

    positions = detect_sources(
        ref,
        threshold_sigma=config.threshold_sigma,
        min_separation=config.min_separation,
    )

    catalog = Catalog()
    for pos in positions:
        try:
            shape = measure_shape(ref, pos, radius=config.measure_radius)
        except ValueError:
            continue
        is_galaxy = classify_star_galaxy(
            shape, threshold=config.concentration_threshold
        )

        fluxes = np.full(NUM_BANDS, np.nan)
        for band, im in by_band.items():
            if is_galaxy:
                fluxes[band] = aperture_flux(im, pos, radius=config.aperture_radius)
            else:
                fluxes[band] = psf_flux(im, pos, radius=config.measure_radius)
        # Missing bands fall back to the reference flux (flat colors).
        ref_flux = fluxes[REFERENCE_BAND]
        if not np.isfinite(ref_flux) or ref_flux <= 0:
            continue
        fluxes = np.where(np.isfinite(fluxes) & (fluxes > 0), fluxes,
                          ref_flux)
        colors = colors_from_fluxes(fluxes)
        if colors.shape != (NUM_COLORS,):
            continue

        catalog.append(CatalogEntry(
            position=np.asarray(pos, dtype=float),
            is_galaxy=bool(is_galaxy),
            flux_r=float(ref_flux),
            colors=colors,
            gal_frac_dev=shape.frac_dev,
            gal_axis_ratio=shape.axis_ratio,
            gal_angle=shape.angle,
            gal_radius_px=shape.radius_px,
        ))
    return catalog
