"""The Image container: pixels plus the metadata vector Lambda_n.

The paper's model attaches to each image a constant metadata vector
describing its sky location and observing conditions (Figure 2).  Here that
is :class:`ImageMeta`: the WCS, PSF, photometric calibration, sky background
and band.  Pixel values are photon (photo-electron) counts, Poisson
distributed under the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.psf.gmm import MixturePSF
from repro.survey.wcs import AffineWCS

__all__ = ["ImageMeta", "Image"]


@dataclass(frozen=True)
class ImageMeta:
    """Per-image constants (the model's Lambda_n).

    Attributes
    ----------
    band:
        Photometric band index (0..4 for u,g,r,i,z).
    wcs:
        Sky-to-pixel affine map.
    psf:
        Point spread function as a Gaussian mixture.
    sky_level:
        Expected background photons per pixel.
    calibration:
        Photons per nanomaggy ("nelec per nmgy" in SDSS terms).
    field_id:
        Identifier of the field this image belongs to: (run, camcol, field).
    epoch:
        Observation epoch index (distinguishes repeated Stripe-82 imaging).
    """

    band: int
    wcs: AffineWCS
    psf: MixturePSF
    sky_level: float
    calibration: float
    field_id: tuple = (0, 0, 0)
    epoch: int = 0

    def __post_init__(self):
        # NaN and inf fail ``<= 0`` silently and poison every rate built
        # from them, so the check is positive *and* finite.
        for name in ("sky_level", "calibration"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and positive, got %r"
                                 % (name, value))


@dataclass
class Image:
    """Pixel data plus metadata for a single band of a single field.

    ``mask`` flags defective pixels (cosmic-ray hits, saturation, bad
    columns): True = unusable.  Masked pixels carry no information about
    the sky and are excluded from inference and photometry, so they may
    hold anything, NaN included; an unmasked pixel must be finite
    (``ValueError`` otherwise).
    """

    pixels: np.ndarray
    meta: ImageMeta
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be 2-D")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.pixels.shape:
                raise ValueError("mask shape must match pixels")
        bad = ~np.isfinite(self.pixels)
        if self.mask is not None:
            bad &= ~self.mask
        if bad.any():
            rows, cols = np.nonzero(bad)
            raise ValueError(
                "image has %d non-finite unmasked pixel(s), first at "
                "(row %d, col %d); mask them or repair the data"
                % (len(rows), rows[0], cols[0])
            )

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def band(self) -> int:
        return self.meta.band

    def sky_bounds(self) -> tuple[float, float, float, float]:
        """Bounding box of the image footprint in sky coordinates,
        ``(x_min, x_max, y_min, y_max)``."""
        corners = np.array([
            [0.0, 0.0],
            [self.width, 0.0],
            [0.0, self.height],
            [self.width, self.height],
        ]) - 0.5
        sky = self.meta.wcs.pix_to_sky(corners)
        return (
            float(sky[:, 0].min()), float(sky[:, 0].max()),
            float(sky[:, 1].min()), float(sky[:, 1].max()),
        )

    def contains_sky(self, position: np.ndarray, margin: float = 0.0) -> bool:
        """Whether a sky position falls inside the image footprint (with an
        optional pixel margin, so sources just off the edge still count —
        their light spills onto the image)."""
        px, py = self.meta.wcs.sky_to_pix(np.asarray(position))
        return (
            -0.5 - margin <= px <= self.width - 0.5 + margin
            and -0.5 - margin <= py <= self.height - 0.5 + margin
        )

    def nbytes(self) -> int:
        return self.pixels.nbytes
