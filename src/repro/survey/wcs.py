"""World coordinate systems: affine maps between sky and pixel coordinates.

Real SDSS WCS solutions are locally affine to excellent accuracy; we adopt a
flat sky with a global pixel grid, so an affine transform captures exactly
what the inference code needs (positions and their Jacobians across images).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AffineWCS"]


@dataclass(frozen=True)
class AffineWCS:
    """Affine world coordinate system: ``pix = A @ (sky - sky_ref) + pix_ref``.

    Attributes
    ----------
    matrix:
        The 2x2 linear part ``A`` (identity for axis-aligned fields; scaling
        /rotation supported).
    sky_ref, pix_ref:
        Reference points in sky and pixel coordinates.
    """

    matrix: np.ndarray
    sky_ref: np.ndarray
    pix_ref: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).reshape(2, 2)
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("WCS matrix must be invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sky_ref", np.asarray(self.sky_ref, dtype=float).reshape(2))
        object.__setattr__(self, "pix_ref", np.asarray(self.pix_ref, dtype=float).reshape(2))

    @staticmethod
    def translation(offset_x: float, offset_y: float) -> "AffineWCS":
        """An axis-aligned WCS where pixel (0,0) sits at sky ``(offset_x,
        offset_y)``."""
        return AffineWCS(np.eye(2), np.array([offset_x, offset_y]), np.zeros(2))

    def sky_to_pix(self, sky: np.ndarray) -> np.ndarray:
        """Map sky coordinates (..., 2) to pixel coordinates."""
        sky = np.asarray(sky, dtype=float)
        return (sky - self.sky_ref) @ self.matrix.T + self.pix_ref

    def pix_to_sky(self, pix: np.ndarray) -> np.ndarray:
        """Map pixel coordinates (..., 2) to sky coordinates."""
        pix = np.asarray(pix, dtype=float)
        inv = np.linalg.inv(self.matrix)
        return (pix - self.pix_ref) @ inv.T + self.sky_ref

    def pixel_area_sky(self) -> float:
        """Sky area of one pixel (used to keep flux normalization consistent
        between differently-scaled images)."""
        return 1.0 / abs(np.linalg.det(self.matrix))
