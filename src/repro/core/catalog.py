"""Catalog containers: the principal data product of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.constants import NUM_COLORS
from repro.core.fluxes import flux_from_colors

__all__ = ["CatalogEntry", "Catalog"]


@dataclass
class CatalogEntry:
    """One light source: the latent variables of the model (plus optional
    posterior uncertainty for inferred catalogs).

    Attributes
    ----------
    position:
        Sky coordinates ``(x, y)`` in global survey pixels.
    is_galaxy:
        Point estimate of the source type.
    flux_r:
        Reference-band (r) flux in nanomaggies.
    colors:
        Log flux ratios of adjacent bands, shape ``(NUM_COLORS,)``.
    gal_frac_dev, gal_axis_ratio, gal_angle, gal_radius_px:
        Galaxy morphology (ignored for stars): de Vaucouleurs flux fraction,
        minor/major axis ratio, position angle (radians), effective radius
        (pixels).
    prob_galaxy:
        Posterior probability of the galaxy hypothesis (inferred catalogs).
    flux_r_sd, color_sd:
        Posterior standard deviations (inferred catalogs); ``None`` for
        heuristic catalogs, which is exactly the deficiency of non-Bayesian
        pipelines the paper calls out.
    """

    position: np.ndarray
    is_galaxy: bool
    flux_r: float
    colors: np.ndarray
    gal_frac_dev: float = 0.5
    gal_axis_ratio: float = 0.7
    gal_angle: float = 0.0
    gal_radius_px: float = 1.5
    prob_galaxy: float | None = None
    flux_r_sd: float | None = None
    color_sd: np.ndarray | None = None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.colors = np.asarray(self.colors, dtype=float)
        if self.position.shape != (2,):
            raise ValueError("position must be a 2-vector")
        if self.colors.shape != (NUM_COLORS,):
            raise ValueError("colors must have %d entries" % NUM_COLORS)
        if self.flux_r <= 0:
            raise ValueError("flux_r must be positive")

    def band_fluxes(self) -> np.ndarray:
        """Fluxes in all five bands, in nanomaggies."""
        return flux_from_colors(self.flux_r, self.colors)


@dataclass
class Catalog:
    """A collection of light sources over a region of sky."""

    entries: list[CatalogEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> CatalogEntry:
        return self.entries[i]

    def append(self, entry: CatalogEntry) -> None:
        self.entries.append(entry)

    def positions(self) -> np.ndarray:
        """Stacked positions, shape ``(n, 2)``."""
        if not self.entries:
            return np.zeros((0, 2))
        return np.stack([e.position for e in self.entries])

    def galaxies(self) -> "Catalog":
        return Catalog([e for e in self.entries if e.is_galaxy])
