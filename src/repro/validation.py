"""Catalog validation: matching and the Table II error metrics.

The paper scores catalogs on twelve quantities (Table II): position error,
missed-galaxy and missed-star rates, reference-band brightness error, four
color errors, and four galaxy-morphology errors (profile, eccentricity,
scale, angle).  This module matches an estimated catalog against ground
truth by position and computes exactly those averages, lower = better.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.catalog import Catalog, CatalogEntry

__all__ = ["CatalogMatch", "match_catalogs", "ErrorMetrics", "score_catalog",
           "TABLE2_ROWS"]

#: Row labels of Table II, in the paper's order.
TABLE2_ROWS = (
    "Position", "Missed gals", "Missed stars", "Brightness",
    "Color u-g", "Color g-r", "Color r-i", "Color i-z",
    "Profile", "Eccentricity", "Scale", "Angle",
)

#: Magnitudes per unit of natural-log flux ratio.
_MAG_PER_LN = 2.5 / np.log(10.0)


@dataclass
class CatalogMatch:
    """Pairing of truth entries with estimated entries."""

    pairs: list[tuple[CatalogEntry, CatalogEntry]]
    unmatched_truth: list[CatalogEntry]
    unmatched_estimate: list[CatalogEntry]

    @property
    def n_matched(self) -> int:
        return len(self.pairs)

    @property
    def completeness(self) -> float:
        total = len(self.pairs) + len(self.unmatched_truth)
        return len(self.pairs) / total if total else 0.0

    @property
    def false_detection_rate(self) -> float:
        total = len(self.pairs) + len(self.unmatched_estimate)
        return len(self.unmatched_estimate) / total if total else 0.0


def match_catalogs(
    truth: Catalog, estimate: Catalog, max_distance: float = 2.0
) -> CatalogMatch:
    """Greedy nearest-neighbor matching within ``max_distance`` pixels."""
    if len(truth) == 0 or len(estimate) == 0:
        return CatalogMatch([], list(truth), list(estimate))
    from scipy.spatial import cKDTree

    est_pos = estimate.positions()
    tree = cKDTree(est_pos)
    taken: set[int] = set()
    pairs = []
    unmatched_truth = []
    # Brightest truth sources claim their matches first.
    for entry in sorted(truth, key=lambda e: -e.flux_r):
        dists, idxs = tree.query(entry.position, k=min(4, len(estimate)))
        dists = np.atleast_1d(dists)
        idxs = np.atleast_1d(idxs)
        found = False
        for d, j in zip(dists, idxs):
            if d <= max_distance and int(j) not in taken:
                taken.add(int(j))
                pairs.append((entry, estimate[int(j)]))
                found = True
                break
        if not found:
            unmatched_truth.append(entry)
    unmatched_est = [e for j, e in enumerate(estimate) if j not in taken]
    return CatalogMatch(pairs, unmatched_truth, unmatched_est)


@dataclass
class ErrorMetrics:
    """Average errors in the paper's Table II format (lower is better)."""

    position: float = np.nan
    missed_gals: float = np.nan
    missed_stars: float = np.nan
    brightness: float = np.nan
    color_ug: float = np.nan
    color_gr: float = np.nan
    color_ri: float = np.nan
    color_iz: float = np.nan
    profile: float = np.nan
    eccentricity: float = np.nan
    scale: float = np.nan
    angle: float = np.nan
    n_matched: int = 0
    per_source: dict = field(default_factory=dict)

    def as_rows(self) -> dict[str, float]:
        return {
            "Position": self.position,
            "Missed gals": self.missed_gals,
            "Missed stars": self.missed_stars,
            "Brightness": self.brightness,
            "Color u-g": self.color_ug,
            "Color g-r": self.color_gr,
            "Color r-i": self.color_ri,
            "Color i-z": self.color_iz,
            "Profile": self.profile,
            "Eccentricity": self.eccentricity,
            "Scale": self.scale,
            "Angle": self.angle,
        }


def _angle_error_deg(a: float, b: float) -> float:
    d = abs(a - b) % np.pi
    return np.degrees(min(d, np.pi - d))


def score_catalog(
    truth: Catalog, estimate: Catalog, max_distance: float = 2.0
) -> ErrorMetrics:
    """Compute the Table II error metrics of ``estimate`` against ``truth``.

    Morphology rows (profile, eccentricity, scale, angle) average over true
    galaxies only; brightness/colors over all matched sources; the missed
    rates are misclassification fractions among matched sources.
    """
    match = match_catalogs(truth, estimate, max_distance)
    m = ErrorMetrics(n_matched=match.n_matched)
    if not match.pairs:
        return m

    pos, bright = [], []
    colors = [[] for _ in range(4)]
    gal_profile, gal_ecc, gal_scale, gal_angle = [], [], [], []
    missed_g, missed_s = [], []
    for t, e in match.pairs:
        pos.append(float(np.linalg.norm(t.position - e.position)))
        bright.append(_MAG_PER_LN * abs(np.log(e.flux_r / t.flux_r)))
        for i in range(4):
            colors[i].append(_MAG_PER_LN * abs(e.colors[i] - t.colors[i]))
        if t.is_galaxy:
            missed_g.append(0.0 if e.is_galaxy else 1.0)
            gal_profile.append(abs(e.gal_frac_dev - t.gal_frac_dev))
            gal_ecc.append(abs(e.gal_axis_ratio - t.gal_axis_ratio))
            gal_scale.append(abs(e.gal_radius_px - t.gal_radius_px))
            gal_angle.append(_angle_error_deg(e.gal_angle, t.gal_angle))
        else:
            missed_s.append(1.0 if e.is_galaxy else 0.0)

    def avg(xs):
        return float(np.mean(xs)) if xs else np.nan

    m.position = avg(pos)
    m.missed_gals = avg(missed_g)
    m.missed_stars = avg(missed_s)
    m.brightness = avg(bright)
    m.color_ug, m.color_gr, m.color_ri, m.color_iz = (avg(c) for c in colors)
    m.profile = avg(gal_profile)
    m.eccentricity = avg(gal_ecc)
    m.scale = avg(gal_scale)
    m.angle = avg(gal_angle)
    m.per_source = {
        "position": pos, "brightness": bright,
        "missed_gals": missed_g, "missed_stars": missed_s,
    }
    return m
