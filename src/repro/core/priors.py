"""Prior distributions over catalog entries.

The model places a Bernoulli prior on source type (parameter Phi), a
log-normal prior on reference-band brightness per type (Upsilon), and a
Gaussian-mixture prior on the 4-vector of colors per type (Xi, with
``NUM_COLOR_COMPONENTS`` diagonal components).  These hyperparameters are
"learned from preexisting astronomical catalogs" (paper, Section III);
every run uses the fixed :func:`default_priors`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    GALAXY,
    NUM_COLOR_COMPONENTS,
    NUM_COLORS,
    NUM_TYPES,
    STAR,
)

__all__ = ["Priors", "default_priors"]


@dataclass(frozen=True)
class Priors:
    """Hyperparameters of the generative model (Phi, Upsilon, Xi).

    Attributes
    ----------
    prob_galaxy:
        Phi — prior probability that a source is a galaxy.
    r_loc, r_var:
        Upsilon — mean and variance of log reference-band flux (nanomaggies),
        indexed by type ``[STAR, GALAXY]``.
    k_weights:
        Xi mixture weights, shape ``(NUM_COLOR_COMPONENTS, NUM_TYPES)``.
    c_mean:
        Xi component means, shape ``(NUM_COLORS, NUM_COLOR_COMPONENTS,
        NUM_TYPES)``.
    c_var:
        Xi component (diagonal) variances, same shape as ``c_mean``.
    """

    prob_galaxy: float
    r_loc: np.ndarray
    r_var: np.ndarray
    k_weights: np.ndarray
    c_mean: np.ndarray
    c_var: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.prob_galaxy < 1.0:
            raise ValueError("prob_galaxy must be in (0, 1)")
        for name, arr, shape in [
            ("r_loc", self.r_loc, (NUM_TYPES,)),
            ("r_var", self.r_var, (NUM_TYPES,)),
            ("k_weights", self.k_weights, (NUM_COLOR_COMPONENTS, NUM_TYPES)),
            ("c_mean", self.c_mean, (NUM_COLORS, NUM_COLOR_COMPONENTS, NUM_TYPES)),
            ("c_var", self.c_var, (NUM_COLORS, NUM_COLOR_COMPONENTS, NUM_TYPES)),
        ]:
            a = np.asarray(arr, dtype=float)
            if a.shape != shape:
                raise ValueError("%s must have shape %r, got %r" % (name, shape, a.shape))
            object.__setattr__(self, name, a)
        if np.any(self.r_var <= 0) or np.any(self.c_var <= 0):
            raise ValueError("prior variances must be positive")
        w = self.k_weights
        if np.any(w < 0) or not np.allclose(w.sum(axis=0), 1.0, atol=1e-8):
            raise ValueError("k_weights columns must be simplex points")


def default_priors() -> Priors:
    """Reasonable hyperparameters mimicking SDSS population statistics.

    Stars are bluer on average and have tighter color loci than galaxies;
    galaxy fluxes run slightly brighter with greater dispersion.  The
    mixture components fan out along the stellar locus / galaxy red sequence.
    """
    rng = np.random.default_rng(20180131)
    k_w = np.full((NUM_COLOR_COMPONENTS, NUM_TYPES), 1.0 / NUM_COLOR_COMPONENTS)

    # Stellar locus: colors drift from blue to red across components.  The
    # star and galaxy loci are well separated (as in SDSS, where the stellar
    # locus and the galaxy red sequence/blue cloud occupy distinct color
    # regions) — color is the main type discriminator for unresolved sources.
    t = np.linspace(-1.0, 1.0, NUM_COLOR_COMPONENTS)
    c_mean = np.zeros((NUM_COLORS, NUM_COLOR_COMPONENTS, NUM_TYPES))
    base_star = np.array([1.5, 1.1, 0.25, 0.05])
    slope_star = np.array([0.7, 0.45, 0.2, 0.1])
    base_gal = np.array([0.7, 0.45, 0.6, 0.45])
    slope_gal = np.array([0.4, 0.3, 0.25, 0.2])
    for d in range(NUM_COLOR_COMPONENTS):
        c_mean[:, d, STAR] = base_star + slope_star * t[d]
        c_mean[:, d, GALAXY] = base_gal + slope_gal * t[d]
    c_mean += rng.normal(0.0, 0.02, c_mean.shape)  # break exact collinearity

    c_var = np.empty_like(c_mean)
    c_var[:, :, STAR] = 0.05
    c_var[:, :, GALAXY] = 0.08

    return Priors(
        prob_galaxy=0.5,
        r_loc=np.array([0.6, 1.0]),   # log nmgy: ~1.8 / ~2.7 nmgy typical
        r_var=np.array([1.4, 1.2]),
        k_weights=k_w,
        c_mean=c_mean,
        c_var=c_var,
    )
