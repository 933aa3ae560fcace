"""Posterior uncertainty summaries.

"For many downstream analyses, accurately quantifying the uncertainty of
parameters' point estimates is as important as the accuracy of the point
estimates themselves" (paper, Section I).  Celeste's variational posterior
makes this trivial to read off: the type probability is the Bernoulli
parameter; brightness and colors have closed-form log-normal / normal
posterior moments and credible intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import BANDS, GALAXY, STAR, TYPE_PROB_EDGE
from repro.core.fluxes import COLOR_COEFFS
from repro.core.params import SourceParams

__all__ = ["PosteriorSummary", "posterior_summary"]


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior moments and intervals for one source.

    Attributes
    ----------
    prob_galaxy:
        Posterior probability of the galaxy hypothesis.
    type_entropy:
        Entropy (nats) of the type posterior — high for the genuinely
        ambiguous sources (e.g. quasars) the paper discusses.
    flux_mean, flux_sd:
        Posterior mean/sd of the reference-band flux (type-marginal),
        in nanomaggies.
    flux_interval:
        Central credible interval for the reference-band flux under the
        dominant type hypothesis.
    color_mean, color_sd:
        Posterior moments of the four colors under the dominant type.
    band_flux_mean:
        Posterior mean flux in every band (dominant type).
    level:
        Credibility level of the interval.
    """

    prob_galaxy: float
    type_entropy: float
    flux_mean: float
    flux_sd: float
    flux_interval: tuple[float, float]
    color_mean: np.ndarray
    color_sd: np.ndarray
    band_flux_mean: np.ndarray
    level: float


def _type_entropy(p: float) -> float:
    p = float(np.clip(p, TYPE_PROB_EDGE, 1 - TYPE_PROB_EDGE))
    return float(-(p * np.log(p) + (1 - p) * np.log(1 - p)))


def posterior_summary(params: SourceParams, level: float = 0.95) -> PosteriorSummary:
    """Summarize the variational posterior of one source."""
    pg = float(params.prob_galaxy)
    dominant = GALAXY if pg >= 0.5 else STAR

    # Type-marginal flux moments: mixture of two log-normals.
    means = np.exp(params.r1 + 0.5 * params.r2)
    seconds = np.exp(2.0 * params.r1 + 2.0 * params.r2)
    w = np.array([1.0 - pg, pg])
    flux_mean = float(w @ means)
    flux_var = float(w @ seconds - flux_mean ** 2)

    # Imported where it is used: repro.core is on every node-worker's
    # import graph, and scipy.stats alone costs a seat ~0.4 s of boot.
    from scipy.stats import norm

    z = norm.ppf(0.5 + level / 2.0)
    m, v = params.r1[dominant], params.r2[dominant]
    interval = (
        float(np.exp(m - z * np.sqrt(v))),
        float(np.exp(m + z * np.sqrt(v))),
    )

    band_flux = np.empty(len(BANDS))
    for b in range(len(BANDS)):
        coeff = COLOR_COEFFS[b]
        mb = m + float(coeff @ params.c1[:, dominant])
        vb = v + float((coeff ** 2) @ params.c2[:, dominant])
        band_flux[b] = np.exp(mb + 0.5 * vb)

    return PosteriorSummary(
        prob_galaxy=pg,
        type_entropy=_type_entropy(pg),
        flux_mean=flux_mean,
        flux_sd=float(np.sqrt(max(flux_var, 0.0))),
        flux_interval=interval,
        color_mean=params.c1[:, dominant].copy(),
        color_sd=np.sqrt(params.c2[:, dominant]),
        band_flux_mean=band_flux,
        level=level,
    )
