"""Gaussian-mixture point spread functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaussians import gauss2d

__all__ = ["MixturePSF", "default_psf"]

#: FWHM -> Gaussian sigma conversion factor.
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class MixturePSF:
    """A point spread function represented as a mixture of bivariate Gaussians.

    Attributes
    ----------
    weights:
        Component weights, shape ``(K,)``; normalized to sum to one.
    means:
        Component mean offsets in pixels, shape ``(K, 2)``.
    covs:
        Component covariances, shape ``(K, 2, 2)``.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        c = np.asarray(self.covs, dtype=float)
        if w.ndim != 1 or m.shape != (w.size, 2) or c.shape != (w.size, 2, 2):
            raise ValueError("inconsistent PSF component shapes")
        # The kernel inverts every covariance from (sxx, sxy, syy), reading
        # only cov[0, 1]; reject here, naming the component, what it would
        # otherwise turn into NaN weights or a failure far downstream.
        for k in range(w.size):
            if not (np.isfinite(w[k]) and w[k] >= 0.0):
                raise ValueError("PSF component %d: weight %r must be finite "
                                 "and non-negative" % (k, float(w[k])))
            if not np.all(np.isfinite(m[k])):
                raise ValueError("PSF component %d: mean %r is not finite"
                                 % (k, m[k].tolist()))
            sxx, sxy, syx, syy = c[k].ravel()
            if not np.all(np.isfinite(c[k])):
                raise ValueError("PSF component %d: covariance %r is not "
                                 "finite" % (k, c[k].tolist()))
            if sxy != syx:
                raise ValueError("PSF component %d: covariance %r is not "
                                 "symmetric" % (k, c[k].tolist()))
            if not (sxx > 0.0 and sxx * syy - sxy * sxy > 0.0):
                raise ValueError("PSF component %d: covariance %r is not "
                                 "positive definite" % (k, c[k].tolist()))
        if not w.sum() > 0.0:
            raise ValueError("PSF weights sum to zero: every one of the %d "
                             "components has weight 0" % w.size)
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def density(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Evaluate the PSF density at pixel offsets from the source center."""
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        out = np.zeros(np.broadcast(dx, dy).shape)
        for w, mu, cov in zip(self.weights, self.means, self.covs):
            out += w * gauss2d(dx - mu[0], dy - mu[1], cov[0, 0], cov[0, 1], cov[1, 1])
        return out

    def second_moment(self) -> np.ndarray:
        """Total second-moment matrix of the PSF (about its centroid)."""
        centroid = (self.weights[:, None] * self.means).sum(axis=0)
        m = np.zeros((2, 2))
        for w, mu, cov in zip(self.weights, self.means, self.covs):
            d = mu - centroid
            m += w * (cov + np.outer(d, d))
        return m

    def fwhm(self) -> float:
        """Effective FWHM (from the geometric-mean sigma of the moments)."""
        m = self.second_moment()
        sigma = float(np.linalg.det(m)) ** 0.25
        return sigma / FWHM_TO_SIGMA

    def components(self):
        """Iterate over ``(weight, mean, (sxx, sxy, syy))`` triples."""
        for w, mu, cov in zip(self.weights, self.means, self.covs):
            yield float(w), mu, (float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))


def default_psf(fwhm: float = 3.0, wing_fraction: float = 0.15) -> MixturePSF:
    """A double-Gaussian PSF typical of SDSS imaging.

    A compact core plus a wider, low-amplitude wing (the classic
    "core + power-law wing" shape approximated by two Gaussians).

    Parameters
    ----------
    fwhm:
        Full width at half maximum of the core, in pixels (SDSS seeing is
        typically ~1.4 arcsec = ~3.5 pixels).
    wing_fraction:
        Fraction of flux in the wide component.
    """
    sigma = fwhm * FWHM_TO_SIGMA
    core = sigma ** 2 * np.eye(2)
    wing = (2.5 * sigma) ** 2 * np.eye(2)
    return MixturePSF(
        weights=np.array([1.0 - wing_fraction, wing_fraction]),
        means=np.zeros((2, 2)),
        covs=np.stack([core, wing]),
    )
