"""Point spread function modeling.

SDSS models the PSF of each field as a small mixture of bivariate Gaussians;
Celeste adopts the same representation because it composes analytically with
the Gaussian-mixture galaxy profiles (convolution = covariance addition).
Each field carries its PSF as given (the synthetic surveys draw one per
field); nothing here fits a PSF from star stamps.
"""

from repro.psf.gmm import MixturePSF, default_psf

__all__ = ["MixturePSF", "default_psf"]
