"""Bijective reparameterizations between free (unconstrained) and canonical
(constrained) variational parameters.

Celeste optimizes a transformed, unconstrained parameter vector so that
Newton steps never leave the feasible region (probabilities in the simplex,
variances positive, axis ratios in (0, 1)).  The fused ELBO kernel chains
the transforms' closed-form first and second derivatives.
"""

from repro.transforms.bijectors import (
    Identity,
    LogitBox,
    softmax_fixed_last,
    softmax_fixed_last_inverse,
)

__all__ = [
    "Identity",
    "LogitBox",
    "softmax_fixed_last",
    "softmax_fixed_last_inverse",
]
