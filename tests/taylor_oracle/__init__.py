"""The Taylor-mode reference ELBO: the oracle the fused kernel is tested
against.

The production objective (:mod:`repro.core.kernel`) hand-derives every
derivative.  This package computes the same objective the mechanical way,
so the two can be compared:

- :mod:`taylor_oracle.taylor` — vectorized forward-mode automatic
  differentiation with sparse indices.  A :class:`Taylor` carries a value
  array, a gradient block over a *sparse set of global parameter indices*,
  and (optionally) an exact dense Hessian block over the same indices;
  binary operations take the union of the operands' index sets, so a
  galaxy-profile density that depends only on position and shape never
  pays for derivatives with respect to flux or color.
- :mod:`taylor_oracle.check` — central finite differences, which validate
  the engine itself.
- :mod:`taylor_oracle.model` — the model's building blocks in Taylor mode:
  seeded canonical parameters, bijectors, the WCS map, band-flux moments,
  bivariate Gaussians.
- :mod:`taylor_oracle.elbo` — the whole single-source ELBO (pixel term
  plus KL terms) as one Taylor expression.

Nothing under ``src/`` imports this package; the parity tests
(``tests/test_elbo_backends.py``, ``tests/test_elbo_batch.py``) do.
"""

from taylor_oracle.taylor import (
    Taylor,
    constant,
    expand_dims,
    lift,
    seed,
    texp,
    tlog,
    tlog1p,
    tsqrt,
    tsquare,
    tsin,
    tcos,
    tsum,
)
from taylor_oracle.check import (
    finite_difference_gradient,
    finite_difference_hessian,
    check_gradient,
    check_hessian,
)

__all__ = [
    "Taylor",
    "constant",
    "expand_dims",
    "lift",
    "seed",
    "texp",
    "tlog",
    "tlog1p",
    "tsqrt",
    "tsquare",
    "tsin",
    "tcos",
    "tsum",
    "finite_difference_gradient",
    "finite_difference_hessian",
    "check_gradient",
    "check_hessian",
]
