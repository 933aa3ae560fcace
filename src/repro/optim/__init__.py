"""Numerical optimization substrate.

The paper optimizes each source's parameters "to machine tolerance by
Newton's method, with step sizes controlled by a trust region" (Section
IV-D), using exact Hessians; each trust-region iteration performs an
eigendecomposition and several Cholesky factorizations (Section VI-B).
The L-BFGS baseline is included because the paper quantifies Newton's
advantage against it (tens of iterations vs. up to 2000).
"""

from repro.optim.trust_region import solve_trust_region
from repro.optim.lockstep import (
    NewtonLockstep,
    newton_trust_region,
    newton_trust_region_batch,
)
from repro.optim.lbfgs import lbfgs_minimize
from repro.optim.result import OptimResult

__all__ = [
    "solve_trust_region",
    "NewtonLockstep",
    "newton_trust_region",
    "newton_trust_region_batch",
    "lbfgs_minimize",
    "OptimResult",
]
