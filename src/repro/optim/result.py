"""Shared optimization result container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OptimResult"]


@dataclass
class OptimResult:
    """Outcome of a numerical minimization.

    Attributes
    ----------
    x:
        Final iterate.
    fun:
        Final objective value.
    grad:
        Final gradient.
    n_iterations:
        Outer iterations performed.
    n_evaluations:
        Objective evaluations (includes rejected trust-region steps and line
        search probes).
    converged:
        Whether the gradient tolerance was met.
    message:
        Human-readable status.
    """

    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iterations: int
    n_evaluations: int
    converged: bool
    message: str = ""
