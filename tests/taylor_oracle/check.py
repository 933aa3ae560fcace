"""Finite-difference verification of Taylor-mode derivatives.

Every derivative used by the inference engine is validated against central
finite differences in the test suite; these helpers implement the comparison.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from taylor_oracle.taylor import Taylor, seed

__all__ = [
    "finite_difference_gradient",
    "finite_difference_hessian",
    "check_gradient",
    "check_hessian",
]


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


def finite_difference_hessian(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference Hessian of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    h = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        for j in range(i, n):
            pp = x.copy(); pp[i] += eps; pp[j] += eps
            pm = x.copy(); pm[i] += eps; pm[j] -= eps
            mp = x.copy(); mp[i] -= eps; mp[j] += eps
            mm = x.copy(); mm[i] -= eps; mm[j] -= eps
            h[i, j] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * eps * eps)
            h[j, i] = h[i, j]
    _ = f0
    return h


def _evaluate(fn: Callable[[Sequence[Taylor]], Taylor], x: np.ndarray, order: int) -> Taylor:
    out = fn(seed(x, order=order))
    if not isinstance(out, Taylor):
        raise TypeError("function under test must return a Taylor scalar")
    if out.val.shape != ():
        raise ValueError("function under test must return a scalar")
    return out


def check_gradient(
    fn: Callable[[Sequence[Taylor]], Taylor],
    x: np.ndarray,
    rtol: float = 1e-5,
    atol: float = 1e-7,
    eps: float = 1e-6,
) -> None:
    """Assert that ``fn``'s Taylor gradient matches finite differences.

    ``fn`` maps a list of seeded Taylor variables to a Taylor scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    out = _evaluate(fn, x, order=1)
    ad = out.gradient(x.size)

    def plain(v: np.ndarray) -> float:
        return float(fn(seed(v, order=1)).val)

    fd = finite_difference_gradient(plain, x, eps=eps)
    np.testing.assert_allclose(ad, fd, rtol=rtol, atol=atol)


def check_hessian(
    fn: Callable[[Sequence[Taylor]], Taylor],
    x: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-5,
    eps: float = 1e-4,
) -> None:
    """Assert that ``fn``'s Taylor Hessian matches finite differences and is
    symmetric."""
    x = np.asarray(x, dtype=np.float64)
    out = _evaluate(fn, x, order=2)
    ad = out.hessian(x.size)
    np.testing.assert_allclose(ad, np.swapaxes(ad, 0, 1), rtol=1e-9, atol=1e-9)

    def plain(v: np.ndarray) -> float:
        return float(fn(seed(v, order=1)).val)

    fd = finite_difference_hessian(plain, x, eps=eps)
    np.testing.assert_allclose(ad, fd, rtol=rtol, atol=atol)
