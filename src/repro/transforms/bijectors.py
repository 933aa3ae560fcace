"""Bijectors mapping free real parameters to constrained domains.

Each bijector provides two views:

- ``forward_np`` / ``inverse_np`` — plain float/ndarray math, used when
  initializing the optimizer from a catalog or reading results back out.
- ``forward_d012`` / ``forward_d012_vec`` — the forward map with its first
  two derivatives in closed form, which the fused ELBO kernel chains so
  that gradients/Hessians are taken with respect to the *free* parameters
  (the vector Newton's method actually steps in).
"""

from __future__ import annotations

import numpy as np

from repro.constants import EXP_ARG_LIMIT, UNIT_INTERVAL_EDGE

__all__ = [
    "Identity",
    "LogitBox",
    "softmax_fixed_last",
    "softmax_fixed_last_d012",
    "softmax_fixed_last_d012_stacked",
    "softmax_fixed_last_inverse",
    "softmax_fixed_last_stacked",
]

#: Clip probabilities this far away from {0, 1} when inverting logistic maps,
#: so catalog initializations at the boundary stay finite.
_EDGE = UNIT_INTERVAL_EDGE


class Identity:
    """The trivial bijector (unconstrained parameters)."""

    def forward_np(self, u):
        return u

    def inverse_np(self, y):
        return y


class LogitBox:
    """Maps R onto the open interval ``(lo, hi)`` via a scaled logistic."""

    def __init__(self, lo: float, hi: float):
        if not hi > lo:
            raise ValueError("need hi > lo, got (%g, %g)" % (lo, hi))
        self.lo = float(lo)
        self.hi = float(hi)

    def forward_np(self, u):
        # Clamping the logit at -EXP_ARG_LIMIT keeps exp finite (saturating
        # at lo) instead of overflowing to inf; bitwise inert for any u the
        # optimizer can reach, since exp(709) is the last finite power.
        u = np.maximum(np.asarray(u, dtype=float), -EXP_ARG_LIMIT)
        return self.lo + (self.hi - self.lo) / (1.0 + np.exp(-u))

    def inverse_np(self, y):
        frac = (np.asarray(y, dtype=float) - self.lo) / (self.hi - self.lo)  # det: ignore[NUM206] -- hi > lo is validated in the constructor
        frac = np.clip(frac, _EDGE, 1.0 - _EDGE)
        return np.log(frac / (1.0 - frac))

    def forward_d012(self, u: float) -> tuple[float, float, float]:
        """Value and first two derivatives of the forward map at ``u``.

        The closed-form chain used by the fused ELBO kernel
        (:mod:`repro.core.kernel`), which hand-derives every bijector
        instead of differentiating through an expression graph:
        ``y = lo + r s(u)`` with ``s`` the logistic gives
        ``y' = r s(1-s)`` and ``y'' = r s(1-s)(1-2s)``.
        """
        v, d1, d2 = self.forward_d012_vec(float(u))
        return float(v), float(d1), float(d2)

    def forward_d012_vec(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`forward_d012` over an array of free values.

        Used by the fused KL kernel, which pushes a whole color block
        (means/variances of every color of one type) through the bijector
        in one shot.
        """
        u = np.maximum(np.asarray(u, dtype=float), -EXP_ARG_LIMIT)
        s = 1.0 / (1.0 + np.exp(-u))
        r = self.hi - self.lo
        d1 = r * s * (1.0 - s)
        return self.lo + r * s, d1, d1 * (1.0 - 2.0 * s)

    def __repr__(self):
        return "LogitBox(%g, %g)" % (self.lo, self.hi)


def softmax_fixed_last(free: np.ndarray) -> np.ndarray:
    """Map ``n-1`` free logits to an ``n``-point simplex with the last logit
    pinned to zero (avoids the rank deficiency of a full softmax, which would
    make the Newton Hessian singular along the constant direction)."""
    free = np.asarray(free, dtype=float)
    logits = np.concatenate([free, [0.0]])
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


def softmax_fixed_last_d012(
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, Jacobian, and Hessian of :func:`softmax_fixed_last`.

    For ``n-1`` free logits ``t`` (last logit pinned to zero) returns
    ``(kappa (n,), jac (n, n-1), hess (n, n-1, n-1))`` with
    ``jac[d, j] = d kappa_d / d t_j`` and
    ``hess[d, j, l] = d^2 kappa_d / d t_j d t_l``.  Closed-form softmax
    derivatives — the chain the fused KL kernel uses:

    ``d kappa_d / d t_j = kappa_d (delta_dj - kappa_j)`` and
    ``d^2 kappa_d / d t_j d t_l = kappa_d [(delta_dj - kappa_j)
    (delta_dl - kappa_l) - kappa_j (delta_jl - kappa_l)]`` (the pinned
    logit simply has no column).
    """
    kappa, jac, hess = softmax_fixed_last_d012_stacked(
        np.asarray(free, dtype=float)[None])
    return kappa[0], jac[0], hess[0]


def softmax_fixed_last_stacked(free: np.ndarray) -> np.ndarray:
    """Lane-stacked :func:`softmax_fixed_last`: ``(G, n-1)`` free logits to
    ``(G, n)`` simplex rows.  Every per-lane operation is the elementwise
    image of the scalar one (the max shift and the normalizing sum reduce
    over the non-lane axis), so each row is bit-for-bit the scalar result —
    the contract the batched KL kernel relies on."""
    # Contiguity matters for bitwise parity, not just speed: NumPy's
    # pairwise-summation grouping for the normalizing sum is only the
    # scalar path's grouping when each row is reduced through the
    # contiguous inner loop (a strided row falls back to sequential
    # accumulation, changing the last bits for n >= 8).
    free = np.ascontiguousarray(free, dtype=float)
    logits = np.concatenate([free, np.zeros((free.shape[0], 1))], axis=1)
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def softmax_fixed_last_d012_stacked(
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lane-stacked :func:`softmax_fixed_last_d012` (which is its one-lane
    case): ``(G, n-1)`` free logits to ``(kappa (G, n), jac (G, n, n-1),
    hess (G, n, n-1, n-1))``, every lane independent of the others."""
    kappa = softmax_fixed_last_stacked(free)
    n = kappa.shape[1]
    kj = kappa[:, :-1]
    delta = np.zeros((n, n - 1))
    delta[:n - 1, :] = np.eye(n - 1)
    u = delta[None] - kj[:, None, :]
    jac = kappa[:, :, None] * u
    v = np.eye(n - 1)[None] - kj[:, None, :]
    hess = (kappa[:, :, None, None]
            * (u[:, :, :, None] * u[:, :, None, :]
               - kj[:, None, :, None] * v[:, None, :, :]))
    return kappa, jac, hess


def softmax_fixed_last_inverse(probs: np.ndarray) -> np.ndarray:
    """Recover the ``n-1`` free logits from simplex probabilities."""
    probs = np.clip(np.asarray(probs, dtype=float), _EDGE, None)
    probs = probs / probs.sum()
    return np.log(probs[:-1] / probs[-1])
