"""Bijectors mapping free real parameters to constrained domains.

Each bijector provides two views:

- ``forward_np`` / ``inverse_np`` — plain float/ndarray math, used when
  initializing the optimizer from a catalog or reading results back out.
- ``forward_d012_vec`` — the forward map with its first two derivatives
  in closed form.  The fused ELBO kernel chains these (through
  :func:`logit_box_d012` and :func:`softmax_fixed_last_d012_stacked`) so
  that gradients/Hessians are taken with respect to the *free* parameters
  (the vector Newton's method actually steps in).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.constants import EXP_ARG_LIMIT, UNIT_INTERVAL_EDGE

__all__ = [
    "Identity",
    "LogitBox",
    "logit_box_d012",
    "softmax_fixed_last",
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

    def forward_d012_vec(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value and first two derivatives of the forward map, elementwise
        over an array of free values: ``y = lo + r s(u)`` with ``s`` the
        logistic gives ``y' = r s(1-s)`` and ``y'' = r s(1-s)(1-2s)``."""
        return logit_box_d012(u, self.lo, self.hi - self.lo)

    def __repr__(self):
        return "LogitBox(%g, %g)" % (self.lo, self.hi)


def logit_box_d012(u, lo, span) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and first two derivatives of ``lo + span * logistic(u)``,
    elementwise, for ``lo`` and ``span`` that broadcast against ``u``.

    With per-element ``lo`` / ``span`` vectors this pushes many boxes
    through one pass: the fused kernel maps every :class:`LogitBox`
    coordinate of a stacked free matrix at once.  Each element gets the
    arithmetic :meth:`LogitBox.forward_d012_vec` gives it (which is this
    function with scalar bounds), so the two agree bit for bit.
    """
    u = np.maximum(np.asarray(u, dtype=float), -EXP_ARG_LIMIT)
    s = 1.0 / (1.0 + np.exp(-u))
    d1 = span * s * (1.0 - s)
    return lo + span * s, d1, d1 * (1.0 - 2.0 * s)


def softmax_fixed_last(free: np.ndarray) -> np.ndarray:
    """Map ``n-1`` free logits to an ``n``-point simplex with the last logit
    pinned to zero (avoids the rank deficiency of a full softmax, which would
    make the Newton Hessian singular along the constant direction)."""
    free = np.asarray(free, dtype=float)
    logits = np.concatenate([free, [0.0]])
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


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


@functools.lru_cache(maxsize=None)
def _softmax_deltas(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker deltas of an ``n``-point fixed-last softmax: ``(n, n-1)``
    (the pinned logit has no column) and ``(n-1, n-1)``, read-only."""
    delta = np.zeros((n, n - 1))
    delta[:n - 1, :] = np.eye(n - 1)
    eye = np.eye(n - 1)
    delta.flags.writeable = False
    eye.flags.writeable = False
    return delta, eye


def softmax_fixed_last_d012_stacked(
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, Jacobian, and Hessian of :func:`softmax_fixed_last_stacked`:
    ``(G, n-1)`` free logits ``t`` to ``(kappa (G, n), jac (G, n, n-1),
    hess (G, n, n-1, n-1))``, every lane independent of the others.

    Closed-form softmax derivatives — the chain the fused KL kernel uses:
    ``d kappa_d / d t_j = kappa_d (delta_dj - kappa_j)`` and
    ``d^2 kappa_d / d t_j d t_l = kappa_d [(delta_dj - kappa_j)
    (delta_dl - kappa_l) - kappa_j (delta_jl - kappa_l)]`` (the pinned
    logit simply has no column).
    """
    kappa = softmax_fixed_last_stacked(free)
    n = kappa.shape[1]
    kj = kappa[:, :-1]
    delta, eye = _softmax_deltas(n)
    u = delta - kj[:, None, :]
    jac = kappa[:, :, None] * u
    v = eye - kj[:, None, :]
    hess = (kappa[:, :, None, None]
            * (u[:, :, :, None] * u[:, :, None, :]
               - kj[:, None, :, None] * v[:, None, :, :]))
    return kappa, jac, hess


def softmax_fixed_last_inverse(probs: np.ndarray) -> np.ndarray:
    """Recover the ``n-1`` free logits from simplex probabilities."""
    probs = np.clip(np.asarray(probs, dtype=float), _EDGE, None)
    probs = probs / probs.sum()
    return np.log(probs[:-1] / probs[-1])
