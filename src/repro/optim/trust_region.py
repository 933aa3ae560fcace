"""The trust-region subproblem, solved via eigendecomposition.

Minimize the local quadratic model ``g.p + p.H.p / 2`` subject to
``|p| <= radius``, where ``H`` may be indefinite (the ELBO is nonconvex).
Following the classic Moré–Sorensen analysis (Nocedal & Wright §4.3, the
reference the paper cites), the minimizer is ``p(nu) = -(H + nu I)^{-1} g``
for the unique ``nu >= max(0, -lambda_min)`` making ``|p(nu)| = radius``
(or ``nu = 0`` when the Newton step is interior).  We work in the eigenbasis
of ``H`` — the paper notes an eigendecomposition per iteration — which makes
the 1-D secular equation in ``nu`` trivially solvable by bisection/Newton,
including the hard case.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEGENERATE_STEP_NORM, HARD_CASE_GRAD_TOL

__all__ = ["solve_trust_region"]


def solve_trust_region(
    grad: np.ndarray,
    hess: np.ndarray,
    radius: float,
    tol: float = 1e-10,
    max_iter: int = 120,
    *,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the trust-region subproblem.

    ``eig`` is ``np.linalg.eigh`` of ``hess``'s symmetric part, or ``None``
    to compute it here: all of the work that depends on ``hess`` alone, so
    a caller solving again with the same Hessian (a rejected step) can pass
    it back instead of paying for it twice.

    Returns ``(step, predicted_decrease)`` with ``predicted_decrease >= 0``.
    """
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    n = grad.size
    if radius <= 0:
        raise ValueError("trust radius must be positive")

    if eig is None:
        eig = np.linalg.eigh(0.5 * (hess + hess.T))
    evals, evecs = eig
    g_tilde = evecs.T @ grad
    lam_min = float(evals[0])

    def step_for(nu: float) -> np.ndarray:
        return -g_tilde / (evals + nu)

    # Interior Newton step when H is positive definite and the step fits.
    if lam_min > tol:
        p = step_for(0.0)
        if np.linalg.norm(p) <= radius:
            step = evecs @ p
            pred = -(grad @ step + 0.5 * step @ hess @ step)
            return step, max(pred, 0.0)

    nu_floor = max(0.0, -lam_min) + tol

    # Hard case: gradient (numerically) orthogonal to the bottom eigenspace
    # and the boundary unreachable by shrinking nu towards the floor.
    bottom = np.abs(evals - lam_min) <= 1e-10 * max(1.0, abs(lam_min))
    if np.all(np.abs(g_tilde[bottom]) < HARD_CASE_GRAD_TOL):
        p = -g_tilde / np.where(bottom, np.inf, evals - lam_min + tol)
        norm_p = np.linalg.norm(p)
        if norm_p < radius:
            # Move along the bottom eigenvector to the boundary.
            extra = np.sqrt(max(radius ** 2 - norm_p ** 2, 0.0))
            direction = np.zeros(n)
            direction[np.argmax(bottom)] = 1.0
            p = p + extra * direction
            step = evecs @ p
            pred = -(grad @ step + 0.5 * step @ hess @ step)
            return step, max(pred, 0.0)

    # Secular equation: find nu with |p(nu)| = radius by safeguarded Newton
    # on phi(nu) = 1/|p| - 1/radius (standard reformulation; nearly linear).
    lo = nu_floor
    hi = max(nu_floor * 2, 1.0)
    while np.linalg.norm(step_for(hi)) > radius and hi < 1e16:
        hi *= 4.0
    nu = 0.5 * (lo + hi)
    for _ in range(max_iter):
        p = step_for(nu)
        norm_p = np.linalg.norm(p)
        if norm_p < DEGENERATE_STEP_NORM:
            break
        phi = 1.0 / norm_p - 1.0 / radius
        if abs(phi) < tol / radius:
            break
        # d|p|/dnu = -(sum g^2/(l+nu)^3)/|p|
        dnorm = -np.sum(g_tilde ** 2 / (evals + nu) ** 3) / norm_p
        dphi = -dnorm / norm_p ** 2
        if phi > 0:       # step too short -> decrease nu
            hi = min(hi, nu)
        else:             # step too long -> increase nu
            lo = max(lo, nu)
        if dphi != 0.0:  # det: ignore[NUM205] -- exact-zero sentinel guarding the Newton division below, not a convergence tolerance
            nu_newton = nu - phi / dphi
        else:
            nu_newton = 0.5 * (lo + hi)
        nu = nu_newton if lo < nu_newton < hi else 0.5 * (lo + hi)

    p = step_for(nu)
    norm_p = np.linalg.norm(p)
    if norm_p > radius:
        p *= radius / norm_p
    step = evecs @ p
    pred = -(grad @ step + 0.5 * step @ hess @ step)
    return step, max(pred, 0.0)
