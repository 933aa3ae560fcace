"""Newton's method with a trust region, for nonconvex minimization.

The driver used for every light source (paper Section IV-D): exact Hessians
from the AD engine, step control by :func:`solve_trust_region`, standard
accept/expand/shrink logic on the predicted-vs-actual decrease ratio
(Nocedal & Wright Algorithm 4.1).  Converges in tens of iterations on the
ELBO where first-order methods need hundreds to thousands.

The paper's AVX-512 kernel evaluates the objective for many light sources
at once; to feed it, the *optimizer* must ask for many evaluations at once.
:func:`newton_trust_region_batch` therefore advances ``B`` independent
solves in lockstep: each round, every still-active problem runs its (cheap,
per-problem) trust-region bookkeeping until it either terminates or needs
an objective evaluation, and all requested evaluations are then served by
one batched callback.  It is the only Newton state machine in the tree;
:func:`newton_trust_region` is its batch of one.

**Exactness contract.**  Problems do not interact — a batch is just a set
of solves that happen to share evaluation sweeps — so each problem's
iterates, accept/shrink decisions, iteration and evaluation counts, and
convergence message are the same whatever else shares its batch, provided
the batched callback returns bit-for-bit the values a one-problem call
would (the ELBO backends guarantee this; see
:meth:`repro.core.elbo.ElboBackend.evaluate_batch`).  Lockstep batching is
therefore an execution strategy, not a different algorithm: catalogs
optimized at any lane limit are bit-for-bit identical
(``tests/test_optim.py`` pins the state machine's results on fixed
problems, every early-exit branch included).  Convergence of one problem
only shrinks the next round's evaluation batch (the caller sees the
shrinking active set through the callback's index argument and may repack
its compiled evaluation state whenever occupancy drops).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.numeric import current_check
from repro.constants import TRUST_REGION_MIN_RADIUS
from repro.optim.result import OptimResult
from repro.optim.trust_region import solve_trust_region

__all__ = ["newton_trust_region", "newton_trust_region_batch"]


class _LaneState:
    """One problem's Newton trust-region state between lockstep rounds."""

    __slots__ = ("index", "x", "f", "g", "h", "radius", "it", "n_eval",
                 "step", "predicted", "x_try", "result")

    def __init__(self, index: int, x0: np.ndarray, initial_radius: float):
        self.index = index
        self.x = np.asarray(x0, dtype=float).copy()
        self.f = None
        self.g = None
        self.h = None
        self.radius = float(initial_radius)
        self.it = 0
        self.n_eval = 0
        self.step = None
        self.predicted = None
        self.x_try = None
        self.result: OptimResult | None = None

    def finish(self, converged: bool, message: str) -> None:
        self.result = OptimResult(self.x, self.f, self.g, self.it,
                                  self.n_eval, converged, message)


def newton_trust_region_batch(
    fgh_batch: Callable[[list[int], list[np.ndarray]], list[tuple]],
    x0s: list[np.ndarray],
    grad_tol: float = 1e-6,
    max_iter: int = 60,
    initial_radius: float = 1.0,
    max_radius: float = 16.0,
    min_radius: float = TRUST_REGION_MIN_RADIUS,
    eta_accept: float = 0.1,
    eta_expand: float = 0.75,
) -> list[OptimResult]:
    """Minimize ``len(x0s)`` independent problems with lockstep Newton.

    Parameters
    ----------
    fgh_batch:
        Callable ``fgh_batch(indices, xs) -> [(value, gradient, hessian),
        ...]`` evaluating problem ``indices[k]`` at ``xs[k]`` for every k,
        in one batched sweep.  ``indices`` is the ascending list of
        still-active problems, so implementations can repack per-batch
        state as lanes drop out.
    x0s:
        One starting point per problem.
    grad_tol:
        Convergence threshold on the infinity norm of the gradient.

    Every knob applies to each problem independently.  Returns one
    :class:`OptimResult` per problem.
    """
    lanes = [_LaneState(i, x0, initial_radius) for i, x0 in enumerate(x0s)]
    if not lanes:
        return []

    def advance(s: _LaneState) -> bool:
        """Run one lane's no-evaluation bookkeeping; True when the lane
        needs an objective evaluation at ``s.x_try``."""
        while True:
            if s.it >= max_iter:
                s.finish(False, "iteration limit")
                return False
            gnorm = float(np.linalg.norm(s.g, ord=np.inf))
            if gnorm < grad_tol:
                s.finish(True, "gradient tolerance met")
                return False
            if s.radius < min_radius:
                s.finish(False, "trust region collapsed")
                return False
            step, predicted = solve_trust_region(s.g, s.h, s.radius)
            if predicted <= 0.0 or not np.all(np.isfinite(step)):
                s.radius *= 0.25
                s.it += 1
                continue
            s.step = step
            s.predicted = predicted
            s.x_try = s.x + step
            return True

    # Round zero: every problem evaluates its starting point.
    idx = list(range(len(lanes)))
    for s, out in zip(lanes, fgh_batch(idx, [s.x for s in lanes])):
        s.f, s.g, s.h = out
        s.n_eval = 1

    while True:
        pending = [s for s in lanes if s.result is None and advance(s)]
        if not pending:
            break
        outs = fgh_batch([s.index for s in pending],
                         [s.x_try for s in pending])
        chk = current_check()
        for s, (f_new, g_new, h_new) in zip(pending, outs):
            s.n_eval += 1
            if chk is not None:
                chk.check_step(s.step, f_new, lane=s.index)
                chk.check_reduction(s.f, f_new, s.predicted, lane=s.index)
            if not np.isfinite(f_new):
                s.radius *= 0.25
            else:
                rho = (s.f - f_new) / s.predicted
                if rho >= eta_accept:
                    s.x, s.f, s.g, s.h = s.x_try, f_new, g_new, h_new
                    if (rho >= eta_expand
                            and np.linalg.norm(s.step) >= 0.9 * s.radius):
                        s.radius = min(s.radius * 2.0, max_radius)
                else:
                    s.radius *= 0.25
            s.it += 1

    return [s.result for s in lanes]


def newton_trust_region(
    fgh: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    x0: np.ndarray,
    grad_tol: float = 1e-6,
    max_iter: int = 60,
    initial_radius: float = 1.0,
    max_radius: float = 16.0,
    min_radius: float = TRUST_REGION_MIN_RADIUS,
    eta_accept: float = 0.1,
    eta_expand: float = 0.75,
) -> OptimResult:
    """Minimize one smooth nonconvex function with exact second order info:
    the batch of one of :func:`newton_trust_region_batch`, with ``fgh``
    returning ``(value, gradient, hessian)`` at a point."""
    return newton_trust_region_batch(
        lambda _, xs: [fgh(xs[0])], [x0], grad_tol, max_iter, initial_radius,
        max_radius, min_radius, eta_accept, eta_expand)[0]
