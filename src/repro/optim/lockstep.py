"""Newton's method with a trust region, for nonconvex minimization.

The driver used for every light source (paper Section IV-D): exact Hessians
from the AD engine, step control by :func:`solve_trust_region`, standard
accept/expand/shrink logic on the predicted-vs-actual decrease ratio
(Nocedal & Wright Algorithm 4.1).  Converges in tens of iterations on the
ELBO where first-order methods need hundreds to thousands.

The paper's AVX-512 kernel evaluates the objective for many light sources
at once; to feed it, the *optimizer* must ask for many evaluations at once.
:class:`NewtonLockstep` therefore advances independent solves in a rolling
lockstep: each round serves every solve in flight with one batched
callback, then runs each solve's (cheap, per-problem) trust-region
bookkeeping until it either terminates — and leaves — or needs its next
evaluation.  New solves are admitted between rounds, so a caller with a
stream of problems keeps the batch full as others finish.  It is the only
Newton state machine in the tree: :func:`newton_trust_region_batch` admits
every problem at once and runs to the end, and :func:`newton_trust_region`
is its batch of one.

**Exactness contract.**  Problems do not interact — a batch is just a set
of solves that happen to share evaluation calls — so each problem's
iterates, accept/shrink decisions, iteration and evaluation counts, and
convergence message are the same whatever else shares its rounds and in
whichever round it was admitted, provided the batched callback returns
bit-for-bit the values a one-problem call would (the ELBO kernel
guarantees this; see :func:`repro.core.elbo.elbo_batch`).  Lockstep
batching is therefore an execution strategy, not a different algorithm:
catalogs optimized at any lane limit are bit-for-bit identical
(``tests/test_optim.py`` pins the state machine's results on fixed
problems, every early-exit branch included, alone and admitted into a
running lockstep).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.numeric import current_check
from repro.constants import TRUST_REGION_MIN_RADIUS
from repro.optim.result import OptimResult
from repro.optim.trust_region import solve_trust_region

__all__ = ["NewtonLockstep", "newton_trust_region",
           "newton_trust_region_batch"]


class _LaneState:
    """One problem's Newton trust-region state between lockstep rounds."""

    __slots__ = ("problem", "x", "f", "g", "h", "eig", "radius", "it",
                 "n_eval", "step", "predicted", "x_try", "result")

    def __init__(self, problem, x0: np.ndarray, initial_radius: float):
        #: The caller's handle, passed back to the evaluation callback.
        self.problem = problem
        self.x = np.asarray(x0, dtype=float).copy()
        self.f = None
        self.g = None
        self.h = None
        #: ``h``'s eigendecomposition, kept until ``h`` changes: a
        #: rejected step solves again with the same Hessian.
        self.eig = None
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


class NewtonLockstep:
    """A rolling lockstep of independent Newton trust-region solves.

    ``fgh_batch(problems, xs) -> [(value, gradient, hessian), ...]``
    evaluates problem handle ``problems[k]`` at ``xs[k]`` for every k, in
    one batched call.  :meth:`admit` adds a solve; :meth:`step` runs one
    round — one ``fgh_batch`` call over every solve in flight, in
    admission order — and returns the solves that finished in it.  A solve
    admitted before round ``k`` evaluates its starting point in round
    ``k``.  Every knob applies to each problem independently.
    """

    def __init__(
        self,
        fgh_batch: Callable[[list, list[np.ndarray]], list[tuple]],
        grad_tol: float = 1e-6,
        max_iter: int = 60,
        initial_radius: float = 1.0,
        max_radius: float = 16.0,
        min_radius: float = TRUST_REGION_MIN_RADIUS,
        eta_accept: float = 0.1,
        eta_expand: float = 0.75,
    ):
        self._fgh_batch = fgh_batch
        self._lanes: list[_LaneState] = []
        self.grad_tol = grad_tol
        self.max_iter = max_iter
        self.initial_radius = initial_radius
        self.max_radius = max_radius
        self.min_radius = min_radius
        self.eta_accept = eta_accept
        self.eta_expand = eta_expand

    def __len__(self) -> int:
        """Solves in flight: the lanes of the next round's call."""
        return len(self._lanes)

    @property
    def problems(self) -> list:
        """The handles of the solves in flight, in the order the next
        round's call evaluates them."""
        return [s.problem for s in self._lanes]

    def admit(self, problem, x0: np.ndarray) -> None:
        """Add a solve of ``problem`` from ``x0``; it joins the next round."""
        self._lanes.append(_LaneState(problem, x0, self.initial_radius))

    def step(self) -> list[tuple]:
        """One round: evaluate every solve in flight in one call, update
        each, and return ``(problem, OptimResult)`` for those that finished,
        in admission order.  Findings of the numeric sanitizer name a lane
        by its position in the round's call."""
        lanes = self._lanes
        if not lanes:
            return []
        outs = self._fgh_batch(
            [s.problem for s in lanes],
            [s.x if s.f is None else s.x_try for s in lanes])
        chk = current_check()
        running, finished = [], []
        for lane, (s, out) in enumerate(zip(lanes, outs)):
            if s.f is None:             # the starting point
                s.f, s.g, s.h = out
                s.n_eval = 1
            else:
                self._update(s, out, chk, lane)
            if self._advance(s):
                running.append(s)
            else:
                finished.append((s.problem, s.result))
        self._lanes = running
        return finished

    def _advance(self, s: _LaneState) -> bool:
        """Run one lane's no-evaluation bookkeeping; True when the lane
        needs an objective evaluation at ``s.x_try``."""
        while True:
            if s.it >= self.max_iter:
                s.finish(False, "iteration limit")
                return False
            gnorm = float(np.linalg.norm(s.g, ord=np.inf))
            if gnorm < self.grad_tol:
                s.finish(True, "gradient tolerance met")
                return False
            if s.radius < self.min_radius:
                s.finish(False, "trust region collapsed")
                return False
            if s.eig is None:
                s.eig = np.linalg.eigh(0.5 * (s.h + s.h.T))
            step, predicted = solve_trust_region(s.g, s.h, s.radius,
                                                 eig=s.eig)
            if predicted <= 0.0 or not np.all(np.isfinite(step)):
                s.radius *= 0.25
                s.it += 1
                continue
            s.step = step
            s.predicted = predicted
            s.x_try = s.x + step
            return True

    def _update(self, s: _LaneState, out: tuple, chk, lane: int) -> None:
        """Accept or reject a lane's trial point from its evaluation."""
        f_new, g_new, h_new = out
        s.n_eval += 1
        if chk is not None:
            chk.check_step(s.step, f_new, lane=lane)
            chk.check_reduction(s.f, f_new, s.predicted, lane=lane)
        if not np.isfinite(f_new):
            s.radius *= 0.25
        else:
            rho = (s.f - f_new) / s.predicted
            if rho >= self.eta_accept:
                s.x, s.f, s.g, s.h = s.x_try, f_new, g_new, h_new
                s.eig = None
                if (rho >= self.eta_expand
                        and np.linalg.norm(s.step) >= 0.9 * s.radius):
                    s.radius = min(s.radius * 2.0, self.max_radius)
            else:
                s.radius *= 0.25
        s.it += 1


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
    """Minimize ``len(x0s)`` independent problems with lockstep Newton:
    a :class:`NewtonLockstep` that admits every problem at once and runs
    to the end.

    ``fgh_batch(indices, xs)`` evaluates problem ``indices[k]`` at
    ``xs[k]``; ``indices`` is the ascending list of still-active problems.
    Returns one :class:`OptimResult` per problem.
    """
    engine = NewtonLockstep(fgh_batch, grad_tol, max_iter, initial_radius,
                            max_radius, min_radius, eta_accept, eta_expand)
    for i, x0 in enumerate(x0s):
        engine.admit(i, x0)
    results: list = [None] * len(x0s)
    while engine:
        for i, res in engine.step():
            results[i] = res
    return results


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
