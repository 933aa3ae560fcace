"""Limited-memory BFGS with backtracking line search.

The baseline the paper compares against (Section IV-D): "while L-BFGS is a
robust and widely used optimization method, it struggles with the objective
function for our problem, taking up to 2000 iterations to converge."  We
implement the standard two-loop recursion (Nocedal & Wright Algorithm 7.4)
with an Armijo backtracking line search and gradient-only objective calls —
each roughly 3x cheaper than a Hessian evaluation, which is exactly the
trade the paper quantifies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.optim.result import OptimResult

__all__ = ["lbfgs_minimize", "lbfgs_minimize_batch"]


class _LbfgsLane:
    """One lane's solver state, parked between objective evaluations."""

    __slots__ = ("x", "f", "g", "it", "n_eval", "s_hist", "y_hist",
                 "direction", "descent", "step", "ls_left", "trial",
                 "result")

    def __init__(self, x0, memory):
        self.x = np.asarray(x0, dtype=float).copy()
        self.f = None
        self.g = None
        self.it = 0
        self.n_eval = 0
        self.s_hist: deque = deque(maxlen=memory)
        self.y_hist: deque = deque(maxlen=memory)
        self.direction = None
        self.descent = 0.0
        self.step = 1.0
        self.ls_left = 0
        #: The point awaiting evaluation this round (None once finished).
        self.trial = self.x
        self.result: OptimResult | None = None


def lbfgs_minimize_batch(
    fg_batch: Callable[[list, list], list],
    x0s: list,
    grad_tol: float = 1e-6,
    max_iter: int = 2000,
    memory: int = 10,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_line_search: int = 40,
) -> list[OptimResult]:
    """Run many independent L-BFGS solves with lockstep batched evaluations.

    The gradient-only counterpart of
    :func:`repro.optim.lockstep.newton_trust_region_batch`: each lane keeps
    its own iterate, curvature history, and line-search state, but every
    round's objective evaluations — one pending trial point per unfinished
    lane — are served by a single ``fg_batch(indices, xs)`` call returning
    ``(value, gradient)`` pairs in lane order.

    This is the only L-BFGS state machine in the tree
    (:func:`lbfgs_minimize` is its batch of one).  ``max_iter`` defaults to
    2000 — the paper's observed worst case for this method.

    **Bit-for-bit contract.**  Lanes do not interact: each lane's result
    (iterates, ``n_evaluations``, termination message) is the same whatever
    else shares its batch — a lane is merely parked while its next
    evaluation is in flight.  Lanes desync naturally (a lane backtracking
    its line search evaluates at a different cadence than one accepting
    every unit step); the driver only ever synchronizes *rounds*, never
    solver decisions.
    """
    lanes = [_LbfgsLane(x0, memory) for x0 in x0s]

    def begin_iteration(ln: _LbfgsLane) -> None:
        """Termination checks + search direction; parks the lane at its
        first line-search trial (or finishes it)."""
        if ln.it >= max_iter:
            ln.result = OptimResult(ln.x, ln.f, ln.g, max_iter, ln.n_eval,
                                    False, "iteration limit")
            ln.trial = None
            return
        gnorm = float(np.linalg.norm(ln.g, ord=np.inf))
        if gnorm < grad_tol:
            ln.result = OptimResult(ln.x, ln.f, ln.g, ln.it, ln.n_eval,
                                    True, "gradient tolerance met")
            ln.trial = None
            return

        q = ln.g.copy()
        alphas = []
        for s, y in reversed(list(zip(ln.s_hist, ln.y_hist))):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if ln.y_hist:
            s, y = ln.s_hist[-1], ln.y_hist[-1]
            gamma = (s @ y) / (y @ y)
            q *= gamma
        for a, rho, s, y in reversed(alphas):
            beta = rho * (y @ q)
            q += (a - beta) * s
        direction = -q
        if direction @ ln.g >= 0:  # not a descent direction; reset
            direction = -ln.g
            ln.s_hist.clear()
            ln.y_hist.clear()

        ln.direction = direction
        ln.descent = direction @ ln.g
        ln.step = 1.0
        ln.ls_left = max_line_search
        if ln.ls_left <= 0:
            ln.result = OptimResult(ln.x, ln.f, ln.g, ln.it, ln.n_eval,
                                    False, "line search failed")
            ln.trial = None
            return
        ln.trial = ln.x + ln.step * ln.direction

    def on_result(ln: _LbfgsLane, f_new: float, g_new: np.ndarray) -> None:
        ln.n_eval += 1
        if ln.f is None:  # the initial f(x0) evaluation
            ln.f, ln.g = f_new, g_new
            begin_iteration(ln)
            return
        if np.isfinite(f_new) \
                and f_new <= ln.f + armijo_c * ln.step * ln.descent:
            x_new = ln.trial
            s_vec = x_new - ln.x
            y_vec = g_new - ln.g
            if s_vec @ y_vec > 1e-12 * np.linalg.norm(s_vec) \
                    * np.linalg.norm(y_vec):
                ln.s_hist.append(s_vec)
                ln.y_hist.append(y_vec)
            ln.x, ln.f, ln.g = x_new, f_new, g_new
            ln.it += 1
            begin_iteration(ln)
            return
        ln.ls_left -= 1
        if ln.ls_left <= 0:
            ln.result = OptimResult(ln.x, ln.f, ln.g, ln.it, ln.n_eval,
                                    False, "line search failed")
            ln.trial = None
            return
        ln.step *= backtrack
        ln.trial = ln.x + ln.step * ln.direction

    pending = [i for i, ln in enumerate(lanes) if ln.result is None]
    while pending:
        outs = fg_batch(pending, [lanes[i].trial for i in pending])
        for i, (f_new, g_new) in zip(pending, outs):
            on_result(lanes[i], f_new, g_new)
        pending = [i for i in pending if lanes[i].result is None]
    return [ln.result for ln in lanes]


def lbfgs_minimize(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    grad_tol: float = 1e-6,
    max_iter: int = 2000,
    memory: int = 10,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_line_search: int = 40,
) -> OptimResult:
    """Minimize one function with gradient-only information: the batch of
    one of :func:`lbfgs_minimize_batch`, with ``fg`` returning
    ``(value, gradient)`` at a point."""
    return lbfgs_minimize_batch(
        lambda _, xs: [fg(xs[0])], [x0], grad_tol, max_iter, memory,
        armijo_c, backtrack, max_line_search)[0]
