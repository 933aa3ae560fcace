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

__all__ = ["lbfgs_minimize"]


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
    """Minimize one function with gradient-only information, ``fg``
    returning ``(value, gradient)`` at a point.

    ``max_iter`` defaults to 2000 — the paper's observed worst case for
    this method.  Each iteration takes the two-loop direction (reset to
    steepest descent when it is not a descent direction) and backtracks
    from a unit step until the Armijo condition holds, for at most
    ``max_line_search`` evaluations.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fg(x)
    n_eval = 1
    s_hist: deque = deque(maxlen=memory)
    y_hist: deque = deque(maxlen=memory)
    for it in range(max_iter):
        if float(np.linalg.norm(g, ord=np.inf)) < grad_tol:
            return OptimResult(x, f, g, it, n_eval, True,
                               "gradient tolerance met")

        q = g.copy()
        alphas = []
        for s, y in reversed(list(zip(s_hist, y_hist))):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_hist:
            s, y = s_hist[-1], y_hist[-1]
            gamma = (s @ y) / (y @ y)
            q *= gamma
        for a, rho, s, y in reversed(alphas):
            beta = rho * (y @ q)
            q += (a - beta) * s
        direction = -q
        if direction @ g >= 0:  # not a descent direction; reset
            direction = -g
            s_hist.clear()
            y_hist.clear()
        descent = direction @ g

        step = 1.0
        for _ in range(max_line_search):
            x_new = x + step * direction
            f_new, g_new = fg(x_new)
            n_eval += 1
            if np.isfinite(f_new) and f_new <= f + armijo_c * step * descent:
                break
            step *= backtrack
        else:
            return OptimResult(x, f, g, it, n_eval, False,
                               "line search failed")

        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-12 * np.linalg.norm(s_vec) \
                * np.linalg.norm(y_vec):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
        x, f, g = x_new, f_new, g_new
    return OptimResult(x, f, g, max_iter, n_eval, False, "iteration limit")
