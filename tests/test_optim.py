"""Tests for the trust-region Newton and L-BFGS optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optim import lbfgs_minimize, newton_trust_region, solve_trust_region


def quad_factory(H, g0):
    """f(x) = g0.x + x.H.x/2 with analytic derivatives."""

    def fgh(x):
        return float(g0 @ x + 0.5 * x @ H @ x), g0 + H @ x, H

    def fg(x):
        f, g, _ = fgh(x)
        return f, g

    return fgh, fg


def rosenbrock_fgh(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
        2 * b * (x[1] - x[0] ** 2),
    ])
    h = np.array([
        [2 - 4 * b * (x[1] - 3 * x[0] ** 2), -4 * b * x[0]],
        [-4 * b * x[0], 2 * b],
    ])
    return f, g, h


class TestTrustRegionSubproblem:
    def test_interior_newton_step(self):
        H = np.diag([2.0, 4.0])
        g = np.array([2.0, 4.0])
        step, pred = solve_trust_region(g, H, radius=10.0)
        np.testing.assert_allclose(step, [-1.0, -1.0], atol=1e-8)
        np.testing.assert_allclose(pred, 3.0, rtol=1e-8)

    def test_boundary_step_has_radius_norm(self):
        H = np.diag([2.0, 4.0])
        g = np.array([10.0, 20.0])
        radius = 0.5
        step, _ = solve_trust_region(g, H, radius)
        np.testing.assert_allclose(np.linalg.norm(step), radius, rtol=1e-6)

    def test_indefinite_hessian_moves_to_boundary(self):
        H = np.diag([-2.0, 1.0])
        g = np.array([0.5, 0.5])
        radius = 1.0
        step, pred = solve_trust_region(g, H, radius)
        np.testing.assert_allclose(np.linalg.norm(step), radius, rtol=1e-6)
        assert pred > 0

    def test_hard_case_zero_gradient_component(self):
        # Gradient orthogonal to the negative eigenvector: the classic hard case.
        H = np.diag([-1.0, 2.0])
        g = np.array([0.0, 1.0])
        radius = 2.0
        step, pred = solve_trust_region(g, H, radius)
        np.testing.assert_allclose(np.linalg.norm(step), radius, rtol=1e-6)
        assert pred > 0

    def test_zero_gradient_negative_curvature(self):
        H = np.diag([-1.0, 3.0])
        g = np.zeros(2)
        step, pred = solve_trust_region(g, H, radius=1.5)
        np.testing.assert_allclose(np.linalg.norm(step), 1.5, rtol=1e-6)
        assert pred > 0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            solve_trust_region(np.ones(2), np.eye(2), radius=0.0)

    def test_predicted_decrease_matches_model(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5))
        H = A + A.T
        g = rng.normal(size=5)
        step, pred = solve_trust_region(g, H, radius=0.7)
        model_decrease = -(g @ step + 0.5 * step @ H @ step)
        np.testing.assert_allclose(pred, model_decrease, rtol=1e-9)


class TestNewtonTrustRegion:
    def test_quadratic_one_step(self):
        H = np.diag([1.0, 10.0])
        g0 = np.array([1.0, -2.0])
        fgh, _ = quad_factory(H, g0)
        res = newton_trust_region(fgh, np.zeros(2), initial_radius=100.0)
        assert res.converged
        np.testing.assert_allclose(res.x, -np.linalg.solve(H, g0), atol=1e-6)
        assert res.n_iterations <= 3

    def test_rosenbrock_converges_in_tens(self):
        res = newton_trust_region(rosenbrock_fgh, np.array([-1.2, 1.0]),
                                  max_iter=100)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)
        assert res.n_iterations < 50  # "tens of iterations"

    def test_nonconvex_start_escapes_saddle(self):
        # f = x^2 y^2-ish saddle at origin with negative curvature directions.
        def fgh(x):
            f = x[0] ** 4 / 4 - x[0] ** 2 / 2 + x[1] ** 2
            g = np.array([x[0] ** 3 - x[0], 2 * x[1]])
            h = np.array([[3 * x[0] ** 2 - 1, 0.0], [0.0, 2.0]])
            return f, g, h

        res = newton_trust_region(fgh, np.array([0.0, 0.5]), max_iter=100)
        assert res.converged
        assert abs(abs(res.x[0]) - 1.0) < 1e-5  # reached a true minimum

    def test_respects_iteration_limit(self):
        res = newton_trust_region(rosenbrock_fgh, np.array([-1.2, 1.0]), max_iter=2)
        assert not res.converged
        assert res.n_iterations == 2


class TestEigendecompositionReuse:
    def test_a_repeated_hessian_is_decomposed_once(self, monkeypatch):
        """A rejected step (or a step predicting no decrease) solves the
        subproblem again with the same Hessian: the lane reuses its
        eigendecomposition, so ``eigh`` runs once per distinct Hessian,
        not once per subproblem."""
        from repro.optim import lockstep

        solved, decomposed = [], []
        solve, eigh = lockstep.solve_trust_region, np.linalg.eigh

        def counting_solve(g, h, radius, *args, **kwargs):
            solved.append(h.tobytes())
            return solve(g, h, radius, *args, **kwargs)

        def counting_eigh(a, *args, **kwargs):
            decomposed.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(lockstep, "solve_trust_region", counting_solve)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        res = newton_trust_region(rosenbrock_fgh, np.array([-1.2, 1.0]))
        assert res.converged
        distinct = 1 + sum(a != b for a, b in zip(solved, solved[1:]))
        assert len(decomposed) == distinct < len(solved)


class TestLBFGS:
    def test_quadratic(self):
        H = np.diag([1.0, 4.0, 9.0])
        g0 = np.array([1.0, 1.0, 1.0])
        _, fg = quad_factory(H, g0)
        res = lbfgs_minimize(fg, np.zeros(3))
        assert res.converged
        np.testing.assert_allclose(res.x, -np.linalg.solve(H, g0), atol=1e-5)

    def test_rosenbrock(self):
        def fg(x):
            f, g, _ = rosenbrock_fgh(x)
            return f, g

        res = lbfgs_minimize(fg, np.array([-1.2, 1.0]), max_iter=2000)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_newton_beats_lbfgs_on_illconditioned(self):
        # The paper's core claim at the optimizer level: second-order info
        # slashes iteration counts on ill-conditioned problems.
        rng = np.random.default_rng(0)
        n = 12
        evals = np.geomspace(1.0, 1e4, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        H = Q @ np.diag(evals) @ Q.T
        g0 = rng.normal(size=n)
        fgh, fg = quad_factory(H, g0)
        newton = newton_trust_region(fgh, np.zeros(n), initial_radius=1e3)
        lbfgs = lbfgs_minimize(fg, np.zeros(n), max_iter=2000)
        assert newton.converged
        assert newton.n_iterations * 10 < max(lbfgs.n_iterations, 100)


@settings(max_examples=25, deadline=None)
@given(
    d1=st.floats(min_value=-3.0, max_value=5.0),
    d2=st.floats(min_value=0.1, max_value=5.0),
    gx=st.floats(min_value=-5.0, max_value=5.0),
    gy=st.floats(min_value=-5.0, max_value=5.0),
    radius=st.floats(min_value=0.05, max_value=5.0),
)
def test_property_tr_step_feasible_and_decreasing(d1, d2, gx, gy, radius):
    H = np.diag([d1, d2])
    g = np.array([gx, gy])
    step, pred = solve_trust_region(g, H, radius)
    assert np.linalg.norm(step) <= radius * (1 + 1e-6)
    assert pred >= -1e-10
    # The model value at the step never exceeds the value at the origin.
    model = g @ step + 0.5 * step @ H @ step
    assert model <= 1e-9


# ---------------------------------------------------------------------------
# Pinned solver behaviour.  There is one Newton and one L-BFGS state machine;
# these constants record what the solvers return on every fixture above plus
# one fixture per early-exit branch, bit for bit, so a change to either state
# machine shows up here without a second copy to compare against.


def saddle_fgh(x):
    f = x[0] ** 4 / 4 - x[0] ** 2 / 2 + x[1] ** 2
    g = np.array([x[0] ** 3 - x[0], 2 * x[1]])
    h = np.array([[3 * x[0] ** 2 - 1, 0.0], [0.0, 2.0]])
    return f, g, h


def illconditioned_factory():
    rng = np.random.default_rng(0)
    n = 12
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = Q @ np.diag(np.geomspace(1.0, 1e4, n)) @ Q.T
    return quad_factory(H, rng.normal(size=n)) + (n,)


def parabola_fgh(x):
    """f = x^2/2: one unit Newton step from x0 = 1 lands on the exact
    minimizer, after which (with ``grad_tol=0``) every subproblem predicts a
    zero decrease and the radius shrinks until it collapses."""
    return float(0.5 * x[0] ** 2), x.copy(), np.eye(1)


def log_barrier_fgh(x):
    """f = x - log x on x > 0, +inf outside: the first Newton step from
    x0 = 3 overshoots to x < 0, so the trial objective is non-finite."""
    if x[0] <= 0.0:
        return np.inf, np.zeros(1), np.eye(1)
    return (float(x[0] - np.log(x[0])), np.array([1.0 - 1.0 / x[0]]),
            np.array([[1.0 / x[0] ** 2]]))


def lying_gradient_fg(x):
    """f = x.x with the gradient's sign flipped: every "descent" direction
    climbs, so the Armijo test fails at every backtracking step."""
    return float(x @ x), -2.0 * x


def _fg(fgh):
    return lambda x: fgh(x)[:2]


def _newton_cases():
    quad_fgh, _ = quad_factory(np.diag([1.0, 10.0]), np.array([1.0, -2.0]))
    ill_fgh, _, n = illconditioned_factory()
    start = np.array([-1.2, 1.0])
    return {
        "quadratic": (quad_fgh, np.zeros(2), dict(initial_radius=100.0)),
        "rosenbrock": (rosenbrock_fgh, start, dict(max_iter=100)),
        "saddle": (saddle_fgh, np.array([0.0, 0.5]), dict(max_iter=100)),
        "illconditioned": (ill_fgh, np.zeros(n), dict(initial_radius=1e3)),
        "iteration-limit": (rosenbrock_fgh, start, dict(max_iter=2)),
        "predicted-zero-shrink": (parabola_fgh, np.ones(1),
                                  dict(grad_tol=0.0, max_iter=5)),
        "collapsed": (parabola_fgh, np.ones(1), dict(grad_tol=0.0)),
        "nonfinite-trial-shrink": (log_barrier_fgh, np.array([3.0]),
                                   dict(initial_radius=10.0)),
    }


def _lbfgs_cases():
    _, quad_fg = quad_factory(np.diag([1.0, 4.0, 9.0]), np.ones(3))
    _, ill_fg, n = illconditioned_factory()
    start = np.array([-1.2, 1.0])
    return {
        "quadratic": (quad_fg, np.zeros(3), {}),
        "rosenbrock": (_fg(rosenbrock_fgh), start, dict(max_iter=2000)),
        "illconditioned": (ill_fg, np.zeros(n), dict(max_iter=2000)),
        "iteration-limit": (_fg(rosenbrock_fgh), start, dict(max_iter=3)),
        "line-search-failed": (lying_gradient_fg, np.array([1.0, -2.0]), {}),
    }


#: case -> (n_iterations, n_evaluations, message, x.tobytes().hex())
PINNED_NEWTON = {
    "quadratic": (1, 2, "gradient tolerance met",
                  "000000000000f0bf9a9999999999c93f"),
    "rosenbrock": (24, 25, "gradient tolerance met",
                   "e32291ffffffef3f9fef21ffffffef3f"),
    "saddle": (4, 5, "gradient tolerance met",
               "9f51e8000000f03f0000000000000000"),
    "illconditioned": (
        1, 2, "gradient tolerance met",
        "6c62a17b2c6aacbfa8f879c6a020cfbfc5e07c8eb2a5c93f73f22f203b61c5bf"
        "a8bd3d6de703e03f425c283bc8ccdabf32a928a0ac2fbabf28f1b694daedb0bf"
        "30337f67d45e893f2f0a9e6abf87c4bf4b120f59dc41d23f52b7561bb098d43f"),
    "iteration-limit": (2, 3, "iteration limit",
                        "2c9a0458f3cdf2bf2dce00c93d17f63f"),
    "predicted-zero-shrink": (5, 2, "iteration limit", "0000000000000000"),
    "collapsed": (19, 2, "trust region collapsed", "0000000000000000"),
    "nonfinite-trial-shrink": (7, 8, "gradient tolerance met",
                               "0000e0ffffffef3f"),
}
PINNED_LBFGS = {
    "quadratic": (8, 11, "gradient tolerance met",
                  "d797701b0000f0bff3ad7a56ffffcfbff38618a3c771bcbf"),
    "rosenbrock": (672, 699, "gradient tolerance met",
                   "9ca1efffffffef3fc39be3ffffffef3f"),
    "illconditioned": (
        2000, 62354, "iteration limit",
        "d917879f2c6aacbfed32bdd79f20cfbffa72d540b2a5c93f739bb8e03a61c5bf"
        "5d12e92ce703e03f0a384e19c8ccdabfbef38673ad2fbabf4d6fbd0edaedb0bf"
        "cf614a0dd85e893fc54d7db2be87c4bfb508770edc41d23f495c23eaaf98d43f"),
    "iteration-limit": (3, 14, "iteration limit",
                        "aae06e242972f0bfc839dd905404f13f"),
    "line-search-failed": (0, 41, "line search failed",
                           "000000000000f03f00000000000000c0"),
}


def _signature(res):
    return (res.n_iterations, res.n_evaluations, res.message,
            res.x.tobytes().hex())


class TestPinnedSolverBehaviour:
    @pytest.mark.parametrize("case", sorted(PINNED_NEWTON))
    def test_newton(self, case):
        fgh, x0, kwargs = _newton_cases()[case]
        res = newton_trust_region(fgh, x0, **kwargs)
        assert _signature(res) == PINNED_NEWTON[case]

    @pytest.mark.parametrize("case", sorted(PINNED_LBFGS))
    def test_lbfgs(self, case):
        fg, x0, kwargs = _lbfgs_cases()[case]
        res = lbfgs_minimize(fg, x0, **kwargs)
        assert _signature(res) == PINNED_LBFGS[case]

    def test_every_case_is_pinned(self):
        assert set(PINNED_NEWTON) == set(_newton_cases())
        assert set(PINNED_LBFGS) == set(_lbfgs_cases())
