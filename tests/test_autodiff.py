"""Unit and property tests for the sparse-index Taylor AD engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taylor_oracle import (
    Taylor,
    check_gradient,
    check_hessian,
    constant,
    finite_difference_gradient,
    seed,
    texp,
    tcos,
    tlog,
    tlog1p,
    tsin,
    tsqrt,
    tsquare,
    tsum,
)


def _scalar(x):
    return float(np.asarray(x))


class TestBasics:
    def test_constant_has_no_derivatives(self):
        c = constant(3.0)
        assert c.is_constant
        assert c.order == 0
        assert c.gradient(4).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_variable_seeding(self):
        v = Taylor.variable(2.5, index=3, order=2)
        assert v.idx == (3,)
        g = v.gradient(5)
        assert g[3] == 1.0 and g.sum() == 1.0
        assert np.all(v.hessian(5) == 0.0)

    def test_seed_returns_independent_variables(self):
        xs = seed([1.0, 2.0, 3.0])
        for i, x in enumerate(xs):
            assert x.idx == (i,)
            assert float(x.val) == i + 1.0

    def test_variable_rejects_arrays(self):
        with pytest.raises(ValueError):
            Taylor.variable(np.zeros(3), index=0)

    def test_pow_rejects_taylor_exponent(self):
        x, = seed([2.0])
        with pytest.raises(TypeError):
            x ** x


class TestArithmetic:
    def test_addition_gradient(self):
        x, y = seed([1.0, 2.0])
        z = x + y + 1.0
        assert _scalar(z.val) == 4.0
        np.testing.assert_allclose(z.gradient(2), [1.0, 1.0])

    def test_subtraction_and_negation(self):
        x, y = seed([5.0, 3.0])
        z = 10.0 - (x - y)
        assert _scalar(z.val) == 8.0
        np.testing.assert_allclose(z.gradient(2), [-1.0, 1.0])

    def test_product_rule(self):
        x, y = seed([3.0, 4.0])
        z = x * y
        np.testing.assert_allclose(z.gradient(2), [4.0, 3.0])
        h = z.hessian(2)
        np.testing.assert_allclose(h, [[0.0, 1.0], [1.0, 0.0]])

    def test_quotient(self):
        x, y = seed([6.0, 3.0])
        z = x / y
        assert _scalar(z.val) == 2.0
        np.testing.assert_allclose(z.gradient(2), [1 / 3, -6 / 9])

    def test_rdiv(self):
        x, = seed([4.0])
        z = 8.0 / x
        assert _scalar(z.val) == 2.0
        np.testing.assert_allclose(z.gradient(1), [-0.5])
        np.testing.assert_allclose(z.hessian(1), [[0.25]])

    def test_scalar_power(self):
        x, = seed([3.0])
        z = x ** 3
        np.testing.assert_allclose(z.gradient(1), [27.0])
        np.testing.assert_allclose(z.hessian(1), [[18.0]])

    def test_square(self):
        x, = seed([5.0])
        z = tsquare(x)
        assert _scalar(z.val) == 25.0
        np.testing.assert_allclose(z.gradient(1), [10.0])
        np.testing.assert_allclose(z.hessian(1), [[2.0]])


class TestSparseIndices:
    """Binary ops must take the union of index sets — the Celeste sparsity trick."""

    def test_disjoint_union(self):
        x = Taylor.variable(2.0, index=1)
        y = Taylor.variable(3.0, index=4)
        z = x * y
        assert z.idx == (1, 4)
        g = z.gradient(6)
        assert g[1] == 3.0 and g[4] == 2.0
        assert g[0] == g[2] == g[3] == g[5] == 0.0

    def test_hessian_scatter(self):
        x = Taylor.variable(2.0, index=0)
        y = Taylor.variable(3.0, index=5)
        h = (x * y).hessian(6)
        assert h[0, 5] == 1.0 and h[5, 0] == 1.0
        assert np.count_nonzero(h) == 2

    def test_no_index_growth_for_unary(self):
        x = Taylor.variable(1.5, index=7)
        assert texp(tlog(x)).idx == (7,)

    def test_sparse_blocks_stay_small(self):
        # A product of two 2-index expressions has at most 4 active indices,
        # regardless of the global parameter count.
        a = Taylor.variable(1.0, 10) * Taylor.variable(2.0, 11)
        b = Taylor.variable(3.0, 40) * Taylor.variable(4.0, 41)
        z = a + b
        assert z.idx == (10, 11, 40, 41)
        assert z.grad.shape == (4,)
        assert z.hess.shape == (4, 4)


class TestVectorized:
    def test_broadcast_scalar_variable_times_array(self):
        x, = seed([2.0])
        arr = np.arange(5, dtype=float)
        z = x * arr
        assert z.shape == (5,)
        np.testing.assert_allclose(z.val, 2.0 * arr)
        np.testing.assert_allclose(z.gradient(1)[0], arr)

    def test_broadcast_addition(self):
        x, = seed([1.0])
        z = x + np.ones((3, 4))
        assert z.shape == (3, 4)
        np.testing.assert_allclose(z.gradient(1)[0], np.ones((3, 4)))

    def test_sum_all(self):
        x, = seed([3.0])
        z = tsum(x * np.arange(4.0))
        assert _scalar(z.val) == 3.0 * 6.0
        np.testing.assert_allclose(z.gradient(1), [6.0])

    def test_sum_axis(self):
        x, = seed([2.0])
        z = (x * np.ones((3, 4))).sum(axis=1)
        assert z.shape == (3,)
        np.testing.assert_allclose(z.gradient(1)[0], [4.0, 4.0, 4.0])

    def test_getitem(self):
        x, = seed([2.0])
        z = (x * np.arange(6.0))[3]
        assert _scalar(z.val) == 6.0
        np.testing.assert_allclose(z.gradient(1), [3.0])

    def test_vectorized_hessian_matches_scalar_loop(self):
        xs = np.linspace(0.5, 2.0, 7)
        a, b = seed([1.3, 0.7])
        vec = tsum(texp(a * xs + b) * xs)
        total_h = vec.hessian(2)
        acc = np.zeros((2, 2))
        for x in xs:
            a2, b2 = seed([1.3, 0.7])
            acc += (texp(a2 * x + b2) * x).hessian(2)
        np.testing.assert_allclose(total_h, acc, rtol=1e-12)


class TestTranscendental:
    def test_exp_log_roundtrip(self):
        x, = seed([1.7])
        z = texp(tlog(x))
        np.testing.assert_allclose(z.val, 1.7)
        np.testing.assert_allclose(z.gradient(1), [1.0], atol=1e-12)
        np.testing.assert_allclose(z.hessian(1), [[0.0]], atol=1e-12)

    def test_log1p(self):
        x, = seed([0.5])
        z = tlog1p(x)
        np.testing.assert_allclose(z.gradient(1), [1 / 1.5])
        np.testing.assert_allclose(z.hessian(1), [[-1 / 2.25]])

    def test_sqrt(self):
        x, = seed([4.0])
        z = tsqrt(x)
        np.testing.assert_allclose(z.val, 2.0)
        np.testing.assert_allclose(z.gradient(1), [0.25])
        np.testing.assert_allclose(z.hessian(1), [[-1 / 32]])

    def test_trig_identity(self):
        x, = seed([0.8])
        z = tsquare(tsin(x)) + tsquare(tcos(x))
        np.testing.assert_allclose(z.val, 1.0)
        np.testing.assert_allclose(z.gradient(1), [0.0], atol=1e-12)
        np.testing.assert_allclose(z.hessian(1), [[0.0]], atol=1e-10)


class TestGradientOnlyMode:
    def test_order1_has_no_hessian(self):
        x, y = seed([1.0, 2.0], order=1)
        z = texp(x * y)
        assert z.hess is None
        assert z.order == 1

    def test_order1_gradient_correct(self):
        x, y = seed([1.0, 2.0], order=1)
        z = texp(x) * tsin(y)
        g = z.gradient(2)
        np.testing.assert_allclose(g, [np.e * np.sin(2.0), np.e * np.cos(2.0)])

    def test_mixed_orders_degrade(self):
        x, = seed([1.0], order=2)
        y, = seed([2.0], order=1)
        # seeding at different global indices
        y = Taylor.variable(2.0, index=1, order=1)
        z = x * y
        assert z.hess is None


class TestAgainstFiniteDifferences:
    def test_composite_gradient(self):
        def fn(v):
            x, y, z = v
            return tsum(texp(x * y) + tlog(z) * x - y / z)

        check_gradient(fn, np.array([0.3, 0.7, 1.9]))

    def test_composite_hessian(self):
        def fn(v):
            x, y, z = v
            return texp(x) * tsin(y) + tsquare(z) * x + tlog(z + x * y)

        check_hessian(fn, np.array([0.4, 1.1, 2.3]))

    def test_vectorized_poisson_like_objective(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(5.0, size=16).astype(float)
        grid = np.linspace(-1, 1, 16)

        def fn(v):
            amp, width, floor = v
            rate = texp(amp) * np.exp(-grid ** 2) / width + texp(floor)
            return tsum(constant(counts) * tlog(rate) - rate)

        check_gradient(fn, np.array([1.2, 0.8, 0.1]))
        check_hessian(fn, np.array([1.2, 0.8, 0.1]))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-2.0, max_value=2.0),
    y=st.floats(min_value=-2.0, max_value=2.0),
)
def test_property_product_rule(x, y):
    a, b = seed([x, y])
    z = a * b
    np.testing.assert_allclose(z.gradient(2), [y, x], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=0.1, max_value=5.0))
def test_property_log_derivative(x):
    a, = seed([x])
    z = tlog(a)
    np.testing.assert_allclose(z.gradient(1), [1.0 / x], rtol=1e-12)
    np.testing.assert_allclose(z.hessian(1), [[-1.0 / x ** 2]], rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=2, max_size=5),
)
def test_property_gradient_matches_fd(vals):
    x = np.asarray(vals)

    def fn(v):
        acc = constant(0.0)
        for i, t in enumerate(v):
            acc = acc + texp(t * (0.3 + 0.1 * i)) + tsquare(t)
        return acc

    ad = fn(seed(x)).gradient(x.size)
    fd = finite_difference_gradient(lambda u: float(fn(seed(u)).val), x)
    np.testing.assert_allclose(ad, fd, rtol=1e-5, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    y=st.floats(min_value=-1.0, max_value=1.0),
)
def test_property_hessian_symmetry(x, y):
    a = Taylor.variable(x, 0)
    b = Taylor.variable(y, 3)
    z = texp(a * b) + tsquare(a) * b
    h = z.hessian(4)
    np.testing.assert_allclose(h, h.T, atol=0)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=0.2, max_value=3.0))
def test_property_exp_log_inverse(x):
    a, = seed([x])
    z = tlog(texp(a))
    np.testing.assert_allclose(z.val, x, rtol=1e-12)
    np.testing.assert_allclose(z.gradient(1), [1.0], rtol=1e-10)
