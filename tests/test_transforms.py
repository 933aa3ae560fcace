"""Tests for bijective reparameterizations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.numeric import NumericSanitizer
from repro.transforms import (
    Identity,
    LogitBox,
    softmax_fixed_last,
    softmax_fixed_last_inverse,
)
from repro.transforms.bijectors import _EDGE

from taylor_oracle import seed
from taylor_oracle.model import forward_taylor, softmax_fixed_last_taylor


def _assert_sanitized(*arrays):
    """Run arrays through the numeric sanitizer's classifier: no report
    means every entry is finite (no overflow, no NaN)."""
    san = NumericSanitizer()
    for a in arrays:
        san.check_step(np.asarray(a, dtype=float), 0.0)
    assert san.reports == [], [r.describe() for r in san.reports]


class TestIdentity:
    def test_roundtrip(self):
        b = Identity()
        assert b.forward_np(3.7) == 3.7
        assert b.inverse_np(3.7) == 3.7

    def test_taylor_passthrough(self):
        b = Identity()
        x, = seed([1.5])
        assert forward_taylor(b, x) is x


class TestLogitBox:
    def test_range(self):
        b = LogitBox(0.05, 1.0)
        for u in [-50.0, -1.0, 0.0, 1.0, 50.0]:
            y = b.forward_np(u)
            assert 0.05 <= y <= 1.0

    def test_midpoint(self):
        b = LogitBox(0.0, 2.0)
        np.testing.assert_allclose(b.forward_np(0.0), 1.0)

    def test_roundtrip(self):
        b = LogitBox(-1.0, 4.0)
        for y in [-0.5, 0.0, 1.3, 3.9]:
            np.testing.assert_allclose(b.forward_np(b.inverse_np(y)), y, rtol=1e-9)

    def test_inverse_clips_boundary(self):
        b = LogitBox(0.0, 1.0)
        assert np.isfinite(b.inverse_np(0.0))
        assert np.isfinite(b.inverse_np(1.0))

    def test_taylor_matches_numpy(self):
        b = LogitBox(0.1, 2.5)
        u, = seed([0.7])
        t = forward_taylor(b, u)
        np.testing.assert_allclose(t.val, b.forward_np(0.7), rtol=1e-12)

    def test_taylor_gradient(self):
        from taylor_oracle import check_gradient, check_hessian

        b = LogitBox(0.0, 3.0)

        def fn(v):
            return forward_taylor(b, v[0])

        check_gradient(fn, np.array([0.4]))
        check_hessian(fn, np.array([0.4]))

    def test_invalid_bounds(self):
        import pytest

        with pytest.raises(ValueError):
            LogitBox(1.0, 1.0)


class TestSoftmaxFixedLast:
    def test_uniform_at_zero(self):
        p = softmax_fixed_last(np.zeros(7))
        np.testing.assert_allclose(p, np.full(8, 1 / 8))

    def test_sums_to_one(self):
        p = softmax_fixed_last(np.array([3.0, -2.0, 0.5]))
        np.testing.assert_allclose(p.sum(), 1.0)
        assert np.all(p > 0)

    def test_roundtrip(self):
        free = np.array([1.2, -0.3, 0.0, 2.0])
        p = softmax_fixed_last(free)
        np.testing.assert_allclose(softmax_fixed_last_inverse(p), free, rtol=1e-9)

    def test_taylor_matches_numpy(self):
        free = np.array([0.5, -1.0, 0.2])
        probs_np = softmax_fixed_last(free)
        vs = seed(free)
        probs_t = softmax_fixed_last_taylor(vs)
        np.testing.assert_allclose([p.val for p in probs_t], probs_np, rtol=1e-12)

    def test_taylor_sums_to_one_with_zero_gradient(self):
        vs = seed([0.3, -0.7])
        probs = softmax_fixed_last_taylor(vs)
        total = probs[0]
        for p in probs[1:]:
            total = total + p
        np.testing.assert_allclose(total.val, 1.0, rtol=1e-12)
        np.testing.assert_allclose(total.gradient(2), [0.0, 0.0], atol=1e-12)

    def test_taylor_gradient_matches_fd(self):
        from taylor_oracle import check_gradient, check_hessian

        def fn(v):
            probs = softmax_fixed_last_taylor(list(v))
            # a generic smooth functional of the simplex point
            acc = probs[0] * 1.0
            for i, p in enumerate(probs[1:], start=2):
                acc = acc + p * float(i * i)
            return acc

        x0 = np.array([0.2, -0.4, 0.9])
        check_gradient(fn, x0)
        check_hessian(fn, x0)


class TestDomainEdges:
    """Bijector behavior at and beyond the domain boundaries, checked with
    the runtime numeric sanitizer: the stabilized maps must stay finite
    however far out the optimizer (or a catalog initialization) lands."""

    def test_logitbox_forward_saturates_finite(self):
        b = LogitBox(0.05, 1.0)
        u = np.array([-1e4, -800.0, -710.0, 0.0, 710.0, 800.0, 1e4])
        y = b.forward_np(u)
        _assert_sanitized(y)
        assert np.all((y >= 0.05) & (y <= 1.0))
        np.testing.assert_allclose(y[0], 0.05)   # saturates at lo
        np.testing.assert_allclose(y[-1], 1.0)   # saturates at hi

    def test_logitbox_roundtrip_at_edges(self):
        b = LogitBox(0.05, 1.0)
        width = b.hi - b.lo
        for y in [0.05, 0.05 + 1e-15, 0.5, 1.0 - 1e-15, 1.0]:
            u = b.inverse_np(y)
            _assert_sanitized(np.array([u]))
            back = b.forward_np(u)
            # Exact boundary values are clipped _EDGE into the interval.
            assert abs(back - y) <= 2.0 * _EDGE * width

    def test_d012_vec_finite_at_extremes(self):
        b = LogitBox(-1.0, 4.0)
        u = np.array([-1e6, -800.0, -35.0, 0.0, 35.0, 800.0, 1e6])
        v, d1, d2 = b.forward_d012_vec(u)
        _assert_sanitized(v, d1, d2)
        # Derivatives vanish at saturation instead of degrading to NaN.
        np.testing.assert_allclose(d1[[0, -1]], 0.0, atol=1e-12)
        np.testing.assert_allclose(d2[[0, -1]], 0.0, atol=1e-12)

    def test_d012_vec_matches_finite_differences(self):
        b = LogitBox(0.0, 3.0)
        u = np.array([-30.0, -5.0, -1.0, 0.0, 0.7, 5.0, 30.0])
        h = 1e-5
        v, d1, d2 = b.forward_d012_vec(u)
        np.testing.assert_allclose(v, b.forward_np(u), rtol=1e-14)
        fd1 = (b.forward_np(u + h) - b.forward_np(u - h)) / (2.0 * h)
        np.testing.assert_allclose(d1, fd1, rtol=1e-6, atol=1e-10)
        d1_hi = b.forward_d012_vec(u + h)[1]
        d1_lo = b.forward_d012_vec(u - h)[1]
        fd2 = (d1_hi - d1_lo) / (2.0 * h)
        np.testing.assert_allclose(d2, fd2, rtol=1e-5, atol=1e-10)

    def test_softmax_huge_logits_finite(self):
        p = softmax_fixed_last(np.array([1000.0, -1000.0, 0.0]))
        _assert_sanitized(p)
        np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-12)
        assert p[0] > 0.99  # the dominant logit wins cleanly

    def test_softmax_taylor_huge_logits_finite(self):
        vs = seed([800.0, -800.0])
        probs = softmax_fixed_last_taylor(vs)
        vals = np.array([p.val for p in probs])
        _assert_sanitized(vals, *[p.gradient(2) for p in probs])
        np.testing.assert_allclose(vals.sum(), 1.0, rtol=1e-12)

    def test_softmax_taylor_matches_numpy_far_out(self):
        free = np.array([40.0, -3.0, 0.25])
        probs_np = softmax_fixed_last(free)
        probs_t = softmax_fixed_last_taylor(seed(free))
        np.testing.assert_allclose(
            [p.val for p in probs_t], probs_np, rtol=1e-13)

    def test_softmax_inverse_degenerate_probs(self):
        logits = softmax_fixed_last_inverse(np.array([1.0, 0.0, 0.0]))
        _assert_sanitized(logits)
        p = softmax_fixed_last(logits)
        _assert_sanitized(p)
        np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(min_value=-30, max_value=30))
def test_property_logitbox_monotone(u):
    b = LogitBox(0.0, 1.0)
    assert b.forward_np(u) < b.forward_np(u + 0.5)


@settings(max_examples=50, deadline=None)
@given(
    free=st.lists(st.floats(min_value=-8, max_value=8), min_size=1, max_size=7)
)
def test_property_softmax_simplex(free):
    p = softmax_fixed_last(np.array(free))
    assert p.shape == (len(free) + 1,)
    np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-9)
    assert np.all(p >= 0)


@settings(max_examples=50, deadline=None)
@given(
    y=st.floats(min_value=0.051, max_value=0.999),
)
def test_property_logitbox_roundtrip(y):
    b = LogitBox(0.05, 1.0)
    np.testing.assert_allclose(b.forward_np(b.inverse_np(y)), y, rtol=1e-6)
