"""Tests for the 44-parameter canonical layout and free reparameterization."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.constants import NUM_CANONICAL_PARAMS, NUM_COLOR_COMPONENTS
from repro.core.params import (
    CANONICAL,
    FREE,
    SourceParams,
    canonical_to_free,
    free_to_canonical,
)

from taylor_oracle.model import seed_params


def make_params(**overrides):
    defaults = dict(
        prob_galaxy=0.3,
        u=np.array([10.0, 20.0]),
        r1=np.array([2.0, 2.5]),
        r2=np.array([0.3, 0.2]),
        c1=np.arange(8, dtype=float).reshape(4, 2) * 0.1,
        c2=np.full((4, 2), 0.15),
        e_dev=0.4,
        e_axis=0.6,
        e_angle=1.0,
        e_scale=2.0,
        k=np.full((NUM_COLOR_COMPONENTS, 2), 1.0 / NUM_COLOR_COMPONENTS),
    )
    defaults.update(overrides)
    return SourceParams(**defaults)


class TestLayouts:
    def test_canonical_is_44(self):
        assert CANONICAL.size == NUM_CANONICAL_PARAMS == 44

    def test_free_is_41(self):
        assert FREE.size == 41

    def test_blocks_partition_the_vector(self):
        covered = []
        for name in CANONICAL.names():
            covered.extend(CANONICAL.indices(name))
        assert sorted(covered) == list(range(44))

    def test_named_indices(self):
        assert CANONICAL["a"] == slice(0, 2)
        assert len(CANONICAL.indices("k")) == 16
        assert len(FREE.indices("k")) == 14


class TestSourceParamsRoundtrip:
    def test_canonical_roundtrip(self):
        p = make_params()
        vec = p.to_canonical()
        assert vec.shape == (44,)
        q = SourceParams.from_canonical(vec)
        np.testing.assert_allclose(q.prob_galaxy, p.prob_galaxy)
        np.testing.assert_allclose(q.u, p.u)
        np.testing.assert_allclose(q.c1, p.c1)
        np.testing.assert_allclose(q.k, p.k)
        np.testing.assert_allclose(q.e_scale, p.e_scale)

    def test_a_block_sums_to_one(self):
        vec = make_params(prob_galaxy=0.7).to_canonical()
        np.testing.assert_allclose(vec[CANONICAL["a"]].sum(), 1.0)

    def test_expected_flux_lognormal_moment(self):
        p = make_params(r1=np.array([1.0, 1.0]), r2=np.array([0.5, 0.5]),
                        c1=np.zeros((4, 2)), c2=np.zeros((4, 2)) + 1e-12)
        # reference band: E f = exp(mu + var/2)
        np.testing.assert_allclose(
            p.expected_flux(0, 2), np.exp(1.0 + 0.25), rtol=1e-9
        )


class TestFreeRoundtrip:
    def test_roundtrip_through_free(self):
        p = make_params()
        u_center = p.u.copy()
        free = canonical_to_free(p.to_canonical(), u_center)
        assert free.shape == (41,)
        back = free_to_canonical(free, u_center)
        np.testing.assert_allclose(back, p.to_canonical(), rtol=1e-6, atol=1e-9)

    def test_position_box_constraint(self):
        p = make_params()
        u_center = p.u.copy()
        free = canonical_to_free(p.to_canonical(), u_center)
        free[FREE["u"]] = [60.0, -60.0]  # extreme logits
        canon = free_to_canonical(free, u_center)
        u = canon[CANONICAL["u"]]
        assert abs(u[0] - u_center[0]) <= 2.0 + 1e-9
        assert abs(u[1] - u_center[1]) <= 2.0 + 1e-9

    def test_constraints_hold_for_random_free_vectors(self):
        rng = np.random.default_rng(1)
        u_center = np.array([5.0, 5.0])
        for _ in range(25):
            free = rng.normal(0, 3, FREE.size)
            canon = free_to_canonical(free, u_center)
            p = SourceParams.from_canonical(canon)
            assert 0.0 < p.prob_galaxy < 1.0
            assert np.all(p.r2 > 0) and np.all(p.r2 < 2.0)
            assert np.all(p.c2 > 0)
            assert 0.0 < p.e_dev < 1.0
            assert 0.05 < p.e_axis < 1.0
            assert 0.05 < p.e_scale < 30.0
            np.testing.assert_allclose(p.k.sum(axis=0), [1.0, 1.0], rtol=1e-9)


class TestSeedParams:
    def test_taylor_values_match_numpy_path(self):
        p = make_params()
        u_center = p.u.copy()
        free = canonical_to_free(p.to_canonical(), u_center)
        tp = seed_params(free, u_center, order=2)
        canon = free_to_canonical(free, u_center)
        q = SourceParams.from_canonical(canon)
        np.testing.assert_allclose(float(tp.prob_galaxy.val), q.prob_galaxy, rtol=1e-9)
        np.testing.assert_allclose(float(tp.ux.val), q.u[0], rtol=1e-9)
        np.testing.assert_allclose(float(tp.r2[1].val), q.r2[1], rtol=1e-9)
        np.testing.assert_allclose(float(tp.e_axis.val), q.e_axis, rtol=1e-9)
        np.testing.assert_allclose(
            [float(k.val) for k in tp.kappa[0]], q.k[:, 0], rtol=1e-9
        )

    def test_type_probabilities_complementary(self):
        free = np.zeros(FREE.size)
        tp = seed_params(free, np.zeros(2))
        total = tp.prob_galaxy + tp.prob_star
        np.testing.assert_allclose(total.val, 1.0, rtol=1e-12)
        np.testing.assert_allclose(total.gradient(41), np.zeros(41), atol=1e-12)

    def test_order1_has_no_hessians(self):
        free = np.zeros(FREE.size)
        tp = seed_params(free, np.zeros(2), order=1)
        assert tp.prob_galaxy.order == 1
        assert tp.e_scale.order == 1


@settings(max_examples=30, deadline=None)
@given(free=st.lists(
    st.floats(min_value=-4.0, max_value=4.0), min_size=41, max_size=41
))
def test_property_free_canonical_free_identity(free):
    free = np.asarray(free)
    u_center = np.array([3.0, -2.0])
    canon = free_to_canonical(free, u_center)
    free2 = canonical_to_free(canon, u_center)
    np.testing.assert_allclose(free2, free, rtol=1e-4, atol=1e-5)
