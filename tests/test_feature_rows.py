"""The pixel term's feature rows and assembly against per-pixel oracles.

:func:`repro.core.kernel._feature_rows` yields every per-pixel row the
pixel term reads — the star's value, gradient and position Hessian, the
mixed galaxy profile ``gg`` and its gradient, ``dlg = d gg / d e_dev`` and
its gradient — from one GEMM of per-lane coefficients against the
degree-<=2 monomials of :func:`repro.core.kernel._mixture`, and
:func:`repro.core.kernel._pixel_terms` assembles the z-gradient and
z-Hessian from pixel sums through a fixed scatter (the per-call prologue
and assembly of :func:`repro.core.kernel._pixel_terms`, here over one
patch slot).  ``pixel_oracle``
computes the same rows component by component and accumulates the
z-Hessian entry by entry, which makes it the independent check of both.
"""

import numpy as np
import pytest

from pixel_oracle import feature_rows, lane_args, pixel_term, random_patch
from repro.core.kernel import (
    _F_DGG,
    _F_DGS,
    _F_DLDG,
    _F_DLG,
    _F_GG,
    _F_GS,
    _F_HGS,
    _MOMENT_BLOCK,
    _covariances,
    _feature_coefficients,
    _feature_rows,
    _mixture,
    _pixel_terms,
    _row_mix,
)

#: Oracle row name -> (first kernel feature row, row count or None for a
#: single ``(G, M)`` row).
_ROWS = {"gs": (_F_GS, None), "dgs": (_F_DGS, 2), "hgs": (_F_HGS, 3),
         "gg": (_F_GG, None), "dgg": (_F_DGG, 5), "dlg": (_F_DLG, None),
         "dldg": (_F_DLDG, 5)}

_N_PIX = [1, 7, _MOMENT_BLOCK - 1, _MOMENT_BLOCK, _MOMENT_BLOCK + 1, 1541]


def _kernel_rows(pws, args, n_rows=18):
    upx, upy, s1, s2, s3, dev = args
    icov, alpha = _covariances(pws, np.stack([s1, s2, s3], axis=1))
    _, _, mono = _mixture(pws, np.stack([upx, upy], axis=1), icov, alpha)
    coef = _feature_coefficients(pws, icov, _row_mix(pws, dev), n_rows)
    # The rows live in the thread's scratch until the next call: copy.
    return _feature_rows(coef, mono).copy()


def _slot_pixel_term(pws, args, amps, order, vc):
    """The pixel term of one patch slot's lanes: the slot is its own
    prologue stack (one pair per lane), with an identity WCS."""
    upx, upy, s1, s2, s3, dev = args
    rows = (np.stack([upx, upy], axis=1), np.stack([s1, s2, s3], axis=1),
            dev)
    return _pixel_terms(pws, rows, amps, [(pws, slice(None))], order, vc)


def _amps(rng, n_lanes):
    """Uncalibrated ``(A_star, A_gal, B_star, B_gal)`` per lane."""
    a = rng.uniform(0.1, 0.6, (2, n_lanes))
    return np.concatenate([a, a * a * rng.uniform(1.0, 1.5, (2, n_lanes))])


class TestFeatureRows:

    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("n_pix", _N_PIX)
    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_rows_match_per_pixel_oracle(self, n_lanes, n_pix,
                                         near_singular):
        rng = np.random.default_rng(100 * n_lanes + n_pix)
        pws, _, args = random_patch(rng, n_lanes, n_pix,
                                    near_singular=near_singular)
        got = _kernel_rows(pws, args)
        assert got.shape == (n_lanes, 18, n_pix)
        # Each row against the sum of its absolute per-component
        # contributions, the yardstick a reordered sum is held to.
        for name, (want, scale) in feature_rows(pws, *args).items():
            start, n = _ROWS[name]
            rows = got[:, start] if n is None else got[:, start:start + n]
            assert np.all(np.abs(rows - want) <= 1e-11 * scale), name

    def test_lane_alone_equals_lane_in_stack(self):
        rng = np.random.default_rng(7)
        pws, slots, args = random_patch(rng, 3, 2 * _MOMENT_BLOCK + 3,
                                        near_singular=True)
        stacked = _kernel_rows(pws, args)
        for i, slot in enumerate(slots):
            np.testing.assert_array_equal(
                _kernel_rows(slot, lane_args(args, i))[0], stacked[i])


class TestPixelTermAssembly:

    @pytest.mark.parametrize("vc", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n_pix", [1, _MOMENT_BLOCK + 1])
    def test_matches_entrywise_oracle(self, n_pix, order, vc):
        rng = np.random.default_rng(31 * n_pix + 2 * order + vc)
        pws, _, args = random_patch(rng, 3, n_pix, near_singular=True)
        amps = _amps(rng, 3)
        val, gz, hz = _slot_pixel_term(pws, args, amps, order, vc)
        want_val, want_gz, want_hz = pixel_term(pws, args, amps, order, vc)
        np.testing.assert_allclose(val, want_val, rtol=1e-12)
        for got, want in ((gz, want_gz), (hz, want_hz)):
            if want is None:
                assert got is None
                continue
            # Per lane, against the lane's largest entry.
            scale = np.abs(want).reshape(3, -1).max(axis=1)
            err = np.abs(got - want).reshape(3, -1).max(axis=1)
            assert np.all(err <= 1e-12 * scale), err / scale
        if hz is not None:
            np.testing.assert_array_equal(hz, hz.transpose(0, 2, 1))

    @pytest.mark.parametrize("vc", [False, True])
    def test_value_only_order_gives_the_order_one_value(self, vc):
        rng = np.random.default_rng(13)
        pws, _, args = random_patch(rng, 2, 40)
        amps = _amps(rng, 2)
        val0 = _slot_pixel_term(pws, args, amps, 0, vc)[0]
        np.testing.assert_array_equal(
            val0, _slot_pixel_term(pws, args, amps, 1, vc)[0])

    @pytest.mark.parametrize("vc", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    def test_lane_alone_equals_lane_in_stack(self, order, vc):
        rng = np.random.default_rng(11)
        pws, slots, args = random_patch(rng, 3, 2 * _MOMENT_BLOCK + 3,
                                        near_singular=True)
        amps = _amps(rng, 3)
        stacked = _slot_pixel_term(pws, args, amps, order, vc)
        for i, slot in enumerate(slots):
            alone = _slot_pixel_term(slot, lane_args(args, i),
                                      amps[:, i:i + 1], order, vc)
            for a, s in zip(alone, stacked):
                if s is None:
                    assert a is None
                else:
                    np.testing.assert_array_equal(a[0], s[i])
