"""The pixel term's feature rows and assembly against per-pixel oracles.

:func:`repro.core.kernel._feature_rows` yields every per-pixel row the
pixel term reads — the star's value, gradient and position Hessian, the
mixed galaxy profile ``gg`` and its gradient, ``dlg = d gg / d e_dev`` and
its gradient — from one GEMM of per-lane coefficients against the
degree-<=2 monomials of :func:`repro.core.kernel._mixture`, one pixel
pass per (lane, patch) pair, and :func:`repro.core.kernel._pixel_terms`
assembles the z-gradient and z-Hessian from pixel sums through a fixed
scatter (the per-call prologue and assembly, here over the pairs of one
or three patch slots).  ``pixel_oracle`` computes the same rows component
by component and accumulates the z-Hessian entry by entry, which makes it
the independent check of both.
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


def _kernel_rows(stack, slots, args, n_rows=18):
    """Every pair's feature rows, ``(P, n_rows, M)``: the coefficients from
    the pairs' prologue stack, one mixture pass and GEMM per pair."""
    upx, upy, s1, s2, s3, dev = args
    up = np.stack([upx, upy], axis=1)
    icov, alpha = _covariances(stack, np.stack([s1, s2, s3], axis=1))
    coef = _feature_coefficients(stack, icov, _row_mix(stack, dev), n_rows)
    # The rows live in the thread's scratch until the next call: copy.
    return np.stack([
        _feature_rows(coef[i], _mixture(slot, up[i], icov[i], alpha[i])[2])
        .copy() for i, slot in enumerate(slots)])


def _slot_pixel_term(stack, slots, args, amps, order, vc):
    """The pixel term of the slots' pairs (one per lane) over their
    prologue stack, with an identity WCS."""
    upx, upy, s1, s2, s3, dev = args
    rows = (np.stack([upx, upy], axis=1), np.stack([s1, s2, s3], axis=1),
            dev)
    return _pixel_terms(stack, rows, amps, slots, order, vc)


def _amps(rng, n_lanes):
    """Uncalibrated ``(A_star, A_gal, B_star, B_gal)`` per lane."""
    a = rng.uniform(0.1, 0.6, (2, n_lanes))
    return np.concatenate([a, a * a * rng.uniform(1.0, 1.5, (2, n_lanes))])


class TestFeatureRows:

    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("n_pix", _N_PIX)
    @pytest.mark.parametrize("n_pairs", [1, 3])
    def test_rows_match_per_pixel_oracle(self, n_pairs, n_pix,
                                         near_singular):
        """Each pair's pixel pass reads its own rows of a prologue stack of
        ``n_pairs`` pairs."""
        rng = np.random.default_rng(100 * n_pairs + n_pix)
        stack, slots, args = random_patch(rng, n_pairs, n_pix,
                                          near_singular=near_singular)
        got = _kernel_rows(stack, slots, args)
        assert got.shape == (n_pairs, 18, n_pix)
        # Each row against the sum of its absolute per-component
        # contributions, the yardstick a reordered sum is held to.
        for i, slot in enumerate(slots):
            oracle = feature_rows(slot, *lane_args(args, i))
            for name, (want, scale) in oracle.items():
                start, n = _ROWS[name]
                sel = start if n is None else slice(start, start + n)
                rows = got[i:i + 1, sel]
                assert np.all(np.abs(rows - want) <= 1e-11 * scale), name

    def test_lane_alone_equals_lane_in_stack(self):
        """A pair's rows do not depend on the other pairs of its prologue
        stack."""
        rng = np.random.default_rng(7)
        stack, slots, args = random_patch(rng, 3, 2 * _MOMENT_BLOCK + 3,
                                          near_singular=True)
        stacked = _kernel_rows(stack, slots, args)
        for i, slot in enumerate(slots):
            np.testing.assert_array_equal(
                _kernel_rows(slot, [slot], lane_args(args, i))[0],
                stacked[i])


class TestPixelTermAssembly:

    @pytest.mark.parametrize("vc", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n_pix", [1, _MOMENT_BLOCK + 1])
    def test_matches_entrywise_oracle(self, n_pix, order, vc):
        rng = np.random.default_rng(31 * n_pix + 2 * order + vc)
        stack, slots, args = random_patch(rng, 3, n_pix, near_singular=True)
        amps = _amps(rng, 3)
        val, gz, hz = _slot_pixel_term(stack, slots, args, amps, order, vc)
        want = [pixel_term(slot, lane_args(args, i), amps[:, i:i + 1],
                           order, vc) for i, slot in enumerate(slots)]
        want_val, want_gz, want_hz = (
            None if parts[0] is None else np.concatenate(parts)
            for parts in zip(*want))
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
        stack, slots, args = random_patch(rng, 2, 40)
        amps = _amps(rng, 2)
        val0 = _slot_pixel_term(stack, slots, args, amps, 0, vc)[0]
        np.testing.assert_array_equal(
            val0, _slot_pixel_term(stack, slots, args, amps, 1, vc)[0])

    @pytest.mark.parametrize("vc", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    def test_lane_alone_equals_lane_in_stack(self, order, vc):
        rng = np.random.default_rng(11)
        stack, slots, args = random_patch(rng, 3, 2 * _MOMENT_BLOCK + 3,
                                          near_singular=True)
        amps = _amps(rng, 3)
        stacked = _slot_pixel_term(stack, slots, args, amps, order, vc)
        for i, slot in enumerate(slots):
            alone = _slot_pixel_term(slot, [slot], lane_args(args, i),
                                      amps[:, i:i + 1], order, vc)
            for a, s in zip(alone, stacked):
                if s is None:
                    assert a is None
                else:
                    np.testing.assert_array_equal(a[0], s[i])
