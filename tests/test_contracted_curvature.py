"""The galaxy Hessian contraction against its per-pixel oracle.

The fused kernel never builds the mixed galaxy profile's 15 packed Hessian
rows per pixel: :func:`repro.core.kernel._galaxy_curvature` contracts them
over pixels from Hermite moments, for the dev and exp groups in one call
(their coefficient bases scaled by ``e_dev`` and ``1 - e_dev``).
``pixel_oracle.group_hessian_rows`` builds each group's rows pixel by
pixel, derived row by row from the closed forms rather than from the
Hermite table, so it is the independent check that algebra is held to.
"""

import numpy as np
import pytest

from pixel_oracle import lane_args, mixed_hessian_rows, random_patch
from repro.core.kernel import (
    _MOMENT_BLOCK,
    _covariances,
    _curvature_basis,
    _galaxy_curvature,
    _galaxy_moments,
    _mixture,
    _row_mix,
)


def _contracted(pws, args, wts):
    upx, upy, s1, s2, s3, dev = args
    icov, alpha = _covariances(pws, np.stack([s1, s2, s3], axis=1))
    lx, ly, mono = _mixture(pws, np.stack([upx, upy], axis=1), icov, alpha)
    n_gal = icov.shape[1] - pws.n_star
    mom = np.zeros((len(dev), 15, n_gal, wts.shape[2]))
    _galaxy_moments(pws, lx, ly, mono, wts, mom)
    return _galaxy_curvature(
        _curvature_basis(pws, icov, _row_mix(pws, dev)), mom)


class TestContractedCurvature:
    """The kernel contracts the mixed galaxy Hessian rows over pixels from
    Hermite moments and never builds them per pixel; the oracle does, which
    makes it the independent check of that algebra."""

    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("n_pix", [1, 7, _MOMENT_BLOCK - 1,
                                       _MOMENT_BLOCK, _MOMENT_BLOCK + 1,
                                       3 * _MOMENT_BLOCK + 5])
    @pytest.mark.parametrize("n_comp", [8, 14])
    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_matches_contracted_per_pixel_rows(self, n_lanes, n_comp, n_pix,
                                               near_singular):
        rng = np.random.default_rng(1000 * n_lanes + 10 * n_comp + n_pix)
        pws, _, args = random_patch(rng, n_lanes, n_pix, n_dev=n_comp,
                                    near_singular=near_singular)
        wts = rng.standard_normal((n_lanes, n_pix, 2))   # both signs
        rows, row_scale = mixed_hessian_rows(pws, *args)
        # "Relative" is to the sum of absolute per-pixel contributions —
        # the yardstick a reordered floating-point sum is held to.
        for cols in (wts, wts[:, :, :1]):   # with / without the variance
            out = _contracted(pws, args, cols)          # correction column
            assert out.shape == (n_lanes, 15, cols.shape[2])
            scale = np.matmul(row_scale, np.abs(cols))
            assert np.all(np.abs(out - np.matmul(rows, cols))
                          <= 1e-11 * scale)

    @pytest.mark.parametrize("dev", [0.0, 1.0])
    def test_dev_fraction_selects_one_group(self, dev):
        rng = np.random.default_rng(17)
        pws, _, args = random_patch(rng, 2, _MOMENT_BLOCK + 9)
        args = args[:5] + (np.full(2, dev),)
        wts = rng.standard_normal((2, _MOMENT_BLOCK + 9, 2))
        rows, row_scale = mixed_hessian_rows(pws, *args)
        out = _contracted(pws, args, wts)
        assert np.all(np.abs(out - np.matmul(rows, wts))
                      <= 1e-11 * np.matmul(row_scale, np.abs(wts)))

    def test_lane_alone_equals_lane_in_stack(self):
        rng = np.random.default_rng(5)
        n_pix = 2 * _MOMENT_BLOCK + 3
        pws, slots, args = random_patch(rng, 3, n_pix, near_singular=True)
        wts = rng.standard_normal((3, n_pix, 2))
        stacked = _contracted(pws, args, wts)
        for i, slot in enumerate(slots):
            np.testing.assert_array_equal(
                _contracted(slot, lane_args(args, i), wts[i:i + 1])[0],
                stacked[i])
