"""The galaxy Hessian contraction against its per-pixel oracle.

The fused kernel never builds a galaxy group's 15 packed Hessian rows per
pixel: :func:`repro.core.kernel._group_curvature` contracts them over
pixels from Hermite moments.  :func:`_group_hessian_rows` below builds the
same rows pixel by pixel, derived row by row from the closed forms rather
than from the Hermite table, so it is the independent check that algebra
is held to — do not rewrite it in terms of the contraction.
"""

import numpy as np
import pytest

from repro.core.kernel import (
    _MOMENT_BLOCK,
    _group_curvature,
    _group_features,
    _GroupWorkspace,
)


def _group_hessian_rows(gws, upx, upy, s1, s2, s3):
    """The packed 15-row galaxy Hessian (``_PAIRS`` order) per pixel,
    summed over components: ``(G, 15, M)``."""
    var = gws.var
    cxx = var * s1[:, None, None] + gws.pxx
    cxy = var * s2[:, None, None] + gws.pxy
    cyy = var * s3[:, None, None] + gws.pyy
    det = cxx * cyy - cxy * cxy
    ixx = cyy / det
    ixy = -cxy / det
    iyy = cxx / det
    alpha = gws.w2pi / np.sqrt(det)

    dx = gws.px - upx[:, None, None]
    dy = gws.py - upy[:, None, None]
    lx = ixx * dx + ixy * dy
    ly = ixy * dx + iyy * dy
    g = alpha * np.exp(-0.5 * (lx * dx + ly * dy))

    vg = var * g
    v2g = var * vg
    lx2 = lx * lx
    lxy = lx * ly
    ly2 = ly * ly
    d1 = 0.5 * (lx2 - ixx)
    d2 = lxy - ixy
    d3 = 0.5 * (ly2 - iyy)
    return np.stack([
        np.sum((lx2 - ixx) * g, axis=1),
        np.sum((lxy - ixy) * g, axis=1),
        np.sum((lx * (d1 - ixx)) * vg, axis=1),
        np.sum((lx * d2 - ixx * ly - ixy * lx) * vg, axis=1),
        np.sum((lx * d3 - ixy * ly) * vg, axis=1),
        np.sum((ly2 - iyy) * g, axis=1),
        np.sum((ly * d1 - ixy * lx) * vg, axis=1),
        np.sum((ly * d2 - ixy * ly - iyy * lx) * vg, axis=1),
        np.sum((ly * (d3 - iyy)) * vg, axis=1),
        np.sum((d1 * d1 - ixx * lx2 + 0.5 * ixx * ixx) * v2g, axis=1),
        np.sum((d1 * d2 - ixx * lxy - ixy * lx2 + ixx * ixy) * v2g, axis=1),
        np.sum((d1 * d3 - ixy * lxy + 0.5 * ixy * ixy) * v2g, axis=1),
        np.sum((d2 * d2 - ixx * ly2 - 2.0 * ixy * lxy - iyy * lx2
                + ixx * iyy + ixy * ixy) * v2g, axis=1),
        np.sum((d2 * d3 - ixy * ly2 - iyy * lxy + ixy * iyy) * v2g, axis=1),
        np.sum((d3 * d3 - iyy * ly2 + 0.5 * iyy * iyy) * v2g, axis=1),
    ], axis=1)


def _random_group(rng, n_lanes, n_comp, n_pix, near_singular):
    """A lane-stacked galaxy group on a raster of ``n_pix`` pixels with its
    per-lane position and shape inputs.  ``near_singular`` makes lane 0's
    first component a needle (covariance condition number ~1e5)."""
    side = int(np.ceil(np.sqrt(n_pix)))
    py, px = np.divmod(np.arange(n_pix), side)
    lanes = []
    for lane in range(n_lanes):
        w = rng.uniform(0.05, 1.0, (n_comp, 1))
        var = rng.uniform(0.1, 4.0, (n_comp, 1))
        mux, muy = rng.normal(0.0, 0.5, (2, n_comp, 1))
        pxx, pyy = rng.uniform(0.8, 3.0, (2, n_comp, 1))
        pxy = rng.uniform(-0.6, 0.6, (n_comp, 1))
        if near_singular and lane == 0:
            var[0], pxx[0], pxy[0], pyy[0] = 1e-3, 1.0, 0.99999, 1.0
        lanes.append(_GroupWorkspace((w, var, mux, muy, pxx, pxy, pyy),
                                     px.astype(float), py.astype(float)))
    upx = side / 2.0 + rng.normal(0.0, 0.5, n_lanes)
    upy = side / 2.0 + rng.normal(0.0, 0.5, n_lanes)
    s1, s3 = rng.uniform(0.5, 3.0, (2, n_lanes))
    s2 = rng.uniform(-0.5, 0.5, n_lanes) * np.sqrt(s1 * s3)
    if near_singular:
        s1[0], s2[0], s3[0] = 1.0, 0.9999, 1.0
    return lanes, (upx, upy, s1, s2, s3)


class TestContractedCurvature:
    """The kernel contracts the galaxy Hessian rows over pixels from
    Hermite moments and never builds them per pixel;
    ``_group_hessian_rows`` does, which makes it the independent oracle of
    that algebra."""

    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("n_pix", [1, 7, _MOMENT_BLOCK - 1,
                                       _MOMENT_BLOCK, _MOMENT_BLOCK + 1,
                                       3 * _MOMENT_BLOCK + 5])
    @pytest.mark.parametrize("n_comp", [8, 14])
    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_matches_contracted_per_pixel_rows(self, n_lanes, n_comp, n_pix,
                                               near_singular):
        rng = np.random.default_rng(1000 * n_lanes + 10 * n_comp + n_pix)
        lanes, args = _random_group(rng, n_lanes, n_comp, n_pix,
                                    near_singular)
        gws = _GroupWorkspace._concat(lanes)
        wts = rng.standard_normal((n_lanes, n_pix, 2))   # both signs
        rows = _group_hessian_rows(gws, *args)
        _, _, keep = _group_features(gws, *args, 2, "t")
        # "Relative" is to the sum of absolute per-pixel contributions —
        # the yardstick a reordered floating-point sum is held to.
        for cols in (wts, wts[:, :, :1]):   # with / without the variance
            out = _group_curvature(keep, cols)          # correction column
            assert out.shape == (n_lanes, 15, cols.shape[2])
            scale = np.matmul(np.abs(rows), np.abs(cols))
            assert np.all(np.abs(out - np.matmul(rows, cols))
                          <= 1e-11 * scale)

    def test_lane_alone_equals_lane_in_stack(self):
        rng = np.random.default_rng(5)
        n_pix = 2 * _MOMENT_BLOCK + 3
        lanes, args = _random_group(rng, 3, 14, n_pix, near_singular=True)
        wts = rng.standard_normal((3, n_pix, 2))
        _, _, keep = _group_features(_GroupWorkspace._concat(lanes), *args,
                                     2, "t")
        stacked = _group_curvature(keep, wts)
        for i, lane in enumerate(lanes):
            _, _, keep = _group_features(
                lane, *(a[i:i + 1] for a in args), 2, "t")
            np.testing.assert_array_equal(
                _group_curvature(keep, wts[i:i + 1])[0], stacked[i])
