"""Alternative execution targets for the fused ELBO kernel.

:mod:`repro.core.kernel` keeps the target-independent machinery — compile-once
workspaces, lane grouping, cache-blocked sweep splitting, the chain-rule
stage, the closed-form KL term — and routes the hot inner loop (the
per-patch pixel term) through a :class:`~repro.core.kernel.KernelTarget`.
This module provides the non-default targets:

- ``array_api`` — the pixel sweep written as pure array expressions against
  the stacks' array-API namespace (``__array_namespace__``), with no ``out=``
  aliasing and no borrowed scratch buffers.  On a NumPy host it runs the
  same math through a different evaluation order (stacked assembly instead
  of in-place accumulation), so it is the cheapest way to exercise the
  tolerance-parity harness; on an array-API accelerator namespace the same
  code is the porting seam.
- ``numba`` — the star/galaxy feature sweeps as ``@njit`` loops, fusing the
  per-component exponentials and contractions into one pass per pixel
  (registered only when ``numba`` imports; the name stays *known* either
  way so selection errors are informative).

Both targets promise **tolerance-level** parity with the NumPy reference,
not bit equality: they re-associate reductions, so their last bits differ.
That is exactly why the driver checkpoint-fingerprints the target name —
a resume never silently mixes targets (``tests/test_kernel_targets.py``).

**The per-pixel form here is an oracle.**  The reference target no longer
builds a galaxy group's 15 packed Hessian rows per pixel: it contracts
them over pixels from Hermite moments
(:func:`repro.core.kernel._group_curvature`).  This module keeps the
direct per-pixel formulation (:func:`_group_features_xp` and the numba
sweep), derived row by row from the closed forms rather than from the
Hermite table, so it is the independent check that algebra is tested
against (``TestContractedCurvature`` in ``tests/test_kernel_targets.py``)
— do not port the contraction here without leaving another oracle behind.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import (
    _PAIR_ROW,
    KernelTarget,
    register_kernel_target,
)

__all__ = ["ArrayApiTarget", "NumbaTarget"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover
    numba = None


def _namespace(arr):
    """The array-API namespace of ``arr`` (NumPy itself on a NumPy host —
    ``np.ndarray`` has advertised ``__array_namespace__`` since NumPy 2)."""
    ns = getattr(arr, "__array_namespace__", None)
    return ns() if ns is not None else np


def _mv(xp, a, w):
    """Per-lane matrix-vector contraction over pixels:
    ``(G, R, M) x (G, M) -> (G, R)``."""
    return xp.matmul(a, w[:, :, None])[:, :, 0]


def _star_features_xp(xp, pws, upx, upy, order):
    """:func:`repro.core.kernel._star_features` as pure array-API
    expressions: same contractions, assembled with ``stack`` instead of
    writes into borrowed scratch."""
    ixx, ixy, iyy = pws.s_ixx, pws.s_ixy, pws.s_iyy
    dx = pws.s_px - upx[:, None, None]
    dy = pws.s_py - upy[:, None, None]
    lx = ixx * dx + ixy * dy
    ly = ixy * dx + iyy * dy
    g = pws.s_alpha * xp.exp(-0.5 * (lx * dx + ly * dy))
    val = xp.sum(g, axis=1)
    grad = xp.stack([xp.sum(lx * g, axis=1), xp.sum(ly * g, axis=1)], axis=1)
    if order < 2:
        return val, grad, None
    hess = xp.stack([
        xp.sum((lx * lx - ixx) * g, axis=1),
        xp.sum((lx * ly - ixy) * g, axis=1),
        xp.sum((ly * ly - iyy) * g, axis=1),
    ], axis=1)
    return val, grad, hess


def _group_features_xp(xp, gws, upx, upy, s1, s2, s3, order):
    """:func:`repro.core.kernel._group_features` as pure array-API
    expressions (value, 5-gradient, packed 15-Hessian in ``_PAIRS``
    order)."""
    var = gws.var
    cxx = var * s1[:, None, None] + gws.pxx
    cxy = var * s2[:, None, None] + gws.pxy
    cyy = var * s3[:, None, None] + gws.pyy
    det = cxx * cyy - cxy * cxy
    ixx = cyy / det
    ixy = -cxy / det
    iyy = cxx / det
    alpha = gws.w2pi / xp.sqrt(det)

    dx = gws.px - upx[:, None, None]
    dy = gws.py - upy[:, None, None]
    lx = ixx * dx + ixy * dy
    ly = ixy * dx + iyy * dy
    g = alpha * xp.exp(-0.5 * (lx * dx + ly * dy))

    val = xp.sum(g, axis=1)
    vg = var * g
    lx2 = lx * lx
    lxy = lx * ly
    ly2 = ly * ly
    d1 = 0.5 * (lx2 - ixx)
    d2 = lxy - ixy
    d3 = 0.5 * (ly2 - iyy)

    grad = xp.stack([
        xp.sum(lx * g, axis=1),
        xp.sum(ly * g, axis=1),
        xp.sum(d1 * vg, axis=1),
        xp.sum(d2 * vg, axis=1),
        xp.sum(d3 * vg, axis=1),
    ], axis=1)
    if order < 2:
        return val, grad, None

    v2g = var * vg
    hess = xp.stack([
        xp.sum((lx2 - ixx) * g, axis=1),
        xp.sum((lxy - ixy) * g, axis=1),
        xp.sum((lx * (d1 - ixx)) * vg, axis=1),
        xp.sum((lx * d2 - ixx * ly - ixy * lx) * vg, axis=1),
        xp.sum((lx * d3 - ixy * ly) * vg, axis=1),
        xp.sum((ly2 - iyy) * g, axis=1),
        xp.sum((ly * d1 - ixy * lx) * vg, axis=1),
        xp.sum((ly * d2 - ixy * ly - iyy * lx) * vg, axis=1),
        xp.sum((ly * (d3 - iyy)) * vg, axis=1),
        xp.sum((d1 * d1 - ixx * lx2 + 0.5 * ixx * ixx) * v2g, axis=1),
        xp.sum((d1 * d2 - ixx * lxy - ixy * lx2 + ixx * ixy) * v2g, axis=1),
        xp.sum((d1 * d3 - ixy * lxy + 0.5 * ixy * ixy) * v2g, axis=1),
        xp.sum((d2 * d2 - ixx * ly2 - 2.0 * ixy * lxy - iyy * lx2
                + ixx * iyy + ixy * ixy) * v2g, axis=1),
        xp.sum((d2 * d3 - ixy * ly2 - iyy * lxy + ixy * iyy) * v2g, axis=1),
        xp.sum((d3 * d3 - iyy * ly2 + 0.5 * iyy * iyy) * v2g, axis=1),
    ], axis=1)
    return val, grad, hess


def _pixel_term_from_features(pws, chain, star_fn, group_fn, xp):
    """The pixel term's target-generic body: feature sweeps come from the
    target's ``star_fn``/``group_fn``; everything downstream mirrors
    :func:`repro.core.kernel._patch_pixel_term` as pure expressions over the
    namespace ``xp`` for the per-pixel ``(G, ..., M)`` work, with the small
    fixed-size ``(G, 10, 10)`` Hessian assembled host-side in NumPy."""
    order, vc = chain.order, chain.vc
    gsz = chain.n_lanes

    upx = pws.wa[:, 0, 0] * chain.ux + pws.wa[:, 0, 1] * chain.uy \
        + pws.wt[:, 0]
    upy = pws.wa[:, 1, 0] * chain.ux + pws.wa[:, 1, 1] * chain.uy \
        + pws.wt[:, 1]
    s1, s2, s3 = chain.shape_vals
    a_s, a_g, b_s, b_g = chain.slot_amps(pws.bands)
    amp_s = pws.iota * a_s.val
    amp_g = pws.iota * a_g.val
    dev = chain.dev

    gs, dgs, hgs = star_fn(xp, pws, upx, upy, order)
    gd, dgd, hgd = group_fn(xp, pws.dev, upx, upy, s1, s2, s3, order)
    ge, dge, hge = group_fn(xp, pws.exp, upx, upy, s1, s2, s3, order)

    devc = dev[:, None]
    dev5 = dev[:, None, None]
    ampsc = amp_s[:, None]
    ampgc = amp_g[:, None]
    gg = devc * gd + (1.0 - devc) * ge
    dgg = dev5 * dgd + (1.0 - dev5) * dge
    dlg = gd - ge
    dldg = dgd - dge

    x = pws.counts
    e = ampsc * gs + ampgc * gg
    f = pws.bg + e
    # f = background + nonnegative mixture flux with a validated-positive
    # background, so the reciprocal and log below are well-defined (the
    # NumPy reference carries the same argument).
    fi = 1.0 / f
    logf = xp.log(f)

    zero = xp.zeros(gs.shape)
    de = xp.stack([
        ampsc * dgs[:, 0] + ampgc * dgg[:, 0],
        ampsc * dgs[:, 1] + ampgc * dgg[:, 1],
        amp_g[:, None] * dgg[:, 2],
        amp_g[:, None] * dgg[:, 3],
        amp_g[:, None] * dgg[:, 4],
        gs,
        gg,
        zero,
        zero,
        ampgc * dlg,
    ], axis=1)

    if vc:
        amp2_s = pws.iota * pws.iota * b_s.val
        amp2_g = pws.iota * pws.iota * b_g.val
        amp2sc = amp2_s[:, None]
        amp2gc = amp2_g[:, None]
        gs2 = gs * gs
        gg2 = gg * gg
        e2 = amp2sc * gs2 + amp2gc * gg2
        v = e2 - e * e
        fi2 = fi * fi
        val = xp.sum(x * (logf - 0.5 * v * fi2) - f, axis=-1)
        phi_e = x * fi * (1.0 + (e + v * fi) * fi) - 1.0
        phi_e2 = -0.5 * x * fi2
        de2 = xp.stack([
            2.0 * (amp2sc * gs * dgs[:, 0] + amp2gc * gg * dgg[:, 0]),
            2.0 * (amp2sc * gs * dgs[:, 1] + amp2gc * gg * dgg[:, 1]),
            (2.0 * amp2_g)[:, None] * (gg * dgg[:, 2]),
            (2.0 * amp2_g)[:, None] * (gg * dgg[:, 3]),
            (2.0 * amp2_g)[:, None] * (gg * dgg[:, 4]),
            zero,
            zero,
            gs2,
            gg2,
            (2.0 * amp2_g)[:, None] * (gg * dlg),
        ], axis=1)
        gz = _mv(xp, de, phi_e) + _mv(xp, de2, phi_e2)
    else:
        val = xp.sum(x * logf - f, axis=-1)
        phi_e = x * fi - 1.0
        gz = _mv(xp, de, phi_e)

    if order < 2:
        return np.asarray(val), np.asarray(gz), None

    deT = xp.permute_dims(de, (0, 2, 1))
    if vc:
        phi_ee = -(x * fi * fi * fi) * (4.0 * e + 3.0 * v * fi)
        phi_ee2 = x * fi * fi * fi
        hz = xp.matmul(de * phi_ee[:, None, :], deT)
        cross = xp.matmul(de * phi_ee2[:, None, :],
                          xp.permute_dims(de2, (0, 2, 1)))
        hz = hz + cross + xp.permute_dims(cross, (0, 2, 1))
    else:
        hz = xp.matmul(de * (-x * fi * fi)[:, None, :], deT)

    # Curvature-of-e accumulation: a fixed 10x10 of per-lane scalars.  The
    # sweeps stay in xp; the assembly is host-side NumPy (array-API has no
    # ergonomic scatter, and a (G, 10, 10) of contracted scalars is not
    # worth keeping on an accelerator).
    amp_s = np.asarray(amp_s)
    amp_g = np.asarray(amp_g)
    devn = np.asarray(devc)
    t = np.zeros((gsz, 10, 10))
    ch = np.asarray(_mv(xp, hgs, phi_e))
    cg = devn * np.asarray(_mv(xp, hgd, phi_e)) \
        + (1.0 - devn) * np.asarray(_mv(xp, hge, phi_e))
    t[:, 0, 0] = amp_s * ch[:, 0] + amp_g * cg[:, 0]
    t[:, 0, 1] = amp_s * ch[:, 1] + amp_g * cg[:, 1]
    t[:, 1, 1] = amp_s * ch[:, 2] + amp_g * cg[:, 5]
    for (p, q), row in _PAIR_ROW.items():
        if q >= 2:
            t[:, p, q] += amp_g * cg[:, row]
    sg = np.asarray(_mv(xp, dgs, phi_e))
    t[:, 0, 5] = sg[:, 0]
    t[:, 1, 5] = sg[:, 1]
    gp = np.asarray(_mv(xp, dgg, phi_e))
    dl = np.asarray(_mv(xp, dldg, phi_e))
    for p in range(5):
        t[:, p, 6] = gp[:, p]
        t[:, p, 9] = amp_g * dl[:, p]
    t[:, 6, 9] = np.asarray(xp.sum(dlg * phi_e, axis=-1))

    if vc:
        amp2_s = np.asarray(amp2_s)
        amp2_g = np.asarray(amp2_g)
        wg = phi_e2 * gg
        cs2 = np.asarray(_mv(xp, hgs, phi_e2 * gs))
        cg2 = devn * np.asarray(_mv(xp, hgd, wg)) \
            + (1.0 - devn) * np.asarray(_mv(xp, hge, wg))
        m1 = np.asarray(xp.matmul(dgs * phi_e2[:, None, :],
                                  xp.permute_dims(dgs, (0, 2, 1))))
        m2 = np.asarray(xp.matmul(dgg * phi_e2[:, None, :],
                                  xp.permute_dims(dgg, (0, 2, 1))))
        t[:, 0, 0] += 2.0 * (amp2_s * (m1[:, 0, 0] + cs2[:, 0])
                             + amp2_g * (m2[:, 0, 0] + cg2[:, 0]))
        t[:, 0, 1] += 2.0 * (amp2_s * (m1[:, 0, 1] + cs2[:, 1])
                             + amp2_g * (m2[:, 0, 1] + cg2[:, 1]))
        t[:, 1, 1] += 2.0 * (amp2_s * (m1[:, 1, 1] + cs2[:, 2])
                             + amp2_g * (m2[:, 1, 1] + cg2[:, 5]))
        for (p, q), row in _PAIR_ROW.items():
            if q >= 2:
                t[:, p, q] += 2.0 * amp2_g * (m2[:, p, q] + cg2[:, row])
        sv = np.asarray(_mv(xp, gs[:, None, :] * dgs, phi_e2))
        t[:, 0, 7] = 2.0 * sv[:, 0]
        t[:, 1, 7] = 2.0 * sv[:, 1]
        gv = np.asarray(_mv(xp, gg[:, None, :] * dgg, phi_e2))
        mixv = np.asarray(_mv(
            xp, dlg[:, None, :] * dgg + gg[:, None, :] * dldg, phi_e2))
        for p in range(5):
            t[:, p, 8] = 2.0 * gv[:, p]
            t[:, p, 9] += 2.0 * amp2_g * mixv[:, p]
        t[:, 8, 9] = 2.0 * np.asarray(xp.sum(phi_e2 * (gg * dlg), axis=-1))
        t[:, 9, 9] += 2.0 * amp2_g * np.asarray(
            xp.sum(phi_e2 * (dlg * dlg), axis=-1))

    hz = np.asarray(hz).copy()
    hz += t
    hz += t.transpose(0, 2, 1)
    diag = np.arange(10)
    hz[:, diag, diag] -= t[:, diag, diag]
    return np.asarray(val), np.asarray(gz), hz


class ArrayApiTarget(KernelTarget):
    """Namespace-generic pixel sweeps."""

    name = "array_api"

    def pixel_term(self, pws, chain):
        return _pixel_term_from_features(
            pws, chain, _star_features_xp, _group_features_xp,
            _namespace(pws.counts))


register_kernel_target(ArrayApiTarget())


if numba is not None:  # pragma: no cover - requires the optional dependency

    @numba.njit(cache=True)
    def _star_sweep_nb(alpha, ixx, ixy, iyy, spx, spy, upx, upy, order):
        gsz, k, m = spx.shape
        val = np.zeros((gsz, m))
        grad = np.zeros((gsz, 2, m))
        hess = np.zeros((gsz, 3, m))
        for gi in range(gsz):
            for ki in range(k):
                a = alpha[gi, ki, 0]
                xx = ixx[gi, ki, 0]
                xy = ixy[gi, ki, 0]
                yy = iyy[gi, ki, 0]
                for mi in range(m):
                    dx = spx[gi, ki, mi] - upx[gi]
                    dy = spy[gi, ki, mi] - upy[gi]
                    lx = xx * dx + xy * dy
                    ly = xy * dx + yy * dy
                    g = a * np.exp(-0.5 * (lx * dx + ly * dy))
                    val[gi, mi] += g
                    grad[gi, 0, mi] += lx * g
                    grad[gi, 1, mi] += ly * g
                    if order >= 2:
                        hess[gi, 0, mi] += (lx * lx - xx) * g
                        hess[gi, 1, mi] += (lx * ly - xy) * g
                        hess[gi, 2, mi] += (ly * ly - yy) * g
        return val, grad, hess

    @numba.njit(cache=True)
    def _group_sweep_nb(w2pi, var, pxx, pxy, pyy, gpx, gpy,
                        upx, upy, s1, s2, s3, order):
        gsz, j, m = gpx.shape
        val = np.zeros((gsz, m))
        grad = np.zeros((gsz, 5, m))
        hess = np.zeros((gsz, 15, m))
        for gi in range(gsz):
            for ji in range(j):
                w = w2pi[gi, ji, 0]
                vr = var[gi, ji, 0]
                cxx = vr * s1[gi] + pxx[gi, ji, 0]
                cxy = vr * s2[gi] + pxy[gi, ji, 0]
                cyy = vr * s3[gi] + pyy[gi, ji, 0]
                det = cxx * cyy - cxy * cxy
                xx = cyy / det
                xy = -cxy / det
                yy = cxx / det
                a = w / np.sqrt(det)
                for mi in range(m):
                    dx = gpx[gi, ji, mi] - upx[gi]
                    dy = gpy[gi, ji, mi] - upy[gi]
                    lx = xx * dx + xy * dy
                    ly = xy * dx + yy * dy
                    g = a * np.exp(-0.5 * (lx * dx + ly * dy))
                    vg = vr * g
                    lx2 = lx * lx
                    lxy = lx * ly
                    ly2 = ly * ly
                    d1 = 0.5 * (lx2 - xx)
                    d2 = lxy - xy
                    d3 = 0.5 * (ly2 - yy)
                    val[gi, mi] += g
                    grad[gi, 0, mi] += lx * g
                    grad[gi, 1, mi] += ly * g
                    grad[gi, 2, mi] += d1 * vg
                    grad[gi, 3, mi] += d2 * vg
                    grad[gi, 4, mi] += d3 * vg
                    if order >= 2:
                        v2g = vr * vg
                        hess[gi, 0, mi] += (lx2 - xx) * g
                        hess[gi, 1, mi] += (lxy - xy) * g
                        hess[gi, 2, mi] += (lx * (d1 - xx)) * vg
                        hess[gi, 3, mi] += (lx * d2 - xx * ly - xy * lx) * vg
                        hess[gi, 4, mi] += (lx * d3 - xy * ly) * vg
                        hess[gi, 5, mi] += (ly2 - yy) * g
                        hess[gi, 6, mi] += (ly * d1 - xy * lx) * vg
                        hess[gi, 7, mi] += (ly * d2 - xy * ly - yy * lx) * vg
                        hess[gi, 8, mi] += (ly * (d3 - yy)) * vg
                        hess[gi, 9, mi] += (d1 * d1 - xx * lx2
                                            + 0.5 * xx * xx) * v2g
                        hess[gi, 10, mi] += (d1 * d2 - xx * lxy - xy * lx2
                                             + xx * xy) * v2g
                        hess[gi, 11, mi] += (d1 * d3 - xy * lxy
                                             + 0.5 * xy * xy) * v2g
                        hess[gi, 12, mi] += (d2 * d2 - xx * ly2 - 2.0 * xy * lxy
                                             - yy * lx2 + xx * yy
                                             + xy * xy) * v2g
                        hess[gi, 13, mi] += (d2 * d3 - xy * ly2 - yy * lxy
                                             + xy * yy) * v2g
                        hess[gi, 14, mi] += (d3 * d3 - yy * ly2
                                             + 0.5 * yy * yy) * v2g
        return val, grad, hess

    def _broadcast_lanes(arr, gsz):
        """JIT loops index lanes directly; expand a shared (1, ..) stack."""
        return np.broadcast_to(arr, (gsz,) + arr.shape[1:]) \
            if arr.shape[0] != gsz else arr

    def _star_features_nb(xp, pws, upx, upy, order):
        gsz = upx.shape[0]
        args = [_broadcast_lanes(np.ascontiguousarray(a), gsz)
                for a in (pws.s_alpha, pws.s_ixx, pws.s_ixy, pws.s_iyy,
                          pws.s_px, pws.s_py)]
        val, grad, hess = _star_sweep_nb(*args, upx, upy, order)
        return val, grad, hess if order >= 2 else None

    def _group_features_nb(xp, gws, upx, upy, s1, s2, s3, order):
        gsz = upx.shape[0]
        args = [_broadcast_lanes(np.ascontiguousarray(a), gsz)
                for a in (gws.w2pi, gws.var, gws.pxx, gws.pxy, gws.pyy,
                          gws.px, gws.py)]
        val, grad, hess = _group_sweep_nb(*args, upx, upy, s1, s2, s3, order)
        return val, grad, hess if order >= 2 else None

    class NumbaTarget(KernelTarget):
        """JIT feature sweeps; shares the generic assembly stage with
        :class:`ArrayApiTarget` (the assembly is pixel-count-independent
        GEMM work NumPy already does well)."""

        name = "numba"

        def pixel_term(self, pws, chain):
            return _pixel_term_from_features(
                pws, chain, _star_features_nb, _group_features_nb, np)

    register_kernel_target(NumbaTarget())
