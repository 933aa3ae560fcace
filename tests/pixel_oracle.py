"""Per-pixel oracles of the fused kernel's pixel term.

The kernel (:mod:`repro.core.kernel`) forms every per-pixel feature row from
one set of degree-<=2 monomials with per-lane coefficients, contracts the
galaxy Hessian rows over pixels from Hermite moments, and assembles the
z-gradient and z-Hessian through a fixed scatter.  The functions here do the
same arithmetic the direct way — per component, per pixel, row by row from
the closed forms (the star and per-group galaxy features, the mixing of the
dev and exp groups, the 15 packed Hessian rows, and the entry-by-entry
z-Hessian accumulation) — so they are the independent checks that algebra
is held to.  Do not rewrite them in terms of the kernel's contractions.

``random_patch`` builds patch slots (star, dev and exp components on one
pixel raster) and the prologue stack of their pairs for the tests to drive
both through.  The oracles take one slot and its lane's inputs at a time,
and keep a leading lane axis of length one.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.kernel import _PAIRS, _PairStack, _PatchWorkspace
from repro.survey import AffineWCS

#: Component counts of the random patches: star (PSF), exp.  The dev count
#: is a parameter of :func:`random_patch`.
N_STAR, N_EXP = 2, 8


def _col(values):
    return np.asarray(values, dtype=float)[:, None]


def _random_slot(rng, n_pix, side, n_dev, needle):
    """One lane's patch slot as the kernel's workspace sees it."""
    def psf_cov(n):
        pxx, pyy = rng.uniform(0.8, 3.0, (2, n))
        pxy = rng.uniform(-0.6, 0.6, n)
        return pxx, pxy, pyy

    sxx, sxy, syy = psf_cov(N_STAR)
    mux, muy = rng.normal(0.0, 0.5, (2, N_STAR))
    if needle:   # a star component with condition number ~1e5
        sxx[0], sxy[0], syy[0] = 1.0, 0.99999, 1.0
    star = tuple(_col(a) for a in (rng.uniform(0.2, 1.0, N_STAR), mux, muy,
                                   sxx, sxy, syy))
    groups = {}
    for name, n in (("dev", n_dev), ("exp", N_EXP)):
        w = rng.uniform(0.05, 1.0, n)
        var = rng.uniform(0.1, 4.0, n)
        gx, gy = rng.normal(0.0, 0.5, (2, n))
        pxx, pxy, pyy = psf_cov(n)
        if needle and name == "dev":   # the galaxy needle of lane 0
            var[0], pxx[0], pxy[0], pyy[0] = 1e-3, 1.0, 0.99999, 1.0
        groups[name] = tuple(_col(a) for a in (w, var, gx, gy, pxx, pxy,
                                               pyy))
    py, px = np.divmod(np.arange(n_pix), side)
    patch = SimpleNamespace(
        band=2, calibration=rng.uniform(50.0, 150.0),
        counts=rng.poisson(120.0, n_pix).astype(float),
        background=rng.uniform(80.0, 120.0, n_pix), n_pixels=n_pix,
        star_arrays=star, gal_arrays=groups,
        px=px.astype(float), py=py.astype(float),
        wcs=AffineWCS.translation(0.0, 0.0))
    return _PatchWorkspace(patch)


def random_patch(rng, n_lanes, n_pix, n_dev=14, near_singular=False):
    """``n_lanes`` same-shaped patch slots on a raster of ``n_pix`` pixels,
    one (lane, patch) pair each, with per-lane spatial inputs.

    Returns ``(stack, slots, args)``: the pairs' prologue stack (a
    :class:`_PairStack`), the patch slots whose pixel passes read them,
    and ``(upx, upy, s1, s2, s3, dev)`` — pixel-frame positions, galaxy
    shape covariance entries and the dev fraction, one entry per lane.
    ``near_singular`` makes lane 0's first star and first dev component
    needles and its shape nearly singular."""
    side = int(np.ceil(np.sqrt(n_pix)))
    slots = [_random_slot(rng, n_pix, side, n_dev, near_singular and i == 0)
             for i in range(n_lanes)]
    upx = side / 2.0 + rng.normal(0.0, 0.5, n_lanes)
    upy = side / 2.0 + rng.normal(0.0, 0.5, n_lanes)
    s1, s3 = rng.uniform(0.5, 3.0, (2, n_lanes))
    s2 = rng.uniform(-0.5, 0.5, n_lanes) * np.sqrt(s1 * s3)
    dev = rng.uniform(0.05, 0.95, n_lanes)
    if near_singular:
        s1[0], s2[0], s3[0] = 1.0, 0.9999, 1.0
    return _PairStack.concat(slots), slots, (upx, upy, s1, s2, s3, dev)


def lane_args(args, lane):
    """The one-lane slice of :func:`random_patch`'s ``args``."""
    return tuple(a[lane:lane + 1] for a in args)


# ---------------------------------------------------------------------------
# Per-component, per-pixel closed forms


def _group(pws, group):
    """One component group's arrays, sliced out of the slot's merged
    component axis, with a lane axis of one: ``(w2pi, var, pxx, pxy, pyy,
    px, py)``."""
    ns, nd = pws.n_star, pws.n_dev
    sl = {"star": slice(0, ns), "dev": slice(ns, ns + nd),
          "exp": slice(ns + nd, None)}[group]
    pxx, pxy, pyy = (pws.pcov[:, sl, i:i + 1] for i in range(3))
    grid = (pws.pix - pws.mu)[None]
    return (pws.w2pi[:, sl], pws.var[:, sl], pxx, pxy, pyy,
            grid[:, 0, sl], grid[:, 1, sl])


def _components(pws, group, upx, upy, s1, s2, s3):
    """Per-component ``(ixx, ixy, iyy, var, lx, ly, g)`` of one group."""
    w2pi, var, pxx, pxy, pyy, px, py = _group(pws, group)
    cxx = var * s1[:, None, None] + pxx
    cxy = var * s2[:, None, None] + pxy
    cyy = var * s3[:, None, None] + pyy
    det = cxx * cyy - cxy * cxy
    ixx = cyy / det
    ixy = -cxy / det
    iyy = cxx / det
    dx = px - upx[:, None, None]
    dy = py - upy[:, None, None]
    lx = ixx * dx + ixy * dy
    ly = ixy * dx + iyy * dy
    g = w2pi / np.sqrt(det) * np.exp(-0.5 * (lx * dx + ly * dy))
    return ixx, ixy, iyy, var, lx, ly, g


def star_rows(pws, upx, upy):
    """Per-component star rows ``(G, 6, K, M)``: value, position gradient
    ``(x, y)``, position Hessian ``(xx, xy, yy)``."""
    zero = np.zeros_like(upx)
    ixx, ixy, iyy, _, lx, ly, g = _components(pws, "star", upx, upy,
                                              zero, zero, zero)
    return np.stack([g, lx * g, ly * g, (lx * lx - ixx) * g,
                     (lx * ly - ixy) * g, (ly * ly - iyy) * g], axis=1)


def group_rows(pws, group, upx, upy, s1, s2, s3):
    """Per-component galaxy rows ``(G, 6, J, M)``: value and gradient over
    ``[upx, upy, sxx, sxy, syy]``."""
    ixx, ixy, iyy, var, lx, ly, g = _components(pws, group, upx, upy,
                                                s1, s2, s3)
    vg = var * g
    return np.stack([g, lx * g, ly * g, (0.5 * (lx * lx - ixx)) * vg,
                     (lx * ly - ixy) * vg, (0.5 * (ly * ly - iyy)) * vg],
                    axis=1)


def feature_rows(pws, upx, upy, s1, s2, s3, dev):
    """The per-pixel feature rows and their yardsticks, each ``(G, M)`` or
    ``(G, n, M)``, keyed by name: the star's ``gs``, ``dgs``, ``hgs``; the
    mixed galaxy profile ``gg = dev g_dev + (1 - dev) g_exp`` and its
    gradient ``dgg``; and ``dlg = g_dev - g_exp`` and its gradient
    ``dldg``.  The yardstick of a row is the sum over components of its
    absolute per-component contributions."""
    star = star_rows(pws, upx, upy)
    d = group_rows(pws, "dev", upx, upy, s1, s2, s3)
    e = group_rows(pws, "exp", upx, upy, s1, s2, s3)
    dv = dev[:, None, None]
    sd, se = d.sum(axis=2), e.sum(axis=2)
    ad, ae = np.abs(d).sum(axis=2), np.abs(e).sum(axis=2)
    s, a = star.sum(axis=2), np.abs(star).sum(axis=2)
    mixed, mixed_abs = dv * sd + (1.0 - dv) * se, dv * ad + (1.0 - dv) * ae
    return {"gs": (s[:, 0], a[:, 0]), "dgs": (s[:, 1:3], a[:, 1:3]),
            "hgs": (s[:, 3:], a[:, 3:]),
            "gg": (mixed[:, 0], mixed_abs[:, 0]),
            "dgg": (mixed[:, 1:], mixed_abs[:, 1:]),
            "dlg": (sd[:, 0] - se[:, 0], ad[:, 0] + ae[:, 0]),
            "dldg": (sd[:, 1:] - se[:, 1:], ad[:, 1:] + ae[:, 1:])}


def group_hessian_rows(pws, group, upx, upy, s1, s2, s3):
    """One galaxy group's packed 15-row Hessian (``_PAIRS`` order) per
    pixel, summed over components: ``(G, 15, M)``."""
    ixx, ixy, iyy, var, lx, ly, g = _components(pws, group, upx, upy,
                                                s1, s2, s3)
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


def mixed_hessian_rows(pws, upx, upy, s1, s2, s3, dev):
    """The mixed profile's packed Hessian rows per pixel, ``(G, 15, M)``,
    and the yardstick ``dev |H_dev| + (1 - dev) |H_exp|``."""
    hd = group_hessian_rows(pws, "dev", upx, upy, s1, s2, s3)
    he = group_hessian_rows(pws, "exp", upx, upy, s1, s2, s3)
    dv = dev[:, None, None]
    return (dv * hd + (1.0 - dv) * he,
            dv * np.abs(hd) + (1.0 - dv) * np.abs(he))


def pixel_term(pws, args, amps, order, vc):
    """One patch slot's value, z-gradient and z-Hessian, built per pixel
    from the rows above and accumulated entry by entry; the reference the
    kernel's assembly is held to.  ``amps`` is ``(4, G)``: the uncalibrated
    ``(A_star, A_gal, B_star, B_gal)``."""
    upx, upy, s1, s2, s3, dev = args
    rows = {k: v[0] for k, v in
            feature_rows(pws, upx, upy, s1, s2, s3, dev).items()}
    gs, dgs, hgs = rows["gs"], rows["dgs"], rows["hgs"]
    gg, dgg, dlg, dldg = rows["gg"], rows["dgg"], rows["dlg"], rows["dldg"]
    hgg = mixed_hessian_rows(pws, upx, upy, s1, s2, s3, dev)[0]
    gsz = upx.shape[0]

    def mv(a, w):
        return np.einsum("g...m,gm->g...", a, w)

    amp_s, amp_g = pws.iota * amps[0], pws.iota * amps[1]
    amp2_s, amp2_g = pws.iota ** 2 * amps[2], pws.iota ** 2 * amps[3]
    sc, gc = amp_s[:, None], amp_g[:, None]
    x = pws.counts
    e = sc * gs + gc * gg
    f = pws.bg + e
    fi = 1.0 / f
    de = np.zeros((gsz, 10, f.shape[1]))
    de[:, 0] = sc * dgs[:, 0] + gc * dgg[:, 0]
    de[:, 1] = sc * dgs[:, 1] + gc * dgg[:, 1]
    de[:, 2:5] = gc[:, :, None] * dgg[:, 2:5]
    de[:, 5] = gs
    de[:, 6] = gg
    de[:, 9] = gc * dlg
    if vc:
        s2c, g2c = amp2_s[:, None], amp2_g[:, None]
        v = s2c * gs * gs + g2c * gg * gg - e * e
        val = np.sum(x * (np.log(f) - 0.5 * v * fi * fi) - f, axis=-1)
        phi_e = x * fi * (1.0 + (e + v * fi) * fi) - 1.0
        phi_e2 = -0.5 * x * fi * fi
        de2 = np.zeros_like(de)
        de2[:, 0] = 2.0 * (s2c * gs * dgs[:, 0] + g2c * gg * dgg[:, 0])
        de2[:, 1] = 2.0 * (s2c * gs * dgs[:, 1] + g2c * gg * dgg[:, 1])
        de2[:, 2:5] = 2.0 * g2c[:, :, None] * gg[:, None] * dgg[:, 2:5]
        de2[:, 7] = gs * gs
        de2[:, 8] = gg * gg
        de2[:, 9] = 2.0 * g2c * gg * dlg
        gz = mv(de, phi_e) + mv(de2, phi_e2)
    else:
        val = np.sum(x * np.log(f) - f, axis=-1)
        phi_e = x * fi - 1.0
        gz = mv(de, phi_e)
    if order < 2:
        return val, gz, None

    if vc:
        phi_ee = -(x * fi ** 3) * (4.0 * e + 3.0 * v * fi)
        cross = np.einsum("gpm,gm,gqm->gpq", de, x * fi ** 3, de2)
        hz = np.einsum("gpm,gm,gqm->gpq", de, phi_ee, de) + cross
        hz += cross.transpose(0, 2, 1)
    else:
        hz = np.einsum("gpm,gm,gqm->gpq", de, -x * fi * fi, de)
    t = np.zeros((gsz, 10, 10))
    ch = mv(hgs, phi_e)
    cg = mv(hgg, phi_e)
    for r, (p, q) in enumerate(_PAIRS):
        t[:, p, q] += amp_g * cg[:, r]
    for i, (p, q) in enumerate(((0, 0), (0, 1), (1, 1))):
        t[:, p, q] += amp_s * ch[:, i]
    sg, gp, dl = mv(dgs, phi_e), mv(dgg, phi_e), mv(dldg, phi_e)
    t[:, 0, 5], t[:, 1, 5] = sg[:, 0], sg[:, 1]
    for p in range(5):
        t[:, p, 6] = gp[:, p]
        t[:, p, 9] = amp_g * dl[:, p]
    t[:, 6, 9] = np.sum(dlg * phi_e, axis=-1)
    if vc:
        cs2 = mv(hgs, phi_e2 * gs)
        cg2 = mv(hgg, phi_e2 * gg)
        m1 = np.einsum("gpm,gm,gqm->gpq", dgs, phi_e2, dgs)
        m2 = np.einsum("gpm,gm,gqm->gpq", dgg, phi_e2, dgg)
        for r, (p, q) in enumerate(_PAIRS):
            t[:, p, q] += 2.0 * amp2_g * (m2[:, p, q] + cg2[:, r])
        for i, (p, q) in enumerate(((0, 0), (0, 1), (1, 1))):
            t[:, p, q] += 2.0 * amp2_s * (m1[:, p, q] + cs2[:, i])
        sv = mv(gs[:, None] * dgs, phi_e2)
        t[:, 0, 7], t[:, 1, 7] = 2.0 * sv[:, 0], 2.0 * sv[:, 1]
        gv = mv(gg[:, None] * dgg, phi_e2)
        mixv = mv(dlg[:, None] * dgg + gg[:, None] * dldg, phi_e2)
        for p in range(5):
            t[:, p, 8] = 2.0 * gv[:, p]
            t[:, p, 9] += 2.0 * amp2_g * mixv[:, p]
        t[:, 8, 9] = 2.0 * np.sum(phi_e2 * gg * dlg, axis=-1)
        t[:, 9, 9] += 2.0 * amp2_g * np.sum(phi_e2 * dlg * dlg, axis=-1)
    diag = np.arange(10)
    hz += t + t.transpose(0, 2, 1)
    hz[:, diag, diag] -= t[:, diag, diag]
    return val, gz, hz
