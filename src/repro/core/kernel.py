"""The fused analytic ELBO kernel: compile once, evaluate many.

This is the one implementation of the objective's derivatives, the
reproduction's analogue of Celeste's hand-optimized derivative kernels.  A
mechanical alternative — one sparse-index Taylor expression tree, dozens of
NumPy temporaries, rebuilt on every Newton iteration of every source — is
kept in ``tests/taylor_oracle/`` as the reference this kernel is tested
against; it is not a production path.

**Compile once.**  The first evaluation of a :class:`SourceContext` compiles
its pixel-static data into a :class:`_FusedWorkspace`: per-patch pixel grids
offset by every PSF / galaxy-profile component mean, pre-inverted (constant)
PSF covariances with their normalizers, the affine WCS coefficients, and
float views of counts and backgrounds.  The workspace is cached on the
context and reused by every later evaluation (a Newton solve evaluates the
same context tens of times).

**Evaluate fused.**  Each evaluation computes the Poisson pixel term's
value, 41-gradient, and 41x41 Hessian from closed-form block formulas, with
no expression-graph construction:

1. Per patch, the star density and the two galaxy profile groups (dev/exp)
   are Gaussian mixtures whose derivatives in a 5-dimensional *spatial*
   space — pixel-frame position ``(upx, upy)`` and the galaxy shape
   covariance entries ``(sxx, sxy, syy)`` — are polynomials in the
   whitened offsets ``l = C^{-1} d`` times the density itself.  All
   components evaluate in one batched ``(K, M)`` sweep and contract
   immediately to per-pixel feature rows (value and 5 gradient rows).
   The 15 packed Hessian rows of a galaxy group are only ever needed
   summed over pixels against two weight vectors, so they are never built
   per pixel: they are contracted from Hermite moments
   (:func:`_group_curvature`).
2. The expected rate ``E[F]`` and second moment are *bilinear* in those
   per-pixel features and a 10-dimensional per-patch intermediate vector
   ``z = (upx, upy, sxx, sxy, syy, A_star, A_gal, B_star, B_gal,
   e_dev)`` whose amplitude entries fold calibration, type probability,
   and the log-normal flux moments.  The expected Poisson log-likelihood
   ``x E[log F] - E[F]`` (with the delta-approximation variance term)
   chains through per-pixel scalars, giving the patch value, its 10-vector
   z-gradient, and its 10x10 z-Hessian via a handful of matrix products.
3. The z-space blocks chain to the 41 free parameters through closed-form
   bijector/WCS/flux-moment Jacobians and Hessians that are independent of
   pixel count — the wide-parameter outer products an expression tree
   would materialize per pixel never exist here.

The pixel term touches only the first 27 free parameters (everything except
the color-prior responsibilities ``k``), so the chain accumulates in a dense
27-space and scatters once at the end.

**Closed-form KL terms.**  The (pixel-count-independent) KL terms are fused
too: :class:`KlWorkspace` compiles the prior-dependent constants (log prior
odds, inverse prior variances, mixture log-weights and normalizer sums)
once per prior configuration and evaluates the exact KL value, 41-gradient,
and 41x41 Hessian from hand-derived formulas — Bernoulli type-KL,
per-type Gaussian log-brightness KL, and the color GMM term with its
variational categorical, chained through the logistic-bijector and
fixed-last-softmax derivatives of :mod:`repro.transforms.bijectors`.  The
Taylor KL expression in ``tests/taylor_oracle/`` is the oracle the
randomized parity tests pin this kernel against.

**Batch evaluation.**  Every pixel-static array carries a leading *lane*
axis, and :class:`_FusedBatchWorkspace` concatenates same-shaped contexts
along it, so one stacked NumPy sweep evaluates a whole batch of sources —
the reproduction's analogue of the paper's AVX-512 batching of objective
evaluations across light sources.  A single-source evaluation is the
lane-count-1 case of the same code, and lanes are grouped by shape
rather than padded (padding cannot be bit-exact: NumPy's pairwise-summation
grouping depends on the reduced length), which makes every lane's result
bit-for-bit independent of what shares its batch — the invariant the lockstep
optimizer (:func:`repro.core.single.optimize_sources_batch`) and the
driver's catalog-level parity tests rely on.

**Per-thread scratch.**  Large per-evaluation temporaries (feature stacks,
chain-rule rows) are borrowed from a thread-local pool keyed by shape, so a
Cyclades worker thread re-uses the same buffers across every iteration of
every source it updates (see :mod:`repro.parallel.cyclades`); pools are
bounded and released by the executor when an assignment completes.

**One implementation.**  The per-patch pixel term
(:func:`_patch_pixel_term`) is written once, as the stacked NumPy sweeps
above, and every evaluation runs it.  Its oracles live in the tests: the
Taylor-mode ELBO for the whole objective (``tests/taylor_oracle/``, pinned
by ``tests/test_elbo_backends.py``) and a direct per-pixel build of the
galaxy Hessian rows for the Hermite-moment contraction
(``tests/test_contracted_curvature.py``).

Only affine WCS maps are supported (the survey's are); the workspace probes
the map numerically rather than reaching into its attributes.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import GALAXY, NUM_COLOR_COMPONENTS, NUM_COLORS, STAR
from repro.core.fluxes import COLOR_COEFFS
from repro.core.params import (
    FREE,
    U_BOX_HALFWIDTH,
    _BIJ_AXIS,
    _BIJ_DEV,
    _BIJ_PROB,
    _BIJ_R2,
    _BIJ_C2,
    _BIJ_SCALE,
)
from repro.core.priors import Priors
from repro.transforms import LogitBox
from repro.transforms.bijectors import softmax_fixed_last_d012_stacked

if TYPE_CHECKING:
    from repro.core.elbo import SourceContext

__all__ = ["ElboEval", "KlWorkspace", "elbo_fused_batch", "elbo_kl_fused",
           "release_scratch"]

_TWO_PI = 2.0 * np.pi

# ---------------------------------------------------------------------------
# Free-parameter index bookkeeping.  The pixel term touches exactly the
# first _N_ACTIVE free parameters (a, u, r1, r2, c1, c2, and the four shape
# parameters); the color-prior responsibilities k enter only through the KL
# terms.

_IDX_A = FREE["a"].start
_IDX_U = FREE.indices("u")
_IDX_DEV = FREE["e_dev"].start
_SHAPE_IDX = [FREE["e_axis"].start, FREE["e_angle"].start,
              FREE["e_scale"].start]
_N_ACTIVE = FREE["k"].start
assert _N_ACTIVE == 27


def _flux_free_indices(ty: int) -> list[int]:
    """Free indices of one type's flux block, ordered
    ``[r1, r2, c1_0..3, c2_0..3]`` to match the flux chain layout."""
    r1 = FREE.indices("r1")
    r2 = FREE.indices("r2")
    c1 = FREE.indices("c1")
    c2 = FREE.indices("c2")
    return ([r1[ty], r2[ty]]
            + [c1[ty * NUM_COLORS + i] for i in range(NUM_COLORS)]
            + [c2[ty * NUM_COLORS + i] for i in range(NUM_COLORS)])


_FLUX_IDX = (_flux_free_indices(STAR), _flux_free_indices(GALAXY))
#: Amplitude-chain index lists: the type probability logit plus the flux
#: block (11 indices, ascending by construction of the FREE layout).
_AMP_IDX = ([_IDX_A] + _FLUX_IDX[STAR], [_IDX_A] + _FLUX_IDX[GALAXY])

_BIJ_U = LogitBox(-U_BOX_HALFWIDTH, U_BOX_HALFWIDTH)

#: Packed upper-triangle pair order of the 5 spatial variables
#: ``[upx, upy, sxx, sxy, syy]`` used for feature-Hessian rows.
_PAIRS = [(p, q) for p in range(5) for q in range(p, 5)]
_PAIR_ROW = {pq: r for r, pq in enumerate(_PAIRS)}

# KL-term index bookkeeping: the free indices of one type's blocks, in the
# local order the KL kernel accumulates them ``[r1, r2, c1 x4, c2 x4, k x7]``.
_IDX_R1 = FREE.indices("r1")
_IDX_R2 = FREE.indices("r2")
_IDX_C1 = np.asarray(FREE.indices("c1")).reshape(2, NUM_COLORS)
_IDX_C2 = np.asarray(FREE.indices("c2")).reshape(2, NUM_COLORS)
_IDX_K = np.asarray(FREE.indices("k")).reshape(2, NUM_COLOR_COMPONENTS - 1)
_KL_TYPE_IDX = tuple(
    np.concatenate(([_IDX_R1[ty], _IDX_R2[ty]], _IDX_C1[ty], _IDX_C2[ty],
                    _IDX_K[ty]))
    for ty in (STAR, GALAXY))
_LOG_2PI = float(np.log(2.0 * np.pi))

#: Diagonal index vectors for the stacked KL Hessian's separable color
#: blocks (``h[:, _DIAG_C1, _DIAG_C1]`` is the lane-stacked image of
#: ``np.fill_diagonal(h[2:6, 2:6], ...)``).
_DIAG_C1 = np.arange(2, 6)
_DIAG_C2 = np.arange(6, 10)


# ---------------------------------------------------------------------------
# Per-thread scratch pool


_TLS = threading.local()
_POOL_CAP = 512

#: Fallback max ``(lane, component, pixel)`` elements per stacked batch
#: sweep, used only when the host's cache sizes cannot be read.  The
#: historical hand-tuned value: roughly one ~3.5 MB float64 temporary,
#: sized (empirically, via the bench_elbo_kernel batch sweep) so the
#: handful of live per-sweep temporaries stay cache-resident.  Batch groups larger than the derived
#: lane cap split into several sweeps (see :class:`_FusedBatchWorkspace`
#: and :func:`_lane_sweep_cap`).
_LANE_SWEEP_BUDGET = 450_000

#: Live float64 temporaries per ``(lane, component, pixel)`` element in the
#: widest (order-2) stacked sweep, counted from :func:`_group_features`: the
#: galaxy group in flight holds six named arrays (offsets, whitened offsets,
#: the density and its var-scaled copy) and at most two expression
#: temporaries; the group swept before it keeps only the three its moment
#: pass reads, the star group none.  Charging every group the in-flight
#: eight errs toward smaller, cache-friendlier sweeps.  The moment pass's
#: monomial scratch is one fixed block per thread (:data:`_MOMENT_BLOCK`):
#: it does not grow with the sweep and is not counted.
_SWEEP_TEMPS = 8

#: Lazily-detected ``(l2_bytes, last_level_bytes)`` — ``None`` before the
#: first probe, ``(0, 0)`` when the sysfs probe failed.
_CACHE_BYTES: tuple | None = None


def _detect_cache_bytes() -> tuple:
    """Probe ``(L2, last-level)`` cache sizes in bytes from sysfs.

    Returns ``(0, 0)`` when the hierarchy cannot be read (non-Linux, or a
    stripped container); callers fall back to the hand-tuned
    :data:`_LANE_SWEEP_BUDGET`.
    """
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes: dict[int, int] = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
            if text.endswith("K"):
                nbytes = int(text[:-1]) * 1024
            elif text.endswith("M"):
                nbytes = int(text[:-1]) * 1024 * 1024
            else:
                nbytes = int(text)
            # Unified/data caches win over same-level instruction caches
            # (L1i precedes L1d alphabetically either way; only L2+ is used).
            sizes[level] = max(nbytes, sizes.get(level, 0))
    except (OSError, ValueError):
        return (0, 0)
    if not sizes:
        return (0, 0)
    last = sizes[max(sizes)]
    return (sizes.get(2, last), last)


def _cache_bytes() -> tuple:
    global _CACHE_BYTES
    if _CACHE_BYTES is None:
        _CACHE_BYTES = _detect_cache_bytes()
    return _CACHE_BYTES


def _lane_sweep_cap(per_lane: int) -> int:
    """Max lanes per stacked sweep for a shape group whose per-lane
    ``(component, pixel)`` element count is ``per_lane``.

    The cache-blocking knob behind the batch throughput curve: too few
    lanes per sweep pays NumPy dispatch overhead per lane, too many spills
    the sweep's live temporaries out of cache and throughput *regresses*
    (the old global 450k-element budget was tuned for one machine and one
    patch shape, which is exactly why B=64 plateaued below B=16).  The
    heuristic sizes each group's sweep from the *measured* hierarchy:
    ``max(L2, LLC/8)`` bytes — a single sweep may own L2 outright but
    only a slice of the (shared, partitioned) last-level cache — divided
    by the sweep working set (``8 * _SWEEP_TEMPS * per_lane`` bytes per
    lane).  Groups small enough to be L2-resident get a wide cap, big
    five-band groups a narrow one.  The LLC/8 share matched the measured
    throughput optimum on both a desktop-class and a large-LLC
    virtualized host (the bench batch sweep regresses within noise by
    cap 2x in either direction).  The hand-tuned fallback budget applies
    when cache probing fails.

    Result-invariant by construction: lanes are independent, so any
    split of a group into sweeps is bit-identical (pinned by the budget
    sweep in ``tests/test_elbo_batch.py``) — which is why the cap is
    *not* checkpoint-fingerprinted.
    """
    l2, llc = _cache_bytes()
    if not llc:
        return max(1, _LANE_SWEEP_BUDGET // per_lane)
    working = 8 * _SWEEP_TEMPS * per_lane
    return min(1024, max(1, max(l2, llc // 8) // working))


def _buf(name: str, shape: tuple) -> np.ndarray:
    """Borrow a reusable array from the calling thread's pool.

    Keys include the shape: a Newton solve re-evaluates the same context
    with identical shapes, so after the first iteration every borrow hits.
    The pool is dropped wholesale if it ever accumulates too many distinct
    shapes (many differently-sized sources on one long-lived thread).
    """
    pool = getattr(_TLS, "pool", None)
    if pool is None:
        pool = _TLS.pool = {}
    if len(pool) > _POOL_CAP:
        pool.clear()
    key = (name, shape)
    arr = pool.get(key)
    if arr is None:
        arr = pool[key] = np.empty(shape)
    return arr


def release_scratch() -> None:
    """Drop the calling thread's scratch pool (executor hook)."""
    pool = getattr(_TLS, "pool", None)
    if pool is not None:
        pool.clear()


# ---------------------------------------------------------------------------
# Compile-once workspaces


class KlWorkspace:
    """Closed-form KL terms of the single-source ELBO, compiled per prior
    configuration.

    The KL sum is ``KL_bern(a) + sum_ty p_ty (KL_bright_ty + color_ty)``
    with every piece analytic in the canonical parameters:

    - Bernoulli type-KL: ``-(pg (log pg - log phi) + ps (log ps -
      log(1-phi)))`` — derivative ``logit(phi) - logit(pg)`` in ``pg``.
    - Gaussian log-brightness KL per type: quadratic in the mean, rational
      in the variance.
    - Color GMM term per type: ``sum_d kappa_d (E_d + log w_d - log
      kappa_d)`` plus the Gaussian entropy, with ``E_d`` the expected
      component log-density — *separable* across colors, so the c1/c2
      Hessian blocks are diagonal and the only dense coupling is
      component-responsibility x color, handled through the fixed-last
      softmax Jacobian/Hessian.

    Free-parameter derivatives chain through the same logistic bijectors as
    the canonical map (:meth:`LogitBox.forward_d012_vec`) and through
    :func:`softmax_fixed_last_d012_stacked` for the responsibilities; the whole
    evaluation is a few dozen operations on arrays no larger than the 8x2
    mixture table, so it is pixel-count-independent.  Everything
    prior-dependent (log prior odds, inverse variances, mixture
    log-weights, per-component normalizer sums) is precomputed here, once,
    and shared by every source evaluated under these priors.
    """

    __slots__ = ("logit_phi", "log_phi", "log_1mphi", "r_loc", "r_ivar",
                 "log_r_var", "log_w", "c_mean", "c_ivar", "e_const")

    def __init__(self, priors: Priors):
        phi = float(priors.prob_galaxy)
        self.log_phi = float(np.log(phi))
        self.log_1mphi = float(np.log(1.0 - phi))  # det: ignore[NUM201] -- phi is validated in (0, 1) by Priors.__post_init__
        self.logit_phi = self.log_phi - self.log_1mphi
        self.r_loc = np.asarray(priors.r_loc, dtype=float)
        self.r_ivar = 1.0 / np.asarray(priors.r_var, dtype=float)
        self.log_r_var = np.log(np.asarray(priors.r_var, dtype=float))
        with np.errstate(divide="ignore"):  # zero mixture weights -> -inf,
            # matching the reference expression exactly
            self.log_w = np.log(np.asarray(priors.k_weights, dtype=float))
        self.c_mean = np.asarray(priors.c_mean, dtype=float)
        self.c_ivar = 1.0 / np.asarray(priors.c_var, dtype=float)
        #: Constant part of E_d: ``-0.5 sum_i (log 2pi + log v0_id)``, (D, T).
        self.e_const = -0.5 * (_LOG_2PI + np.log(
            np.asarray(priors.c_var, dtype=float))).sum(axis=0)

    def _type_term_stacked(self, frees: np.ndarray, ty: int, order: int):
        """One type's ``KL_bright + color`` term over its own 17 free
        indices ``[r1, r2, c1 x4, c2 x4, k x7]`` (before the type-probability
        weighting), lane-stacked: ``frees`` is ``(G, 41)`` and the returned
        ``(indices, value, gradient, hessian)`` carry a leading lane axis.
        Every operation is lane-independent — elementwise ufuncs, reductions
        over non-lane axes, and stacked ``matmul`` (which dispatches the
        identical per-lane product) — so lane ``i`` is bit-for-bit what a
        one-lane call on ``frees[i]`` returns, which the lane-independence
        tests pin."""
        ic1 = _IDX_C1[ty]
        ic2 = _IDX_C2[ty]
        idx = _KL_TYPE_IDX[ty]
        gsz = frees.shape[0]

        # Gaussian log-brightness KL.
        m = frees[:, _IDX_R1[ty]]
        v, v1, v2 = _BIJ_R2.forward_d012_vec(frees[:, _IDX_R2[ty]])
        diff = m - self.r_loc[ty]
        iv0 = self.r_ivar[ty]
        gb = -0.5 * ((v + diff * diff) * iv0 - 1.0 + self.log_r_var[ty]
                     - np.log(v))

        # Color GMM term: expected component log-densities and their
        # (separable) color derivatives.
        c1 = frees[:, ic1]                                   # (G, C)
        c2v, c2d1, c2d2 = _BIJ_C2.forward_d012_vec(frees[:, ic2])
        dif = c1[:, :, None] - self.c_mean[None, :, :, ty]   # (G, C, D)
        iv = self.c_ivar[:, :, ty]
        e = self.e_const[None, :, ty] - 0.5 * (
            (c2v[:, :, None] + dif * dif) * iv[None]).sum(axis=1)
        de_c1 = -dif * iv[None]                              # dE_d/dc1_i
        de_c2 = -0.5 * iv                                    # dE_d/dc2_i

        kappa, kjac, kh2 = softmax_fixed_last_d012_stacked(
            frees[:, _IDX_K[ty]])
        r = e + self.log_w[None, :, ty] - np.log(kappa)      # (G, D)
        val = (gb + np.matmul(kappa[:, None, :], r[:, :, None])[:, 0, 0]
               + 0.5 * np.sum(np.log(c2v) + _LOG_2PI + 1.0, axis=1))
        if order < 1:
            return idx, val, None, None

        dv = 0.5 / v - 0.5 * iv0                             # d gb / d v
        gc2 = (np.matmul(de_c2[None], kappa[:, :, None])[:, :, 0]
               + 0.5 / c2v)                                  # d/d c2
        s = r - 1.0                                          # d/d kappa_d
        g = np.empty((gsz, idx.size))
        g[:, 0] = -diff * iv0
        g[:, 1] = dv * v1
        g[:, 2:6] = np.matmul(de_c1, kappa[:, :, None])[:, :, 0]
        g[:, 6:10] = gc2 * c2d1
        g[:, 10:] = np.matmul(kjac.transpose(0, 2, 1), s[:, :, None])[:, :, 0]
        if order < 2:
            return idx, val, g, None

        h = np.zeros((gsz, idx.size, idx.size))
        h[:, 0, 0] = -iv0
        h[:, 1, 1] = -0.5 / (v * v) * v1 * v1 + dv * v2
        h[:, _DIAG_C1, _DIAG_C1] = np.matmul(
            (-iv)[None], kappa[:, :, None])[:, :, 0]
        h[:, _DIAG_C2, _DIAG_C2] = (-0.5 / (c2v * c2v) * c2d1 * c2d1
                                    + gc2 * c2d2)
        # Responsibility x color coupling, through the softmax Jacobian.
        c1k = np.matmul(de_c1, kjac)                         # (G, 4, 7)
        c2k = np.matmul(de_c2[None], kjac) * c2d1[:, :, None]
        h[:, 2:6, 10:] = c1k
        h[:, 10:, 2:6] = c1k.transpose(0, 2, 1)
        h[:, 6:10, 10:] = c2k
        h[:, 10:, 6:10] = c2k.transpose(0, 2, 1)
        # Responsibility block: kappa-space curvature diag(-1/kappa) plus
        # the softmax's own second derivatives.
        h[:, 10:, 10:] = (np.einsum("gd,gdjl->gjl", s, kh2)
                          - np.matmul(
                              (kjac / kappa[:, :, None]).transpose(0, 2, 1),
                              kjac))
        return idx, val, g, h

    def evaluate_stacked(self, frees: np.ndarray, order: int):
        """KL value / 41-gradient / 41x41-Hessian for ``(G, 41)`` stacked
        free vectors: ``(value (G,), gradient (G, 41), hessian (G, 41,
        41))`` with the derivative slots ``None`` beyond ``order``; the
        returned arrays are freshly allocated (the fused objective
        accumulates the pixel term into them in place).

        Lane ``i`` of every output is bit-for-bit what a one-lane call on
        ``frees[i]`` returns (the lane-independence argument in
        :meth:`_type_term_stacked`), so the KL term's many-small-ops
        dispatch cost is amortized across a whole lane group without
        results depending on how lanes were grouped."""
        frees = np.asarray(frees, dtype=np.float64)
        gsz = frees.shape[0]
        grad = np.zeros((gsz, FREE.size)) if order >= 1 else None
        hess = (np.zeros((gsz, FREE.size, FREE.size))
                if order >= 2 else None)

        pg, pg1, pg2 = _BIJ_PROB.forward_d012_vec(frees[:, _IDX_A])
        ps = 1.0 - pg
        log_pg = np.log(pg)
        log_ps = np.log(ps)
        val = -(pg * (log_pg - self.log_phi)
                + ps * (log_ps - self.log_1mphi))
        db = self.logit_phi - (log_pg - log_ps)
        if order >= 1:
            grad[:, _IDX_A] = db * pg1
        if order >= 2:
            hess[:, _IDX_A, _IDX_A] = (-(1.0 / pg + 1.0 / ps) * pg1 * pg1
                                       + db * pg2)

        for ty, p, pa1, pa2 in ((STAR, ps, -pg1, -pg2),
                                (GALAXY, pg, pg1, pg2)):
            idx, tval, tgrad, thess = self._type_term_stacked(
                frees, ty, order)
            val += p * tval
            if order >= 1:
                grad[:, idx] += p[:, None] * tgrad
                grad[:, _IDX_A] += pa1 * tval
            if order >= 2:
                hess[:, idx[:, None], idx[None, :]] += (
                    p[:, None, None] * thess)
                cross = pa1[:, None] * tgrad
                hess[:, _IDX_A, idx] += cross
                hess[:, idx, _IDX_A] += cross
                hess[:, _IDX_A, _IDX_A] += pa2 * tval
        return val, grad, hess


#: Compiled KL workspaces, keyed by prior-object identity (weakly, so a
#: dropped Priors does not pin its workspace).  A production run uses one
#: Priors instance for millions of sources; compiling per prior
#: configuration rather than per source context is what makes the KL side
#: genuinely compile-once.
_KL_CACHE: dict[int, tuple] = {}


def _kl_workspace(priors: Priors) -> KlWorkspace:
    key = id(priors)
    hit = _KL_CACHE.get(key)
    if hit is not None and hit[0]() is priors:
        return hit[1]
    ws = KlWorkspace(priors)
    if len(_KL_CACHE) > 64:  # ids recycle; keep the map from growing stale
        _KL_CACHE.clear()
    try:
        ref = weakref.ref(priors)
    except TypeError:  # pragma: no cover - non-weakrefable priors object
        return ws
    _KL_CACHE[key] = (ref, ws)
    return ws


class _GroupWorkspace:
    """Pixel-static arrays of one galaxy profile group (dev or exp) of one
    patch: component weights/variances, PSF covariance parts, and the pixel
    grid offset by every component mean.

    Every array carries a leading *lane* axis: a per-context workspace holds
    lane count 1, and a batch workspace concatenates same-shaped lanes along
    it, so one evaluation sweep covers ``G`` sources at once."""

    __slots__ = ("w2pi", "var", "pxx", "pxy", "pyy", "px", "py")

    def __init__(self, arrays, px, py):
        w, var, mux, muy, pxx, pxy, pyy = arrays
        self.w2pi = (w / _TWO_PI)[None]          # (1, J, 1)
        self.var = var[None]
        self.pxx, self.pxy, self.pyy = pxx[None], pxy[None], pyy[None]
        self.px = (px[None, :] - mux)[None]      # (1, J, M)
        self.py = (py[None, :] - muy)[None]

    @classmethod
    def _concat(cls, groups):
        out = object.__new__(cls)
        for name in cls.__slots__:
            setattr(out, name, np.concatenate(
                [getattr(g, name) for g in groups], axis=0))
        return out


class _PatchWorkspace:
    """Everything pixel-static about one patch slot, precomputed.

    Arrays are lane-stacked (leading axis ``G``); ``bands``/``iota``/
    ``wa``/``wt`` hold one entry per lane because those feed the per-lane
    chain-rule stage, not the stacked pixel sweep.  A per-context workspace
    is the ``G = 1`` case; :meth:`_concat` builds a batch lane group from
    same-shaped patch slots without copying any per-context compile work."""

    __slots__ = ("bands", "iota", "counts", "bg", "n_pixels",
                 "s_alpha", "s_ixx", "s_ixy", "s_iyy", "s_px", "s_py",
                 "dev", "exp", "wa", "wt")

    _STACKED = ("counts", "bg", "s_alpha", "s_ixx", "s_ixy", "s_iyy",
                "s_px", "s_py", "iota", "wa", "wt")

    def __init__(self, patch):
        self.bands = (patch.band,)
        self.iota = np.array([float(patch.calibration)])
        self.counts = np.asarray(patch.counts, dtype=np.float64)[None]
        self.bg = np.asarray(patch.background, dtype=np.float64)[None]
        self.n_pixels = patch.n_pixels

        # Star: PSF covariances are constant, so invert and normalize once.
        w, mux, muy, sxx, sxy, syy = patch.star_arrays
        det = sxx * syy - sxy * sxy
        self.s_alpha = (w / (_TWO_PI * np.sqrt(det)))[None]   # (1, K, 1)
        self.s_ixx = (syy / det)[None]
        self.s_ixy = (-sxy / det)[None]
        self.s_iyy = (sxx / det)[None]
        self.s_px = (patch.px[None, :] - mux)[None]           # (1, K, M)
        self.s_py = (patch.py[None, :] - muy)[None]

        self.dev = _GroupWorkspace(patch.gal_arrays["dev"], patch.px, patch.py)
        self.exp = _GroupWorkspace(patch.gal_arrays["exp"], patch.px, patch.py)

        # Affine WCS coefficients, probed through the public map so any
        # affine WCS implementation works: pix = wa @ sky + wt.
        t = np.asarray(patch.wcs.sky_to_pix(np.zeros(2)), dtype=float)
        ex = np.asarray(patch.wcs.sky_to_pix(np.array([1.0, 0.0])), dtype=float)
        ey = np.asarray(patch.wcs.sky_to_pix(np.array([0.0, 1.0])), dtype=float)
        self.wa = np.column_stack([ex - t, ey - t])[None]   # (1, 2, 2)
        self.wt = t[None]

    @property
    def shape_key(self) -> tuple:
        """Array shapes that must match for lanes to stack: star component
        count, galaxy component counts per group, and pixel count."""
        return (self.s_px.shape[1], self.dev.px.shape[1],
                self.exp.px.shape[1], self.n_pixels)

    @classmethod
    def _concat(cls, slots):
        out = object.__new__(cls)
        out.bands = tuple(b for s in slots for b in s.bands)
        out.n_pixels = slots[0].n_pixels
        for name in cls._STACKED:
            setattr(out, name, np.concatenate(
                [getattr(s, name) for s in slots], axis=0))
        out.dev = _GroupWorkspace._concat([s.dev for s in slots])
        out.exp = _GroupWorkspace._concat([s.exp for s in slots])
        return out


class _FusedWorkspace:
    __slots__ = ("patches", "kl")

    def __init__(self, ctx: SourceContext):
        self.patches = [_PatchWorkspace(p) for p in ctx.patches]
        # Shared across every context evaluated under the same priors.
        self.kl = _kl_workspace(ctx.priors)

    @property
    def signature(self) -> tuple:
        """Stacking compatibility: contexts with equal signatures can share
        one lane group (patch-by-patch equal array shapes)."""
        return tuple(p.shape_key for p in self.patches)


def _context_workspace(ctx: SourceContext) -> _FusedWorkspace:
    ws = ctx.workspace
    if ws is None:
        ws = ctx.workspace = _FusedWorkspace(ctx)
    return ws


class _FusedBatchWorkspace:
    """Compile-once lane packing for a fixed batch of contexts.

    Lanes are grouped by :attr:`_FusedWorkspace.signature` and each group's
    per-context workspaces are concatenated along the lane axis into
    structure-of-arrays stacks, so the pixel-term sweep for a group is one
    set of NumPy calls covering all its lanes.

    **No padding, by design.**  A lane's result must be bit-for-bit
    independent of what shares its batch, and a masked/padded tail cannot
    be: NumPy reductions use pairwise summation whose grouping depends on
    the reduced length, so summing a zero-padded row changes the result's
    last bits.  Shape-grouping gives the same SIMD-width win as the paper's
    AVX-512 source batching while keeping every lane's reduction lengths
    exactly what a one-lane call uses — a heterogeneous batch simply
    evaluates as
    several stacked groups (degenerating to ``G = 1`` lanes in the worst
    case), never as one padded block.  Within a group, every stacked
    primitive used by the kernel is lane-independent (elementwise ufuncs;
    ``sum`` over the component/pixel axes; ``matmul`` over lane stacks,
    which dispatches the identical per-lane GEMM), which the exact-equality
    tests pin.

    **Cache-bounded sweeps.**  A stacked sweep materializes
    ``(G, components, pixels)`` temporaries; letting ``G`` grow unbounded
    trades the dispatch-overhead win for cache thrash (a 64-lane stack of
    30x30 five-band contexts is slower than one lane at a time).  Groups
    are therefore
    split so each sweep's working set stays cache-resident, with the lane
    cap autotuned per shape group from the measured cache hierarchy
    (:func:`_lane_sweep_cap`) — small sources batch wide, big sources
    batch narrow.  Splitting is result-invisible: lane-independence makes
    every grouping bit-identical.
    """

    __slots__ = ("ctxs", "groups")

    def __init__(self, ctxs: list):
        self.ctxs = list(ctxs)
        by_sig: dict[tuple, list[int]] = {}
        for i, ctx in enumerate(self.ctxs):
            by_sig.setdefault(_context_workspace(ctx).signature, []).append(i)
        #: ``(lane_indices, patch_stacks, u_centers, kl_groups)`` per sweep;
        #: a singleton sweep reuses the context's own (lane count 1)
        #: workspace arrays.  ``u_centers`` is the sweep's ``(G, 2)`` stack
        #: of box centers and ``kl_groups`` its lanes (as positions in
        #: ``lane_indices``) grouped by shared :class:`KlWorkspace` —
        #: both fixed per context, so resolved here rather than per
        #: evaluation.
        self.groups = []
        for sig, lanes in by_sig.items():
            per_lane = sum((k + jd + je) * m for k, jd, je, m in sig)  # det: ignore[DET103] -- integer size signature; exact in any order
            cap = _lane_sweep_cap(per_lane) if per_lane else len(lanes)
            # Balance the split: 64 lanes at cap 19 sweep as 16/16/16/16,
            # not 19/19/19/7 — a ragged tail sweep pays the same dispatch
            # overhead as a full one over a fraction of the lanes.
            n_sweeps = -(-len(lanes) // cap) if lanes else 1
            size = -(-len(lanes) // n_sweeps)
            for start in range(0, len(lanes), size):
                chunk = lanes[start:start + size]
                members = [_context_workspace(self.ctxs[l]) for l in chunk]
                if len(chunk) == 1:
                    stacks = members[0].patches
                else:
                    stacks = [
                        _PatchWorkspace._concat([m.patches[p]
                                                 for m in members])
                        for p in range(len(sig))
                    ]
                u_centers = np.array([
                    np.asarray(self.ctxs[l].u_center, dtype=float)
                    for l in chunk])
                by_kl: dict[int, tuple] = {}
                for j, m in enumerate(members):
                    by_kl.setdefault(id(m.kl), (m.kl, []))[1].append(j)
                self.groups.append(
                    (chunk, stacks, u_centers, list(by_kl.values())))

    def matches(self, ctxs: list) -> bool:
        """Whether this workspace was compiled for exactly these contexts
        (by identity, in order) — the evaluate-side misuse guard."""
        return len(ctxs) == len(self.ctxs) and all(
            a is b for a, b in zip(ctxs, self.ctxs)
        )


# ---------------------------------------------------------------------------
# Per-pixel mixture features
#
# For one Gaussian component with covariance C, inverse I, offsets
# d = pixel - mean - u and whitened offsets l = I d, the density is
# g = alpha exp(-q/2) with q = d^T I d, and (writing D1 = (lx^2-ixx)/2,
# D2 = lx ly - ixy, D3 = (ly^2-iyy)/2 for the covariance-direction log
# derivatives):
#
#   d g / d u       = l g                (offsets enter as -u)
#   d g / d C_m     = D_m g
#   d^2 g / du du   = (l l^T - I) g
#   d^2 g / du dC_m = (dl/dC_m + l D_m) g       with dl/dC_m = -I E_m l
#   d^2 g / dC dC   = (dD/dC + D D^T) g         via dI/dC_m = -I E_m I
#
# Galaxy groups see the shape covariance through C = var * S + C_psf, so
# every shape derivative scales by var (and var^2 at second order).


def _star_features(pws: _PatchWorkspace, upx: np.ndarray, upy: np.ndarray,
                   order: int):
    """Star mixture value / position-gradient / position-Hessian features,
    contracted over PSF components for every lane: ``(G, M)``, ``(G, 2, M)``,
    ``(G, 3, M)``.  ``upx``/``upy`` are per-lane pixel-frame positions."""
    ixx, ixy, iyy = pws.s_ixx, pws.s_ixy, pws.s_iyy
    dx = pws.s_px - upx[:, None, None]
    dy = pws.s_py - upy[:, None, None]
    lx = ixx * dx + ixy * dy
    ly = ixy * dx + iyy * dy
    g = pws.s_alpha * np.exp(-0.5 * (lx * dx + ly * dy))
    gsz, m = g.shape[0], g.shape[2]
    val = g.sum(axis=1)
    grad = _buf("s_grad", (gsz, 2, m))
    np.sum(lx * g, axis=1, out=grad[:, 0])
    np.sum(ly * g, axis=1, out=grad[:, 1])
    if order < 2:
        return val, grad, None
    hess = _buf("s_hess", (gsz, 3, m))
    np.sum((lx * lx - ixx) * g, axis=1, out=hess[:, 0])
    np.sum((lx * ly - ixy) * g, axis=1, out=hess[:, 1])
    np.sum((ly * ly - iyy) * g, axis=1, out=hess[:, 2])
    return val, grad, hess


# Contract-first Hessian rows.  Every second derivative of a component in
# the spatial variables is a u-derivative of its Gaussian, because
# d g/dC_xx = (1/2) d^2 g/du_x^2 (and C_xy -> d^2/du_x du_y, C_yy likewise)
# and a shape entry reaches C through ``var``: position x shape rows are
# third and shape x shape rows fourth u-derivatives.  The u-derivatives are
# the Hermite polynomials ``H_{a+e_i} = l_i H_a - sum_j I_ij dH_a/dl_j`` in
# the whitened offsets times g, so a row contracted over pixels is a fixed
# linear map of the moments ``sum_m lx^a ly^b g w`` with coefficients
# polynomial in (ixx, ixy, iyy, var) — 12 distinct polynomials feed the 15
# rows (rows (sxx, syy) and (sxy, sxy) are both H_xxyy).

#: Pixels per moment block.  Fixed, so the monomial scratch is one
#: ``(17, J, block)`` buffer per thread whatever the patch shape, and short
#: enough that the multiply chain's operands stay cache-resident.
_MOMENT_BLOCK = 512

#: The 15 monomials ``lx^a ly^b`` with ``a + b <= 4``, by degree.
_MONOMIALS = [(n - b, b) for n in range(5) for b in range(n + 1)]
#: ``(k, parent, axis)``: monomial ``k`` is monomial ``parent`` times
#: ``lx`` (axis 0) or ``ly`` (axis 1).
_MONO_STEPS = [
    (k, _MONOMIALS.index((a - 1, b) if a else (a, b - 1)), 0 if a else 1)
    for k, (a, b) in enumerate(_MONOMIALS) if k]
#: Exponents of ``(ixx, ixy, iyy)`` in the coefficient basis, in the order
#: :func:`_group_features` fills it.
_IMONOMIALS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0),
               (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
#: Each spatial variable as a u-derivative: axes, factor, power of var.
_SPATIAL_DERIVS = (((0,), 1.0, 0), ((1,), 1.0, 0), ((0, 0), 0.5, 1),
                   ((0, 1), 1.0, 1), ((1, 1), 0.5, 1))


def _hermite_table() -> np.ndarray:
    """``(15, 450)`` constant map from ``monomial x basis`` moments
    (flattened ``l-monomial * 30 + var power * 10 + I-monomial``) to the
    packed Hessian rows, from the Hermite recursion above run on
    polynomials stored as ``{(a, b, p, q, r): coefficient}`` for the term
    ``lx^a ly^b ixx^p ixy^q iyy^r``."""
    def raised(poly, axis):
        out: dict[tuple, float] = {}
        for (a, b, p, q, r), coef in poly.items():
            terms = [((a + 1 - axis, b + axis, p, q, r), coef)]
            if a:   # -I[axis, x] d/dlx
                terms.append(((a - 1, b, p + 1 - axis, q + axis, r),
                              -coef * a))
            if b:   # -I[axis, y] d/dly
                terms.append(((a, b - 1, p, q + 1 - axis, r + axis),
                              -coef * b))
            for key, value in terms:
                out[key] = out.get(key, 0.0) + value
        return out

    table = np.zeros((15, 15, 30))
    for (p, q), row in _PAIR_ROW.items():
        axes_p, factor_p, vpow_p = _SPATIAL_DERIVS[p]
        axes_q, factor_q, vpow_q = _SPATIAL_DERIVS[q]
        poly = {(0, 0, 0, 0, 0): factor_p * factor_q}
        for axis in axes_p + axes_q:
            poly = raised(poly, axis)
        for (a, b, *imon), coef in poly.items():
            table[row, _MONOMIALS.index((a, b)),
                  (vpow_p + vpow_q) * 10
                  + _IMONOMIALS.index(tuple(imon))] = coef
    return table.reshape(15, 450)


_HERMITE_TABLE = _hermite_table()


def _group_features(gws: _GroupWorkspace, upx: np.ndarray, upy: np.ndarray,
                    s1: np.ndarray, s2: np.ndarray, s3: np.ndarray,
                    order: int, tag: str):
    """One galaxy group's spatial features, contracted over components for
    every lane: value ``(G, M)`` and gradient ``(G, 5, M)`` over
    ``[upx, upy, sxx, sxy, syy]``.  The third return is ``None`` at order
    1 and otherwise what :func:`_group_curvature` needs to contract the
    packed Hessian rows over pixels — the per-pixel ``(G, 15, M)`` block
    itself is never built.  Position and shape inputs are per-lane
    arrays."""
    var = gws.var
    e1 = s1[:, None, None]
    e2 = s2[:, None, None]
    e3 = s3[:, None, None]
    cxx = var * e1 + gws.pxx
    cxy = var * e2 + gws.pxy
    cyy = var * e3 + gws.pyy
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
    gsz, j, m = g.shape

    val = g.sum(axis=1)
    vg = var * g
    grad = _buf(tag + "_grad", (gsz, 5, m))
    np.sum(lx * g, axis=1, out=grad[:, 0])
    np.sum(ly * g, axis=1, out=grad[:, 1])
    np.sum((0.5 * (lx * lx - ixx)) * vg, axis=1, out=grad[:, 2])
    np.sum((lx * ly - ixy) * vg, axis=1, out=grad[:, 3])
    np.sum((0.5 * (ly * ly - iyy)) * vg, axis=1, out=grad[:, 4])
    if order < 2:
        return val, grad, None

    # Per-component coefficient basis of the Hermite table: the ten
    # monomials of (ixx, ixy, iyy) up to degree 2, times var^0..2.
    imon = np.empty((gsz, 10, j))
    imon[:, 0] = 1.0
    imon[:, 1] = ixx[:, :, 0]
    imon[:, 2] = ixy[:, :, 0]
    imon[:, 3] = iyy[:, :, 0]
    np.multiply(imon[:, 1:4], imon[:, 1:2], out=imon[:, 4:7])
    np.multiply(imon[:, 2:4], imon[:, 2:3], out=imon[:, 7:9])
    np.multiply(imon[:, 3], imon[:, 3], out=imon[:, 9])
    vpow = np.ones((gsz, 3, j))
    vpow[:, 1] = var[:, :, 0]
    np.multiply(vpow[:, 1], vpow[:, 1], out=vpow[:, 2])
    basis = (vpow[:, :, None] * imon[:, None]).reshape(gsz, 30, j)
    return val, grad, (lx, ly, g, basis)


def _group_curvature(keep, wts: np.ndarray) -> np.ndarray:
    """One galaxy group's packed Hessian rows (:data:`_PAIRS` order)
    contracted over pixels against ``C`` weight columns: ``keep`` from
    :func:`_group_features`, ``wts`` ``(G, M, C)``, result ``(G, 15, C)``
    — what ``_mv`` of the per-pixel ``(G, 15, M)`` block against each
    column would give, without building the block.

    Contract before expanding: every row is ``H(l) g`` for a Hermite
    polynomial ``H`` of degree <= 4 (see :data:`_HERMITE_TABLE`), so the
    only per-pixel work is the 15 monomials ``lx^a ly^b g`` (three copies
    and 14 multiplies into scratch) and one GEMM per pixel block against
    the weights.  The ``(15, J, C)`` moments then meet the per-component
    coefficients in two small matmuls.  Pixel blocks have a fixed length
    and each lane is contracted alone, so the scratch is one fixed block
    per thread (never a buffer per patch shape) and a lane's block
    boundaries — hence its summation order and its bits — do not depend
    on what shares its stack."""
    lx, ly, g, basis = keep
    gsz, j, m = g.shape
    c = wts.shape[2]
    scratch = _buf("mono", (17 * j * _MOMENT_BLOCK,))
    mom = np.zeros((gsz, 15 * j, c))
    for lane in range(gsz):
        for lo in range(0, m, _MOMENT_BLOCK):
            hi = min(lo + _MOMENT_BLOCK, m)
            # Rows 0-14 are the monomials, 15-16 contiguous copies of the
            # block's lx / ly (every multiply then runs as one flat loop).
            blk = scratch[:17 * j * (hi - lo)].reshape(17, j, hi - lo)
            blk[0] = g[lane, :, lo:hi]
            blk[15] = lx[lane, :, lo:hi]
            blk[16] = ly[lane, :, lo:hi]
            for k, parent, axis in _MONO_STEPS:
                np.multiply(blk[parent], blk[15 + axis], out=blk[k])
            mom[lane] += np.matmul(blk[:15].reshape(15 * j, hi - lo),
                                   wts[lane, lo:hi])
    q = np.matmul(basis[:, None], mom.reshape(gsz, 15, j, c))
    return np.matmul(_HERMITE_TABLE, q.reshape(gsz, 450, c))


# ---------------------------------------------------------------------------
# Pixel-independent chain-rule pieces (shared across patches / bands)


class _FluxChain:
    """Log-normal band-flux moments and their closed-form derivatives over
    one type's 10 flux parameters ``[r1, r2, c1_0..3, c2_0..3]``.

    ``E[f] = exp(L1)`` with ``L1 = m + v/2`` and ``E[f^2] = exp(L2)`` with
    ``L2 = 2m + 2v``; ``m`` is linear in (r1, c1) and ``v`` is a sum of
    per-parameter bijector images, so ``dL`` is a vector and ``d2L`` a
    diagonal.

    Lane-stacked: ``frees`` is ``(G, 41)`` and every moment/derivative
    carries a leading lane axis (the constant sparsity pattern ``dm``
    stays a plain 10-vector and broadcasts).  Each lane's arithmetic is
    the elementwise image of the scalar formulas, so a 1-lane chain is
    bit-for-bit the scalar chain."""

    __slots__ = ("ef", "dl1", "ddl1", "ef2", "dl2", "ddl2")

    def __init__(self, frees: np.ndarray, ty: int, band: int,
                 variance_correction: bool):
        idx = _FLUX_IDX[ty]
        coeff = COLOR_COEFFS[band]
        gsz = frees.shape[0]
        m = frees[:, idx[0]].copy()
        dm = np.zeros(10)
        dm[0] = 1.0
        v = np.zeros(gsz)
        dv = np.zeros((gsz, 10))
        ddv = np.zeros((gsz, 10))
        r2v, r2d1, r2d2 = _BIJ_R2.forward_d012_vec(frees[:, idx[1]])
        v += r2v
        dv[:, 1] = r2d1
        ddv[:, 1] = r2d2
        for i in range(NUM_COLORS):
            w = coeff[i]
            m += w * frees[:, idx[2 + i]]
            dm[2 + i] = w
            c2v, c2d1, c2d2 = _BIJ_C2.forward_d012_vec(frees[:, idx[6 + i]])
            v += w * w * c2v
            dv[:, 6 + i] = w * w * c2d1
            ddv[:, 6 + i] = w * w * c2d2
        self.ef = np.exp(m + 0.5 * v)  # det: ignore[NUM200] -- log-flux moment is unbounded by design; the runtime NumericSanitizer watches this path
        self.dl1 = dm + 0.5 * dv
        self.ddl1 = 0.5 * ddv
        if variance_correction:
            self.ef2 = np.exp(2.0 * m + 2.0 * v)  # det: ignore[NUM200] -- log-flux moment is unbounded by design; the runtime NumericSanitizer watches this path
            self.dl2 = 2.0 * dm + 2.0 * dv
            self.ddl2 = 2.0 * ddv
        else:
            self.ef2 = None


_DIAG10 = np.arange(10)


class _AmpChain:
    """One z amplitude without the per-patch calibration factor:
    ``prob(type) * moment`` with gradient/Hessian over the 11 amplitude
    indices (type logit + flux block).

    Lane-stacked: ``val`` is ``(G,)``, ``grad`` ``(G, 11)``, ``hess``
    ``(G, 11, 11)``.  The flux block of the Hessian adds the ``ddl``
    diagonal as a full zero-filled array (not a per-lane ``np.diag``
    scatter): the scalar formula's ``np.outer(dl, dl) + np.diag(ddl)``
    adds an explicit ``+0.0`` to every off-diagonal entry, and the
    stacked path must replicate that add bit-for-bit (``-0.0 + 0.0``
    is ``+0.0``)."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, p, p1, p2, moment, dl, ddl, order: int):
        gsz = moment.shape[0]
        self.val = p * moment
        self.grad = np.empty((gsz, 11))
        self.grad[:, 0] = p1 * moment
        self.grad[:, 1:] = self.val[:, None] * dl
        self.hess = None
        if order >= 2:
            h = np.empty((gsz, 11, 11))
            h[:, 0, 0] = p2 * moment
            cross = (p1 * moment)[:, None] * dl
            h[:, 0, 1:] = cross
            h[:, 1:, 0] = cross
            dd = np.zeros((gsz, 10, 10))
            dd[:, _DIAG10, _DIAG10] = ddl
            h[:, 1:, 1:] = self.val[:, None, None] * (
                dl[:, :, None] * dl[:, None, :] + dd)
            self.hess = h


def _shape_chain(frees, order: int):
    """Galaxy shape covariance ``(sxx, sxy, syy)`` and its derivatives over
    the free shape parameters ``[axis, angle, scale]``, lane-stacked:
    ``vals`` is a triple of ``(G,)`` arrays, ``jac`` is ``(G, 3, 3)`` and
    ``hess`` ``(G, 3, 3, 3)``.

    With ``M = scale^2`` and ``m = (scale*axis)^2`` (major/minor variances)
    and position angle ``phi``: ``sxx = c^2 M + s^2 m``,
    ``sxy = sin(2 phi)(M - m)/2``, ``syy = s^2 M + c^2 m``; the axis/scale
    dependence chains through the LogitBox bijectors.  Every entry is the
    elementwise image of the scalar formula (symmetric entries share one
    computed array — identical expressions give identical bits)."""
    av, a1, a2 = _BIJ_AXIS.forward_d012_vec(frees[:, _SHAPE_IDX[0]])
    phi = frees[:, _SHAPE_IDX[1]]
    sv, sd1, sd2 = _BIJ_SCALE.forward_d012_vec(frees[:, _SHAPE_IDX[2]])

    c, s = np.cos(phi), np.sin(phi)
    c2p, s2p = np.cos(2.0 * phi), np.sin(2.0 * phi)
    c2, s2 = c * c, s * s

    big = sv * sv                       # major-axis variance M
    sml = big * av * av                 # minor-axis variance m
    big_s = 2.0 * sv * sd1
    big_ss = 2.0 * (sd1 * sd1 + sv * sd2)
    sml_a = 2.0 * big * av * a1
    sml_s = big_s * av * av
    sml_aa = 2.0 * big * (a1 * a1 + av * a2)
    sml_ss = big_ss * av * av
    sml_as = 4.0 * sv * sd1 * av * a1

    vals = (c2 * big + s2 * sml,
            0.5 * s2p * (big - sml),
            s2 * big + c2 * sml)
    gsz = frees.shape[0]
    jac = np.empty((gsz, 3, 3))
    jac[:, 0, 0] = s2 * sml_a
    jac[:, 0, 1] = s2p * (sml - big)
    jac[:, 0, 2] = c2 * big_s + s2 * sml_s
    jac[:, 1, 0] = -0.5 * s2p * sml_a
    jac[:, 1, 1] = c2p * (big - sml)
    jac[:, 1, 2] = 0.5 * s2p * (big_s - sml_s)
    jac[:, 2, 0] = c2 * sml_a
    jac[:, 2, 1] = s2p * (big - sml)
    jac[:, 2, 2] = s2 * big_s + c2 * sml_s
    if order < 2:
        return vals, jac, None

    hess = np.empty((gsz, 3, 3, 3))
    # sxx block.
    e01 = s2p * sml_a
    e02 = s2 * sml_as
    e12 = s2p * (sml_s - big_s)
    hess[:, 0, 0, 0] = s2 * sml_aa
    hess[:, 0, 0, 1] = e01
    hess[:, 0, 0, 2] = e02
    hess[:, 0, 1, 0] = e01
    hess[:, 0, 1, 1] = 2.0 * c2p * (sml - big)
    hess[:, 0, 1, 2] = e12
    hess[:, 0, 2, 0] = e02
    hess[:, 0, 2, 1] = e12
    hess[:, 0, 2, 2] = c2 * big_ss + s2 * sml_ss
    # sxy block.
    e01 = -c2p * sml_a
    e02 = -0.5 * s2p * sml_as
    e12 = c2p * (big_s - sml_s)
    hess[:, 1, 0, 0] = -0.5 * s2p * sml_aa
    hess[:, 1, 0, 1] = e01
    hess[:, 1, 0, 2] = e02
    hess[:, 1, 1, 0] = e01
    hess[:, 1, 1, 1] = -2.0 * s2p * (big - sml)
    hess[:, 1, 1, 2] = e12
    hess[:, 1, 2, 0] = e02
    hess[:, 1, 2, 1] = e12
    hess[:, 1, 2, 2] = 0.5 * s2p * (big_ss - sml_ss)
    # syy block.
    e01 = -s2p * sml_a
    e02 = c2 * sml_as
    e12 = s2p * (big_s - sml_s)
    hess[:, 2, 0, 0] = c2 * sml_aa
    hess[:, 2, 0, 1] = e01
    hess[:, 2, 0, 2] = e02
    hess[:, 2, 1, 0] = e01
    hess[:, 2, 1, 1] = 2.0 * c2p * (big - sml)
    hess[:, 2, 1, 2] = e12
    hess[:, 2, 2, 0] = e02
    hess[:, 2, 2, 1] = e12
    hess[:, 2, 2, 2] = s2 * big_ss + c2 * sml_ss
    return vals, jac, hess


#: Broadcast index pairs for the shape 3x3 Jacobian block of the (10, 27)
#: patch Jacobian, lane-stacked: ``jac[:, _JAC_SHAPE_ROWS, _JAC_SHAPE_COLS]``.
_JAC_SHAPE_ROWS, _JAC_SHAPE_COLS = np.ix_([2, 3, 4], _SHAPE_IDX)
_AMP_COLS = (np.asarray(_AMP_IDX[STAR]), np.asarray(_AMP_IDX[GALAXY]))


class _EvalChain:
    """Every pixel-independent piece of one lane group's evaluation:
    bijector images of the free vectors with their first two derivatives,
    the shape-covariance chain, and per-band amplitude chains (built lazily
    per band) — all lane-stacked, ``frees`` being ``(G, 41)``.

    This stage used to loop per lane; it is now one stack of elementwise
    sweeps, which is what lifted the batch plateau (at B=64 the per-lane
    Python chain loop cost as much as the stacked pixel sweeps it fed).
    Ufunc loops are length-invariant elementwise, so each lane's bits are
    unchanged — the scalar path simply runs this chain at ``G = 1``."""

    def __init__(self, u_centers: np.ndarray, frees: np.ndarray, order: int,
                 variance_correction: bool):
        self.order = order
        self.vc = variance_correction
        self.frees = frees
        self.n_lanes = frees.shape[0]
        self._lanes = np.arange(self.n_lanes)

        pg, pg1, pg2 = _BIJ_PROB.forward_d012_vec(frees[:, _IDX_A])
        self.pg, self.pg1, self.pg2 = pg, pg1, pg2
        self.ps, self.ps1, self.ps2 = 1.0 - pg, -pg1, -pg2

        u0v, u0d1, u0d2 = _BIJ_U.forward_d012_vec(frees[:, _IDX_U[0]])
        u1v, u1d1, u1d2 = _BIJ_U.forward_d012_vec(frees[:, _IDX_U[1]])
        self.ux = u_centers[:, 0] + u0v
        self.uy = u_centers[:, 1] + u1v
        self.ud1 = (u0d1, u1d1)
        self.ud2 = (u0d2, u1d2)

        self.dev, self.dev1, self.dev2 = _BIJ_DEV.forward_d012_vec(
            frees[:, _IDX_DEV])
        self.shape_vals, self.shape_jac, self.shape_hess = _shape_chain(
            frees, order
        )
        self._bands: dict[int, tuple] = {}
        self._slots: dict[tuple, tuple] = {}

    def band_chains(self, band: int):
        """``(A_star, A_gal, B_star, B_gal)`` lane-stacked amplitude chains
        for one band (B entries are None without the variance correction)."""
        out = self._bands.get(band)
        if out is None:
            fs = _FluxChain(self.frees, STAR, band, self.vc)
            fg = _FluxChain(self.frees, GALAXY, band, self.vc)
            a_s = _AmpChain(self.ps, self.ps1, self.ps2,
                            fs.ef, fs.dl1, fs.ddl1, self.order)
            a_g = _AmpChain(self.pg, self.pg1, self.pg2,
                            fg.ef, fg.dl1, fg.ddl1, self.order)
            b_s = b_g = None
            if self.vc:
                b_s = _AmpChain(self.ps, self.ps1, self.ps2,
                                fs.ef2, fs.dl2, fs.ddl2, self.order)
                b_g = _AmpChain(self.pg, self.pg1, self.pg2,
                                fg.ef2, fg.dl2, fg.ddl2, self.order)
            out = self._bands[band] = (a_s, a_g, b_s, b_g)
        return out

    def slot_amps(self, bands: tuple):
        """Amplitude chains for one patch slot's per-lane band tuple.

        The common case — every lane of the slot observed the same band —
        returns that band's stacked chains directly.  A mixed-band slot
        gathers each lane's rows out of its own band's stacked chains
        (a pure copy, so still bit-exact per lane)."""
        out = self._slots.get(bands)
        if out is not None:
            return out
        first = bands[0]
        if all(b == first for b in bands):
            out = self.band_chains(first)
        else:
            per_band = {b: self.band_chains(b) for b in dict.fromkeys(bands)}
            slots = []
            for slot in range(4):
                rows = [per_band[b][slot] for b in bands]
                if rows[0] is None:
                    slots.append(None)
                    continue
                a = object.__new__(_AmpChain)
                a.val = np.array([r.val[l] for l, r in enumerate(rows)])
                a.grad = np.array([r.grad[l] for l, r in enumerate(rows)])
                a.hess = (np.array([r.hess[l] for l, r in enumerate(rows)])
                          if self.order >= 2 else None)
                slots.append(a)
            out = tuple(slots)
        self._slots[bands] = out
        return out

    def patch_jacobians(self, pws: _PatchWorkspace) -> np.ndarray:
        """dz/dfree for one patch slot, lane-stacked: ``(G, 10, 27)``."""
        a_s, a_g, b_s, b_g = self.slot_amps(pws.bands)
        jac = np.zeros((self.n_lanes, 10, _N_ACTIVE))
        jac[:, 0, _IDX_U[0]] = pws.wa[:, 0, 0] * self.ud1[0]
        jac[:, 0, _IDX_U[1]] = pws.wa[:, 0, 1] * self.ud1[1]
        jac[:, 1, _IDX_U[0]] = pws.wa[:, 1, 0] * self.ud1[0]
        jac[:, 1, _IDX_U[1]] = pws.wa[:, 1, 1] * self.ud1[1]
        jac[:, _JAC_SHAPE_ROWS, _JAC_SHAPE_COLS] = self.shape_jac
        jac[:, 5, _AMP_COLS[STAR]] = pws.iota[:, None] * a_s.grad
        jac[:, 6, _AMP_COLS[GALAXY]] = pws.iota[:, None] * a_g.grad
        if self.vc:
            iota2 = pws.iota * pws.iota
            jac[:, 7, _AMP_COLS[STAR]] = iota2[:, None] * b_s.grad
            jac[:, 8, _AMP_COLS[GALAXY]] = iota2[:, None] * b_g.grad
        jac[:, 9, _IDX_DEV] = self.dev1
        return jac

    def add_z_curvature(self, h27: np.ndarray, pws: _PatchWorkspace,
                        gz: np.ndarray) -> None:
        """Accumulate ``sum_m gz[:, m] * d2 z_m / dfree2`` into the stacked
        ``(G, 27, 27)`` Hessian (the chain rule's second term; z components
        are nonlinear in free).  Statement order matches the old per-lane
        path exactly — the star and galaxy amplitude blocks overlap at the
        type logit, so their accumulation order is part of the bit
        contract."""
        a_s, a_g, b_s, b_g = self.slot_amps(pws.bands)
        # Position: upx/upy are affine in the bijector images of u.
        for j in (0, 1):
            ui = _IDX_U[j]
            h27[:, ui, ui] += (
                gz[:, 0] * pws.wa[:, 0, j] + gz[:, 1] * pws.wa[:, 1, j]
            ) * self.ud2[j]
        # Shape covariance entries.  The scalar path skipped lanes whose
        # gz entry is exactly zero; replicate the skip (and the resulting
        # absence of a ``+= 0.0`` on those lanes) with a nonzero gather —
        # ``np.nonzero`` and ``!= 0.0`` agree on -0.0 and NaN.
        for m in range(3):
            gm = gz[:, 2 + m]
            nz = np.nonzero(gm)[0]
            if nz.size:
                h27[np.ix_(nz, _SHAPE_IDX, _SHAPE_IDX)] += (
                    gm[nz, None, None] * self.shape_hess[nz, m])
        # Amplitudes.
        star_ix = np.ix_(self._lanes, _AMP_IDX[STAR], _AMP_IDX[STAR])
        gal_ix = np.ix_(self._lanes, _AMP_IDX[GALAXY], _AMP_IDX[GALAXY])
        h27[star_ix] += (gz[:, 5] * pws.iota)[:, None, None] * a_s.hess
        h27[gal_ix] += (gz[:, 6] * pws.iota)[:, None, None] * a_g.hess
        if self.vc:
            iota2 = pws.iota * pws.iota
            h27[star_ix] += (gz[:, 7] * iota2)[:, None, None] * b_s.hess
            h27[gal_ix] += (gz[:, 8] * iota2)[:, None, None] * b_g.hess
        # Mixing fraction.
        h27[:, _IDX_DEV, _IDX_DEV] += gz[:, 9] * self.dev2


# ---------------------------------------------------------------------------
# The per-patch pixel term in z space, lane-stacked


def _mv(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-lane matrix-vector contraction over pixels:
    ``(G, R, M) x (G, M) -> (G, R)``.  ``matmul`` over a lane stack
    dispatches the identical per-lane GEMV, so results are bit-for-bit
    independent of how many lanes share the call."""
    return np.matmul(a, w[:, :, None])[:, :, 0]


def _patch_pixel_term(pws: _PatchWorkspace, chain: _EvalChain):
    """Value ``(G,)``, z-gradient ``(G, 10)``, and z-Hessian ``(G, 10, 10)``
    of one patch slot's expected Poisson log-likelihood across a lane group
    (Hessian ``None`` at order 1).  ``chain`` is the group's lane-stacked
    :class:`_EvalChain`; all lanes share this patch slot's array shapes, so
    the whole term is a single stacked sweep."""
    order, vc = chain.order, chain.vc
    gsz = chain.n_lanes
    m = pws.n_pixels

    # Per-lane chain inputs for this slot.  upx/upy mirror the old scalar
    # patch_geometry: left-associated multiply-adds through this lane's
    # affine WCS coefficients.
    upx = pws.wa[:, 0, 0] * chain.ux + pws.wa[:, 0, 1] * chain.uy \
        + pws.wt[:, 0]
    upy = pws.wa[:, 1, 0] * chain.ux + pws.wa[:, 1, 1] * chain.uy \
        + pws.wt[:, 1]
    s1, s2, s3 = chain.shape_vals
    a_s, a_g, b_s, b_g = chain.slot_amps(pws.bands)
    amp_s = pws.iota * a_s.val
    amp_g = pws.iota * a_g.val
    if vc:
        amp2_s = pws.iota * pws.iota * b_s.val
        amp2_g = pws.iota * pws.iota * b_g.val
    dev = chain.dev

    gs, dgs, hgs = _star_features(pws, upx, upy, order)
    gd, dgd, kd = _group_features(pws.dev, upx, upy, s1, s2, s3, order, "d")
    ge, dge, ke = _group_features(pws.exp, upx, upy, s1, s2, s3, order, "e")

    devc = dev[:, None]                 # broadcast over (G, M)
    dev5 = dev[:, None, None]           # broadcast over (G, 5, M)
    ampsc = amp_s[:, None]
    ampgc = amp_g[:, None]
    gg = devc * gd + (1.0 - devc) * ge
    dgg = _buf("gg_grad", (gsz, 5, m))
    np.multiply(dgd, dev5, out=dgg)
    dgg += (1.0 - dev5) * dge
    dlg = gd - ge                       # d gg / d e_dev, per pixel (G, M)
    dldg = dgd - dge                    # its spatial gradient (G, 5, M)

    x = pws.counts
    e = ampsc * gs + ampgc * gg
    f = pws.bg + e
    fi = 1.0 / f
    logf = np.log(f)

    de = _buf("de", (gsz, 10, m))
    de[:, 0] = ampsc * dgs[:, 0] + ampgc * dgg[:, 0]
    de[:, 1] = ampsc * dgs[:, 1] + ampgc * dgg[:, 1]
    de[:, 2:5] = amp_g[:, None, None] * dgg[:, 2:5]
    de[:, 5] = gs
    de[:, 6] = gg
    de[:, 7] = 0.0
    de[:, 8] = 0.0
    de[:, 9] = ampgc * dlg

    if vc:
        amp2sc = amp2_s[:, None]
        amp2gc = amp2_g[:, None]
        gs2 = gs * gs
        gg2 = gg * gg
        e2 = amp2sc * gs2 + amp2gc * gg2
        v = e2 - e * e
        fi2 = fi * fi
        val = np.sum(x * (logf - 0.5 * v * fi2) - f, axis=-1)
        phi_e = x * fi * (1.0 + (e + v * fi) * fi) - 1.0
        phi_e2 = -0.5 * x * fi2

        de2 = _buf("de2", (gsz, 10, m))
        de2[:, 0] = 2.0 * (amp2sc * gs * dgs[:, 0] + amp2gc * gg * dgg[:, 0])
        de2[:, 1] = 2.0 * (amp2sc * gs * dgs[:, 1] + amp2gc * gg * dgg[:, 1])
        de2[:, 2:5] = (2.0 * amp2_g)[:, None, None] * (
            gg[:, None, :] * dgg[:, 2:5])
        de2[:, 5] = 0.0
        de2[:, 6] = 0.0
        de2[:, 7] = gs2
        de2[:, 8] = gg2
        de2[:, 9] = (2.0 * amp2_g)[:, None] * (gg * dlg)

        gz = _mv(de, phi_e) + _mv(de2, phi_e2)
    else:
        val = np.sum(x * logf - f, axis=-1)
        phi_e = x * fi - 1.0
        gz = _mv(de, phi_e)

    if order < 2:
        return val, gz, None

    # -- z-Hessian: outer-product terms ------------------------------------
    deT = de.transpose(0, 2, 1)
    if vc:
        phi_ee = -(x * fi * fi * fi) * (4.0 * e + 3.0 * v * fi)
        phi_ee2 = x * fi * fi * fi
        hz = np.matmul(de * phi_ee[:, None, :], deT)
        cross = np.matmul(de * phi_ee2[:, None, :], de2.transpose(0, 2, 1))
        hz += cross
        hz += cross.transpose(0, 2, 1)
    else:
        hz = np.matmul(de * (-x * fi * fi)[:, None, :], deT)

    # -- z-Hessian: curvature of e (and e2) in z ---------------------------
    # Upper-triangular accumulator, symmetrized at the end.
    t = np.zeros((gsz, 10, 10))
    ch = _mv(hgs, phi_e)                # (G, 3): star [xx, xy, yy]
    # Packed galaxy pairs (G, 15, C), pixel-contracted against phi_e and
    # (with the variance correction) phi_e2 * gg in one pass per group.
    wts = np.stack([phi_e, phi_e2 * gg] if vc else [phi_e], axis=-1)
    cgw = dev5 * _group_curvature(kd, wts) \
        + (1.0 - dev5) * _group_curvature(ke, wts)
    cg = cgw[:, :, 0]
    t[:, 0, 0] = amp_s * ch[:, 0] + amp_g * cg[:, 0]
    t[:, 0, 1] = amp_s * ch[:, 1] + amp_g * cg[:, 1]
    t[:, 1, 1] = amp_s * ch[:, 2] + amp_g * cg[:, 5]
    for (p, q), row in _PAIR_ROW.items():
        if q >= 2:                      # pairs touching shape entries
            t[:, p, q] += amp_g * cg[:, row]
    # e is bilinear in (amplitudes, features):
    sg = _mv(dgs, phi_e)                # (G, 2)
    t[:, 0, 5] = sg[:, 0]
    t[:, 1, 5] = sg[:, 1]
    gp = _mv(dgg, phi_e)                # (G, 5)
    dl = _mv(dldg, phi_e)
    for p in range(5):
        t[:, p, 6] = gp[:, p]
        t[:, p, 9] = amp_g * dl[:, p]
    t[:, 6, 9] = np.sum(dlg * phi_e, axis=-1)

    if vc:
        cs2 = _mv(hgs, phi_e2 * gs)
        cg2 = cgw[:, :, 1]
        m1 = np.matmul(dgs * phi_e2[:, None, :],
                       dgs.transpose(0, 2, 1))    # (G, 2, 2)
        m2 = np.matmul(dgg * phi_e2[:, None, :],
                       dgg.transpose(0, 2, 1))    # (G, 5, 5)
        t[:, 0, 0] += 2.0 * (amp2_s * (m1[:, 0, 0] + cs2[:, 0])
                             + amp2_g * (m2[:, 0, 0] + cg2[:, 0]))
        t[:, 0, 1] += 2.0 * (amp2_s * (m1[:, 0, 1] + cs2[:, 1])
                             + amp2_g * (m2[:, 0, 1] + cg2[:, 1]))
        t[:, 1, 1] += 2.0 * (amp2_s * (m1[:, 1, 1] + cs2[:, 2])
                             + amp2_g * (m2[:, 1, 1] + cg2[:, 5]))
        for (p, q), row in _PAIR_ROW.items():
            if q >= 2:
                t[:, p, q] += 2.0 * amp2_g * (m2[:, p, q] + cg2[:, row])
        # Crosses with the second-moment amplitudes and the mixing fraction.
        sv = _mv(gs[:, None, :] * dgs, phi_e2)    # (G, 2)
        t[:, 0, 7] = 2.0 * sv[:, 0]
        t[:, 1, 7] = 2.0 * sv[:, 1]
        gv = _mv(gg[:, None, :] * dgg, phi_e2)    # (G, 5)
        mixv = _mv(dlg[:, None, :] * dgg + gg[:, None, :] * dldg, phi_e2)
        for p in range(5):
            t[:, p, 8] = 2.0 * gv[:, p]
            t[:, p, 9] += 2.0 * amp2_g * mixv[:, p]
        t[:, 8, 9] = 2.0 * np.sum(phi_e2 * (gg * dlg), axis=-1)
        t[:, 9, 9] += 2.0 * amp2_g * np.sum(phi_e2 * (dlg * dlg), axis=-1)

    hz += t
    hz += t.transpose(0, 2, 1)
    diag = np.arange(10)
    hz[:, diag, diag] -= t[:, diag, diag]
    return val, gz, hz


# ---------------------------------------------------------------------------
# Evaluation entry points (the front end, :mod:`repro.core.elbo`, calls these)


class ElboEval:
    """Dense evaluation result: the value and its derivatives over the free
    vector.

    ``val`` is a ``()``-shaped array; ``gradient(n)``/``hessian(n)`` return
    dense derivative arrays over the free vector (zero-padded into wider
    spaces), and ``hess`` is ``None`` in gradient-only mode — the surface
    the optimizers consume.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = np.asarray(val, dtype=np.float64)
        self.grad = grad
        self.hess = hess

    def gradient(self, n_params: int) -> np.ndarray:
        out = np.zeros(n_params)
        if self.grad is None:
            return out
        if n_params < len(self.grad):
            raise ValueError(
                "gradient has %d entries; asked for %d"
                % (len(self.grad), n_params)
            )
        # Zero-pad into wider spaces (the stored block always starts at
        # global index 0).
        out[:len(self.grad)] = self.grad
        return out

    def hessian(self, n_params: int) -> np.ndarray:
        out = np.zeros((n_params, n_params))
        if self.hess is None:
            return out
        p = self.hess.shape[0]
        if n_params < p:
            raise ValueError(
                "Hessian has shape %r; asked for %d"
                % (self.hess.shape, n_params)
            )
        out[:p, :p] = self.hess
        return out

    def __repr__(self):
        order = 0 if self.grad is None else (2 if self.hess is not None else 1)
        return "ElboEval(val=%r, order=%d)" % (float(self.val), order)


def _evaluate_lanes(stacks: list, chain: _EvalChain, order: int):
    """Pixel term over one lane group: per-lane value ``(G,)``, dense
    27-gradient ``(G, 27)``, and 27x27 Hessian (``None`` at order 1).

    Both stages are lane-stacked: the per-pixel sweep runs once per patch
    slot for all lanes, and the pixel-count-independent chain-rule stage
    contracts the whole group's ``(G, 10, 27)`` Jacobian stack in one
    ``matmul`` (which dispatches the identical per-lane GEMV/GEMM the old
    per-lane loop issued, so bits are unchanged)."""
    gsz = chain.n_lanes
    val = np.zeros(gsz)
    g27 = np.zeros((gsz, _N_ACTIVE))
    h27 = np.zeros((gsz, _N_ACTIVE, _N_ACTIVE)) if order >= 2 else None
    for pws in stacks:
        pval, gz, hz = _patch_pixel_term(pws, chain)
        val += pval
        jac = chain.patch_jacobians(pws)
        jacT = jac.transpose(0, 2, 1)
        g27 += np.matmul(jacT, gz[:, :, None])[:, :, 0]
        if order >= 2:
            h27 += np.matmul(jacT, np.matmul(hz, jac))
            chain.add_z_curvature(h27, pws, gz)
    return val, g27, h27


def elbo_fused_batch(
    ctxs: list,
    frees: list,
    order: int = 2,
    variance_correction: bool = True,
    compiled: _FusedBatchWorkspace | None = None,
    active=None,
) -> list:
    """Evaluate many sources' ELBOs in one stacked sweep.

    ``compiled`` is a :class:`_FusedBatchWorkspace` (from
    :func:`repro.core.elbo.compile_elbo_batch`; built on the fly when
    ``None``); it
    must have been compiled for exactly these contexts.  ``active`` is an
    optional per-lane boolean mask: inactive lanes still ride through the
    stacked pixel sweep (their lanes are baked into the stacks — that waste
    is what the batch-occupancy counters expose, and why callers repack
    once occupancy drops), but their results are skipped and returned as
    ``None``.  Returns one
    :class:`ElboEval` (or ``None``) per context, in order, each bit-for-bit
    equal to what a one-lane call returns for that context and free vector
    alone (lanes are independent).
    """
    if compiled is None:
        compiled = _FusedBatchWorkspace(ctxs)
    elif not compiled.matches(ctxs):
        raise ValueError(
            "compiled batch workspace does not match the given contexts; "
            "recompile with compile_batch after changing batch membership"
        )
    out: list = [None] * len(ctxs)
    for lanes, stacks, u_centers, kl_groups in compiled.groups:
        frees_g = np.array([np.asarray(frees[l], dtype=np.float64)
                            for l in lanes])
        chain = _EvalChain(u_centers, frees_g, order, variance_correction)
        if stacks:
            val, g27, h27 = _evaluate_lanes(stacks, chain, order)
            # What the kernel really stacked (a batch call splits into one
            # sweep per shape group): observational, like the front end's
            # elbo_batch_* pair, and on the sweep's first context's bag.
            ctxs[lanes[0]].counters.add_many({
                "elbo_sweep_calls": 1.0,
                "elbo_sweep_lanes": float(len(lanes)),
            })
        else:
            gsz = len(lanes)
            val = np.zeros(gsz)
            g27 = np.zeros((gsz, _N_ACTIVE))
            h27 = (np.zeros((gsz, _N_ACTIVE, _N_ACTIVE))
                   if order >= 2 else None)
        # KL terms, stacked per shared prior workspace: lanes under one
        # Priors (the production case — a survey uses one) evaluate their
        # KL values/gradients/Hessians in one lane-stacked sweep,
        # amortizing the many-small-ops dispatch cost the same way the
        # pixel sweep amortizes per-patch dispatch.  The pixel term's dense
        # 27-block is then added into the full free space.
        for klws, js in kl_groups:
            if active is not None:
                js = [j for j in js if active[lanes[j]]]
                if not js:
                    continue
            kvals, grads, hesses = klws.evaluate_stacked(frees_g[js], order)
            kvals += val[js]
            if order >= 1:
                grads[:, :_N_ACTIVE] += g27[js]
            if order >= 2:
                hesses[:, :_N_ACTIVE, :_N_ACTIVE] += h27[js]
            for i, j in enumerate(js):
                out[lanes[j]] = ElboEval(
                    kvals[i], None if grads is None else grads[i],
                    None if hesses is None else hesses[i])
    return out


def elbo_kl_fused(ctx: SourceContext, free, order: int = 2) -> ElboEval:
    """Only the (pixel-count-independent) KL terms of one source's ELBO,
    from the compiled closed-form :class:`KlWorkspace`."""
    val, grad, hess = _kl_workspace(ctx.priors).evaluate_stacked(
        np.asarray(free, dtype=np.float64)[None], order)
    return ElboEval(val[0], None if grad is None else grad[0],
                    None if hess is None else hess[0])
