"""The fused analytic ELBO kernel: compile once, evaluate many.

This is the one implementation of the objective's derivatives, the
reproduction's analogue of Celeste's hand-optimized derivative kernels.  A
mechanical alternative — one sparse-index Taylor expression tree, dozens of
NumPy temporaries, rebuilt on every Newton iteration of every source — is
kept in ``tests/taylor_oracle/`` as the reference this kernel is tested
against; it is not a production path.

**Compile once.**  The first evaluation of a :class:`SourceContext` compiles
its pixel-static data into a :class:`_FusedWorkspace`: per-patch pixel
coordinates and every PSF / galaxy-profile component mean, pre-inverted (constant)
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
   components of a patch — star, dev and exp — evaluate in one batched
   ``(K + Jd + Je, M)`` mixture pass that forms the six degree-<=2
   monomials ``lx^a ly^b g`` (:func:`_mixture`), and one per-pair GEMM of
   per-component coefficients over (monomial, component) turns them into
   every per-pixel feature row the term reads (:func:`_feature_rows`):
   the star's value, gradient and position Hessian, the mixed galaxy
   profile and its gradient, and their ``e_dev`` derivatives — the mixing
   fraction, ``var`` and the inverse covariances live in the
   coefficients.  The 15 packed Hessian rows of the galaxy profile are
   only ever needed summed over pixels against two weight vectors, so they
   are never built per pixel: they are contracted from Hermite moments of
   the same monomials, dev and exp in one call (:func:`_galaxy_curvature`).
2. The expected rate ``E[F]`` and second moment are *bilinear* in those
   per-pixel features and a 10-dimensional per-patch intermediate vector
   ``z = (upx, upy, sxx, sxy, syy, A_star, A_gal, B_star, B_gal,
   e_dev)`` whose amplitude entries fold calibration, type probability,
   and the log-normal flux moments.  The expected Poisson log-likelihood
   ``x E[log F] - E[F]`` (with the delta-approximation variance term)
   chains through per-pixel scalars, giving the patch value, its 10-vector
   z-gradient, and its 10x10 z-Hessian from pixel sums: the feature rows
   against a few weight columns, weighted Gram matrices of the leading
   rows, and the galaxy curvature.  A fixed scatter of amplitude-scaled
   entries of those sums (:class:`_Assembly`) fills the z-gradient and the
   z-Hessian's curvature part; its outer-product part is three small
   matmuls.
3. A patch's z is linear in its *band's* z — the same vector with the
   position in the sky frame and the amplitudes without calibration — so
   each patch's ``(gz, hz)`` goes through a fixed 10x10 map (the WCS
   matrix on the position rows, ``iota`` / ``iota^2`` on the amplitude
   rows) and accumulates per band.  The band blocks then chain to the free
   parameters through closed-form bijector/flux-moment Jacobians and
   Hessians that are independent of pixel count, once per band rather
   than once per patch — the wide-parameter outer products an expression
   tree would materialize per pixel never exist here.

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

**Batch evaluation.**  :class:`_FusedBatchWorkspace` lays out a batch
of contexts for one call — the reproduction's analogue of the paper's
AVX-512 batching of objective evaluations across light sources, and a
single-source evaluation is the one-lane case of the same code.  What a
call shares across its lanes is everything that does not scale with
pixels: one elementwise pass maps every LogitBox coordinate of the call's
free matrix (:func:`_bijector_pass`), and the bijector and flux-moment
chain (:class:`_EvalChain`) and the KL term (once per shared ``Priors``)
both read it; one *prologue* (:func:`_prologue`) forms each (lane, patch)
pair's small inputs — pixel-frame position, amplitude kinds, inverse
covariances, feature and curvature coefficients — stacked over every pair
of one component count, and one assembly (:func:`_assemble`) turns every
pair's pixel sums into z-space blocks; the pairs' blocks are mapped into
band space and summed per (lane, band) in slot order, and the chain rule
runs once over the call's (lane, band) pairs through index maps built at
import time.  The pixels themselves run one pass per (lane, patch) pair
(:func:`_patch_pixel_term`): patches of equal shape rarely coincide on
survey data, so stacking them into one sweep bought nothing.  Every
stacked primitive is lane-independent (elementwise ufuncs, reductions
over non-pair axes, and ``matmul`` over pair stacks, which dispatches the
identical per-pair product), and nothing is padded (NumPy's pairwise
summation groups by the reduced length), so every lane's result is
bit-for-bit independent of what shares its call — the invariant the
lockstep optimizer (:func:`repro.core.single.optimize_sources_batch`) and
the driver's catalog-level parity tests rely on.  The layout of a call
(:class:`_Layout`) is resolved once per batch, and cached on the context
for a one-lane call.

**Per-thread scratch.**  A patch's pixel-sized temporaries — the mixture
pass's offsets and monomials, the feature rows, and the moment pass's
fixed block of degree-3 and degree-4 monomials — live in a few grow-only
buffers per thread (:func:`_scratch`), never keyed by shape, so a
Cyclades worker thread re-uses the same memory across every iteration of
every source it updates (see :mod:`repro.parallel.cyclades`); the
executor releases them when an assignment completes.

**One implementation.**  The pixel term (:func:`_pixel_terms`: the
per-call prologue, the per-pair pixel passes of :func:`_patch_pixel_term`
and the assembly) is written once, as the NumPy passes above, and every
evaluation runs it.  Its oracles live in the tests: the
Taylor-mode ELBO for the whole objective (``tests/taylor_oracle/``, pinned
by ``tests/test_elbo_backends.py``), and per-component, per-pixel builds
of the feature rows, the galaxy Hessian rows and the entry-by-entry
z-Hessian (``tests/pixel_oracle.py``, pinned by
``tests/test_feature_rows.py`` and ``tests/test_contracted_curvature.py``).

Only affine WCS maps are supported (the survey's are); the workspace probes
the map numerically rather than reaching into its attributes.
"""

from __future__ import annotations

import mmap
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
from repro.transforms.bijectors import (
    logit_box_d012,
    softmax_fixed_last_d012_stacked,
)

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

#: Every :class:`LogitBox` coordinate of the free vector, ascending, with
#: its box — every bijector of :mod:`repro.core.params` but the
#: responsibilities' softmax.  :func:`_bijector_pass` maps them all at
#: once through per-coordinate ``lo`` / ``span`` vectors; ``_BOX[i]`` is
#: free index ``i``'s column in that pass.
_BOXES = ([(_IDX_A, _BIJ_PROB)] + [(i, _BIJ_U) for i in _IDX_U]
          + [(i, _BIJ_R2) for i in FREE.indices("r2")]
          + [(i, _BIJ_C2) for i in FREE.indices("c2")]
          + [(_IDX_DEV, _BIJ_DEV), (_SHAPE_IDX[0], _BIJ_AXIS),
             (_SHAPE_IDX[2], _BIJ_SCALE)])
_BOX_IDX = np.array([i for i, _ in _BOXES], dtype=np.intp)
_BOX_LO = np.array([b.lo for _, b in _BOXES])
_BOX_SPAN = np.array([b.hi - b.lo for _, b in _BOXES])
_BOX = {i: col for col, (i, _) in enumerate(_BOXES)}
_BX_U = slice(_BOX[_IDX_U[0]], _BOX[_IDX_U[1]] + 1)
_BX_R2 = slice(_BOX[FREE["r2"].start], _BOX[FREE["r2"].stop - 1] + 1)
_BX_C2 = slice(_BOX[FREE["c2"].start], _BOX[FREE["c2"].stop - 1] + 1)


def _bijector_pass(frees: np.ndarray) -> tuple:
    """Every LogitBox coordinate of the ``(N, 41)`` free matrix through its
    box in one elementwise pass: ``(value, d1, d2)``, each ``(N, 16)`` in
    :data:`_BOXES` order.  A batch call runs it once and the chain, the
    amplitude and shape chains and the KL stack all read from it; each
    element gets the arithmetic its own :class:`LogitBox` gives it."""
    return logit_box_d012(frees[:, _BOX_IDX], _BOX_LO, _BOX_SPAN)


#: Packed upper-triangle pair order of the 5 spatial variables
#: ``[upx, upy, sxx, sxy, syy]`` used for feature-Hessian rows.
_PAIRS = [(p, q) for p in range(5) for q in range(p, 5)]
_PAIR_ROW = {pq: r for r, pq in enumerate(_PAIRS)}

# KL-term index bookkeeping: the free indices of one type's blocks, in the
# local order the KL kernel accumulates them ``[r1, r2, c1 x4, c2 x4, k x7]``.
_IDX_R1 = np.asarray(FREE.indices("r1"))
_IDX_C1 = np.asarray(FREE.indices("c1")).reshape(2, NUM_COLORS)
_IDX_K = np.asarray(FREE.indices("k")).reshape(2, NUM_COLOR_COMPONENTS - 1)
_KL_TYPE_IDX = np.array([
    np.concatenate(([_IDX_R1[ty], FREE.indices("r2")[ty]], _IDX_C1[ty],
                    np.asarray(FREE.indices("c2")).reshape(2, -1)[ty],
                    _IDX_K[ty]))
    for ty in (STAR, GALAXY)])
_N_KL = _KL_TYPE_IDX.shape[1]
#: Flat ``(41 * 41)`` positions the KL Hessian's type terms land on, in
#: the order :meth:`KlWorkspace.evaluate_stacked` concatenates them: both
#: types' ``(17, 17)`` blocks, then the type-logit row and column.
_KL_HESS_FLAT = np.concatenate([
    (_KL_TYPE_IDX[:, :, None] * FREE.size + _KL_TYPE_IDX[:, None, :]).ravel(),
    _IDX_A * FREE.size + _KL_TYPE_IDX.ravel(),
    _KL_TYPE_IDX.ravel() * FREE.size + _IDX_A])
_LOG_2PI = float(np.log(2.0 * np.pi))

#: ``(STAR, GALAXY)`` signs and offsets of the type probabilities: ``p =
#: pg * _TYPE_SIGN + _TYPE_BASE`` is ``(1 - pg, pg)`` exactly (subtraction
#: is the addition of a negation), and its derivatives are ``pg' *
#: _TYPE_SIGN``.
_TYPE_SIGN = np.array([-1.0, 1.0])
_TYPE_BASE = np.array([1.0, 0.0])


def _type_weights(pg: np.ndarray) -> np.ndarray:
    """``(G, 2)`` type probabilities ``(1 - pg, pg)``."""
    p = pg[:, None] * _TYPE_SIGN
    p += _TYPE_BASE
    return p

#: Flat ``(17 * 17)`` positions of the type-term Hessian's diagonal
#: entries: the ``r1``, ``r2``, ``c1`` and ``c2`` diagonals, in that order.
_KL_DIAG_FLAT = np.arange(10) * (_N_KL + 1)


# ---------------------------------------------------------------------------
# Per-thread scratch pool


_TLS = threading.local()


def _scratch(name: str, size: int) -> np.ndarray:
    """Borrow ``size`` float64 elements of the calling thread's buffer
    ``name``.

    One buffer per name, grown to the longest request so far and never
    keyed by shape, so a thread holds a few of them however many patch
    shapes it evaluates.  The per-patch temporaries live here because a
    fresh allocation of their size (above the allocator's mmap threshold
    for a few hundred pixels) would page-fault its memory in on every
    evaluation.  The buffers are anonymous memory maps rather than heap
    blocks: a replaced or released buffer goes straight back to the OS,
    and freeing one cannot raise the allocator's adaptive mmap threshold,
    which would leave later large temporaries on a heap that keeps them
    resident.
    """
    pool = getattr(_TLS, "pool", None)
    if pool is None:
        pool = _TLS.pool = {}
    arr = pool.get(name)
    if arr is None or arr.size < size:
        arr = pool[name] = np.frombuffer(
            mmap.mmap(-1, 8 * max(size, 1)), dtype=np.float64)
    return arr[:size]


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
    the canonical map (:func:`_bijector_pass`) and through
    :func:`softmax_fixed_last_d012_stacked` for the responsibilities; the whole
    evaluation is a few dozen operations on arrays no larger than the 8x2
    mixture table, so it is pixel-count-independent.  Everything
    prior-dependent (log prior odds, inverse variances, mixture
    log-weights, per-component normalizer sums) is precomputed here, once,
    and shared by every source evaluated under these priors.
    """

    __slots__ = ("logit_phi", "log_phi", "log_1mphi", "r_loc", "r_ivar",
                 "half_r_ivar", "log_r_var", "log_w", "c_mean", "c_ivar",
                 "neg_c_ivar", "de_c2", "e_const")

    def __init__(self, priors: Priors):
        phi = float(priors.prob_galaxy)
        self.log_phi = float(np.log(phi))
        self.log_1mphi = float(np.log(1.0 - phi))  # det: ignore[NUM201] -- phi is validated in (0, 1) by Priors.__post_init__
        self.logit_phi = self.log_phi - self.log_1mphi
        self.r_loc = np.asarray(priors.r_loc, dtype=float)
        self.r_ivar = 1.0 / np.asarray(priors.r_var, dtype=float)
        self.half_r_ivar = 0.5 * self.r_ivar
        self.log_r_var = np.log(np.asarray(priors.r_var, dtype=float))
        with np.errstate(divide="ignore"):  # zero mixture weights -> -inf,
            # matching the reference expression exactly
            log_w = np.log(np.asarray(priors.k_weights, dtype=float))
        # The color tables are stored type-major, (T, C, D) and (T, D), to
        # line up with the KL kernel's (lane, type, ...) stacking.
        c_var = np.asarray(priors.c_var, dtype=float)
        self.log_w = np.ascontiguousarray(log_w.T)
        self.c_mean = np.ascontiguousarray(
            np.asarray(priors.c_mean, dtype=float).transpose(2, 0, 1))
        self.c_ivar = np.ascontiguousarray((1.0 / c_var).transpose(2, 0, 1))
        self.neg_c_ivar = -self.c_ivar
        #: dE_d / dc2_i, constant: ``-c_ivar / 2``.
        self.de_c2 = -0.5 * self.c_ivar
        #: Constant part of E_d: ``-0.5 sum_i (log 2pi + log v0_id)``, (T, D).
        self.e_const = np.ascontiguousarray(
            (-0.5 * (_LOG_2PI + np.log(c_var)).sum(axis=0)).T)

    def _type_terms_stacked(self, frees: np.ndarray, boxed: tuple,
                            order: int):
        """Both types' ``KL_bright + color`` terms over their own 17 free
        indices ``[r1, r2, c1 x4, c2 x4, k x7]`` (:data:`_KL_TYPE_IDX`,
        before the type-probability weighting), stacked over lanes and a
        ``(STAR, GALAXY)`` type axis: ``frees`` is ``(G, 41)``, ``boxed``
        its :func:`_bijector_pass`, and the returned ``(value, gradient,
        hessian)`` are ``(G, 2)``, ``(G, 2, 17)`` and ``(G, 2, 17, 17)``.
        Every operation is independent across lanes and types —
        elementwise ufuncs, reductions over non-lane axes, and stacked
        ``matmul`` (which dispatches the identical per-matrix product) — so
        lane ``i`` is bit-for-bit what a one-lane call on ``frees[i]``
        returns, which the lane-independence tests pin."""
        gsz = frees.shape[0]
        bv, b1, b2 = boxed

        # Gaussian log-brightness KL.
        m = frees[:, _IDX_R1]                                # (G, T)
        v, v1, v2 = bv[:, _BX_R2], b1[:, _BX_R2], b2[:, _BX_R2]
        diff = m - self.r_loc
        iv0 = self.r_ivar
        gb = -0.5 * ((v + diff * diff) * iv0 - 1.0 + self.log_r_var
                     - np.log(v))

        # Color GMM term: expected component log-densities and their
        # (separable) color derivatives.
        c1 = frees[:, _IDX_C1]                               # (G, T, C)
        c2v = bv[:, _BX_C2].reshape(gsz, 2, NUM_COLORS)
        dif = c1[..., None] - self.c_mean                    # (G, T, C, D)
        iv = self.c_ivar                                     # (T, C, D)
        e = self.e_const - 0.5 * (
            (c2v[..., None] + dif * dif) * iv).sum(axis=2)
        de_c1 = -dif * iv                                    # dE_d/dc1_i
        de_c2 = self.de_c2                                   # dE_d/dc2_i

        kappa, kjac, kh2 = softmax_fixed_last_d012_stacked(
            frees[:, _IDX_K].reshape(2 * gsz, -1))
        kappa = kappa.reshape(gsz, 2, -1)                    # (G, T, D)
        kjac = kjac.reshape(gsz, 2, *kjac.shape[1:])
        r = e + self.log_w - np.log(kappa)                   # (G, T, D)
        val = (gb + np.matmul(kappa[..., None, :], r[..., None])[..., 0, 0]
               + 0.5 * np.sum(np.log(c2v) + _LOG_2PI + 1.0, axis=-1))
        if order < 1:
            return val, None, None

        c2d1 = b1[:, _BX_C2].reshape(gsz, 2, NUM_COLORS)
        dv = 0.5 / v - self.half_r_ivar                      # d gb / d v
        gc2 = (np.matmul(de_c2, kappa[..., None])[..., 0]
               + 0.5 / c2v)                                  # d/d c2
        s = r - 1.0                                          # d/d kappa_d
        g = np.empty((gsz, 2, _N_KL))
        g[..., 0] = -diff * iv0
        g[..., 1] = dv * v1
        g[..., 2:6] = np.matmul(de_c1, kappa[..., None])[..., 0]
        g[..., 6:10] = gc2 * c2d1
        g[..., 10:] = np.matmul(kjac.swapaxes(-1, -2), s[..., None])[..., 0]
        if order < 2:
            return val, g, None

        c2d2 = b2[:, _BX_C2].reshape(gsz, 2, NUM_COLORS)
        h = np.zeros((gsz, 2, _N_KL, _N_KL))
        diag = np.empty((gsz, 2, 10))
        diag[..., 0] = -iv0
        diag[..., 1] = -0.5 / (v * v) * v1 * v1 + dv * v2
        diag[..., 2:6] = np.matmul(self.neg_c_ivar, kappa[..., None])[..., 0]
        diag[..., 6:10] = -0.5 / (c2v * c2v) * c2d1 * c2d1 + gc2 * c2d2
        h.reshape(gsz, 2, -1)[..., _KL_DIAG_FLAT] = diag
        # Responsibility x color coupling, through the softmax Jacobian.
        c1k = np.matmul(de_c1, kjac)                         # (G, T, 4, 7)
        c2k = np.matmul(de_c2, kjac) * c2d1[..., None]
        h[..., 2:6, 10:] = c1k
        h[..., 10:, 2:6] = c1k.swapaxes(-1, -2)
        h[..., 6:10, 10:] = c2k
        h[..., 10:, 6:10] = c2k.swapaxes(-1, -2)
        # Responsibility block: kappa-space curvature diag(-1/kappa) plus
        # the softmax's own second derivatives.
        kh2 = kh2.reshape(gsz, 2, *kh2.shape[1:])
        h[..., 10:, 10:] = (np.einsum("gtd,gtdjl->gtjl", s, kh2)
                            - np.matmul(
                                (kjac / kappa[..., None]).swapaxes(-1, -2),
                                kjac))
        return val, g, h

    def evaluate_stacked(self, frees: np.ndarray, order: int,
                         boxed: tuple | None = None):
        """KL value / 41-gradient / 41x41-Hessian for ``(G, 41)`` stacked
        free vectors: ``(value (G,), gradient (G, 41), hessian (G, 41,
        41))`` with the derivative slots ``None`` beyond ``order``; the
        returned arrays are freshly allocated (the fused objective
        accumulates the pixel term into them in place).  ``boxed`` is the
        rows' :func:`_bijector_pass` when the caller has it (a fused call
        shares its one pass); alone, the KL stack runs its own.

        Lane ``i`` of every output is bit-for-bit what a one-lane call on
        ``frees[i]`` returns (the lane-independence argument in
        :meth:`_type_terms_stacked`), so the KL term's many-small-ops
        dispatch cost is amortized across a whole call's lanes without
        results depending on how lanes were grouped."""
        frees = np.asarray(frees, dtype=np.float64)
        if boxed is None:
            boxed = _bijector_pass(frees)
        gsz = frees.shape[0]
        grad = np.zeros((gsz, FREE.size)) if order >= 1 else None
        hess = (np.zeros((gsz, FREE.size, FREE.size))
                if order >= 2 else None)

        a = _BOX[_IDX_A]
        pg, pg1, pg2 = boxed[0][:, a], boxed[1][:, a], boxed[2][:, a]
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

        tval, tgrad, thess = self._type_terms_stacked(frees, boxed, order)
        p = _type_weights(pg)                                # (G, T)
        pa1 = pg1[:, None] * _TYPE_SIGN
        # The two types' index blocks are disjoint; they meet only at the
        # type logit, where star accumulates before galaxy.
        val += p[:, STAR] * tval[:, STAR]
        val += p[:, GALAXY] * tval[:, GALAXY]
        if order >= 1:
            grad[:, _KL_TYPE_IDX] += p[:, :, None] * tgrad
            grad[:, _IDX_A] += pa1[:, STAR] * tval[:, STAR]
            grad[:, _IDX_A] += pa1[:, GALAXY] * tval[:, GALAXY]
        if order >= 2:
            cross = (pa1[:, :, None] * tgrad).reshape(gsz, -1)
            hess.reshape(gsz, -1)[:, _KL_HESS_FLAT] += np.concatenate(
                [(p[:, :, None, None] * thess).reshape(gsz, -1), cross,
                 cross], axis=1)
            hess[:, _IDX_A, _IDX_A] += -pg2 * tval[:, STAR]
            hess[:, _IDX_A, _IDX_A] += pg2 * tval[:, GALAXY]
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


class _PairStack:
    """The per-component statics of (lane, patch) pairs, stacked on a
    leading pair axis: what a patch contributes to its evaluation apart
    from its pixels.  The per-call prologue (:func:`_prologue`) reads a
    whole call's pairs of one component count at once from here, so each
    patch's small work runs once per call rather than once per patch.

    ``w2pi`` / ``var`` ``(P, C, 1)`` and ``pcov`` ``(P, C, 3)`` (the PSF
    covariance ``pxx, pxy, pyy``) describe the components; ``fac``,
    ``base0``, ``mix0`` and ``vpow`` are the pixel-static parts of the
    feature and curvature coefficients (see :class:`_PatchWorkspace`);
    ``iota`` / ``iotas`` ``(P, 4)`` the calibration and its powers per
    amplitude kind, ``wa`` / ``wt`` the affine WCS and ``zmap`` the
    patch-to-band map."""

    __slots__ = ("n_star", "n_dev", "w2pi", "var", "pcov", "fac", "base0",
                 "mix0", "vpow", "iota", "iotas", "wa", "wt", "zmap")

    _STACKED = ("w2pi", "var", "pcov", "fac", "base0", "mix0", "vpow",
                "iota", "iotas", "wa", "wt", "zmap")

    @property
    def comp_key(self) -> tuple:
        """Component counts (star, dev, exp): pairs with equal keys share
        one prologue stack."""
        return (self.n_star, self.n_dev,
                self.var.shape[1] - self.n_star - self.n_dev)

    @staticmethod
    def concat(parts: list) -> "_PairStack":
        """The pairs of ``parts`` (same component key), in order."""
        if len(parts) == 1:
            return parts[0]
        out = object.__new__(_PairStack)
        out.n_star, out.n_dev = parts[0].n_star, parts[0].n_dev
        for name in _PairStack._STACKED:
            setattr(out, name, np.concatenate(
                [getattr(s, name) for s in parts], axis=0))
        return out


class _PatchWorkspace(_PairStack):
    """Everything pixel-static about one patch slot, precomputed.

    The pixel arrays (``counts``, ``bg``, the pixel coordinates ``pix``
    and the component means ``mu``) are what the slot's pixel pass reads;
    as a one-pair :class:`_PairStack` (leading axis 1) the slot also holds
    the statics the per-call prologue reads."""

    __slots__ = ("band", "counts", "bg", "n_pixels", "pix", "mu")

    def __init__(self, patch):
        self.band = patch.band
        iota = float(patch.calibration)
        self.iota = np.array([iota])
        self.iotas = np.array([[iota, iota, iota * iota, iota * iota]])
        self.counts = np.asarray(patch.counts, dtype=np.float64)
        self.bg = np.asarray(patch.background, dtype=np.float64)
        self.n_pixels = patch.n_pixels

        # One component axis for the whole patch: the star's PSF components,
        # then the dev and exp galaxy x PSF products.  A component's
        # covariance is ``var * S + P`` for the galaxy shape S, and the
        # star's ``var`` is 0, so every component evaluates alike.
        w, mux, muy, sxx, sxy, syy = patch.star_arrays
        dev, exp = patch.gal_arrays["dev"], patch.gal_arrays["exp"]
        self.n_star, self.n_dev = len(w), len(dev[0])
        cols = [np.concatenate(c)[None] for c in zip(
            (w, np.zeros_like(w), mux, muy, sxx, sxy, syy), dev, exp)]
        ww, var, mux, muy, pxx, pxy, pyy = cols
        self.w2pi = ww / _TWO_PI                              # (1, C, 1)
        self.var = var
        self.pcov = np.concatenate([pxx, pxy, pyy], axis=2)   # (1, C, 3)
        #: Pixel coordinates ``(2, 1, M)`` and component means ``(2, C,
        #: 1)``: their difference is the pixel offsets from each component
        #: mean, formed per evaluation in scratch (:func:`_mixture`) — a
        #: lockstep call holds many contexts' workspaces at once, and ``C``
        #: times the pixels would dominate them.
        self.pix = np.stack([patch.px, patch.py])[:, None, :]
        self.mu = np.stack([mux[0], muy[0]])
        # The pixel-static parts of the feature-row coefficients
        # (_feature_coefficients): per component, the six base rows over
        # the six monomials — monomials 0-2 as they are, 3-5 times the
        # component's factor ``fac`` (1 on the star's position Hessian,
        # ``var / 2, var, var / 2`` on a galaxy's shape gradient, as shape
        # enters C through ``var``); their ``-fac * I`` entries on monomial
        # 0 are filled per evaluation.  ``mix0`` holds the fixed row-group
        # weights (the ``e_dev`` ones are filled per evaluation), ``vpow``
        # the galaxy components' ``var^0..2`` for the Hermite basis.
        n_comp, ns, nd = var.shape[1], self.n_star, self.n_dev
        fac = np.ones((1, 3, n_comp))
        fac[0, :, ns:] = np.array([[0.5], [1.0], [0.5]]) * var[0, ns:, 0]
        self.fac = fac
        base0 = np.zeros((1, 6, 6, n_comp))
        diag = np.arange(6)
        base0[0, diag, diag] = np.concatenate([np.ones((3, n_comp)), fac[0]])
        self.base0 = base0
        mix0 = np.zeros((1, 3, n_comp))
        mix0[0, 0, :ns] = 1.0
        mix0[0, 2, ns:ns + nd] = 1.0
        mix0[0, 2, ns + nd:] = -1.0
        self.mix0 = mix0
        vg = var[0, ns:, 0]
        self.vpow = np.stack([np.ones_like(vg), vg, vg * vg])[None]

        # Affine WCS coefficients, probed through the public map so any
        # affine WCS implementation works: pix = wa @ sky + wt.
        t = np.asarray(patch.wcs.sky_to_pix(np.zeros(2)), dtype=float)
        ex = np.asarray(patch.wcs.sky_to_pix(np.array([1.0, 0.0])), dtype=float)
        ey = np.asarray(patch.wcs.sky_to_pix(np.array([0.0, 1.0])), dtype=float)
        self.wa = np.column_stack([ex - t, ey - t])[None]   # (1, 2, 2)
        self.wt = t[None]

        # The patch's z is linear in its band's z (see _EvalChain): pixel
        # position is the WCS image of the sky position, and the amplitudes
        # carry the calibration (second moments its square).  This fixed
        # map, dz_patch / dz_band, chains a patch's pixel-term blocks into
        # band space before any free-parameter Jacobian is touched.
        zmap = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, iota, iota,
                        iota * iota, iota * iota, 1.0])
        zmap[:2, :2] = self.wa[0]
        self.zmap = zmap[None]


class _FusedWorkspace:
    """One context's compiled workspace: its patch slots, its prologue
    stacks (its patches grouped by :attr:`_PairStack.comp_key`, in slot
    order), its shared :class:`KlWorkspace`, and — built on the first
    one-lane call and kept — its one-lane :class:`_Layout`.  It holds no
    reference to the context, so caching it there makes no cycle."""

    __slots__ = ("patches", "kl", "u_center", "stacks", "_alone")

    def __init__(self, ctx: SourceContext):
        self.patches = [_PatchWorkspace(p) for p in ctx.patches]
        # Shared across every context evaluated under the same priors.
        self.kl = _kl_workspace(ctx.priors)
        self.u_center = np.asarray(ctx.u_center, dtype=float)
        by_key: dict[tuple, list] = {}
        for pws in self.patches:
            by_key.setdefault(pws.comp_key, []).append(pws)
        self.stacks = {key: _PairStack.concat(parts)
                       for key, parts in by_key.items()}
        self._alone = None

    def alone(self) -> "_Layout":
        """The layout of a call that evaluates this context alone."""
        if self._alone is None:
            self._alone = _Layout([self])
        return self._alone


def _context_workspace(ctx: SourceContext) -> _FusedWorkspace:
    ws = ctx.workspace
    if ws is None:
        ws = ctx.workspace = _FusedWorkspace(ctx)
    return ws


class _Ranks:
    """Rank columns of a list of index lists (:func:`_ranks`): column
    ``r`` holds every list's ``r``-th entry, or the pad index where a list
    is shorter; ``padded`` says whether any column uses it."""

    __slots__ = ("cols", "padded")


def _ranks(lists: list, pad: int) -> _Ranks:
    width = max((len(x) for x in lists), default=0)
    table = np.full((len(lists), width), pad, dtype=np.intp)
    for i, x in enumerate(lists):
        table[i, :len(x)] = x
    out = _Ranks()
    out.cols = [np.ascontiguousarray(table[:, r]) for r in range(width)]
    out.padded = bool((table == pad).any())
    return out


def _ordered_sum(blocks: list, ranks: _Ranks, n: int) -> np.ndarray:
    """Row ``i`` of the result is ``0 + rows[ranks[0][i]] +
    rows[ranks[1][i]] + ...``, added in rank order — the sequence of
    in-place ``+=`` onto zeros a per-item loop would run — for ``rows``
    the concatenated ``blocks``.  Where a list is shorter its pad index
    reads one extra zero row: an accumulator that starts at ``+0.0`` is
    never ``-0.0``, so adding ``+0.0`` to it is exact."""
    tail = blocks[0].shape[1:]
    if ranks.padded:
        blocks = blocks + [np.zeros((1,) + tail)]
    rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if not ranks.cols:
        return np.zeros((n,) + tail)
    out = rows.take(ranks.cols[0], axis=0)
    out += 0.0                          # the first add, onto zeros
    for idx in ranks.cols[1:]:
        out += rows.take(idx, axis=0)
    return out


class _Group:
    """One prologue stack of a call: every (lane, patch) pair of one
    component key, lane-major, with each pair's lane, band column and
    patch slot (whose pixel workspace its pixel pass reads)."""

    __slots__ = ("stack", "lane", "col", "slots")


class _Layout:
    """Where everything of a batch call lives: the index structure that
    the per-call prologue, the per-pair pixel passes, the band-space
    accumulation and the chain rule read, resolved once per batch (and
    cached on the context for a one-lane call).

    - ``pair_groups``: one :class:`_Group` per component key.
    - ``lb_lane`` / ``lb_col``: every observed (lane, band) pair,
      band-major, the order the chain rule adds bands into a lane.
    - ``pair_rank`` / ``lane_rank`` / ``lb_rank``: :func:`_ranks` that
      sum patches into their (lane, band) pair and values into their lane
      in slot order, and bands into their lane in band order — the order
      a per-patch, per-band loop would add them.
    """

    __slots__ = ("u_centers", "bands", "kl_groups", "pair_groups",
                 "lb_lane", "lb_col", "pair_rank", "lane_rank", "lb_rank")

    def __init__(self, members: list):
        n = len(members)
        #: The ``(N, 2)`` box centers, the sorted bands any lane observes,
        #: and the lanes grouped by shared :class:`KlWorkspace` (one
        #: stacked KL evaluation each).
        self.u_centers = np.array([m.u_center for m in members]).reshape(n, 2)
        lane_bands = [{p.band for p in m.patches} for m in members]
        self.bands = tuple(sorted(set().union(*lane_bands)))
        col = {b: i for i, b in enumerate(self.bands)}
        by_kl: dict[int, tuple] = {}
        for l, m in enumerate(members):
            by_kl.setdefault(id(m.kl), (m.kl, []))[1].append(l)
        self.kl_groups = [(kl, np.array(ls, dtype=np.intp))
                          for kl, ls in by_kl.values()]

        # A lane's pairs of one key are consecutive rows of its group, in
        # slot order: the rows of the lane's own stack of that key.
        groups: dict[tuple, dict] = {}
        row_of = []                       # per lane: (key, row) per slot
        for l, m in enumerate(members):
            for key, stack in m.stacks.items():
                groups.setdefault(key, {"parts": [], "lane": [], "col": [],
                                        "slots": []})["parts"].append(stack)
            rows = []
            for pws in m.patches:
                g = groups[pws.comp_key]
                rows.append((pws.comp_key, len(g["slots"])))
                g["slots"].append(pws)
                g["lane"].append(l)
                g["col"].append(col[pws.band])
            row_of.append(rows)
        self.pair_groups = []
        offset = {}
        n_pairs = 0
        for key, g in groups.items():
            grp = _Group()
            grp.stack = _PairStack.concat(g["parts"])
            grp.lane = np.array(g["lane"], dtype=np.intp)
            grp.col = np.array(g["col"], dtype=np.intp)
            grp.slots = g["slots"]
            self.pair_groups.append(grp)
            offset[key] = n_pairs
            n_pairs += len(g["slots"])

        lb = [(c, l) for c, b in enumerate(self.bands) for l in range(n)
              if b in lane_bands[l]]
        self.lb_lane = np.array([l for _, l in lb], dtype=np.intp)
        self.lb_col = np.array([c for c, _ in lb], dtype=np.intp)
        q_of = {pair: q for q, pair in enumerate(lb)}
        per_q = [[] for _ in lb]
        per_lane = [[] for _ in range(n)]
        lane_q = [[] for _ in range(n)]
        for l, m in enumerate(members):
            for pws, (key, row) in zip(m.patches, row_of[l]):
                per_q[q_of[(col[pws.band], l)]].append(offset[key] + row)
                per_lane[l].append(offset[key] + row)
        for q, (_, l) in enumerate(lb):
            lane_q[l].append(q)
        self.pair_rank = _ranks(per_q, n_pairs)
        self.lane_rank = _ranks(per_lane, n_pairs)
        self.lb_rank = _ranks(lane_q, len(lb))


class _FusedBatchWorkspace:
    """Compile-once layout of a fixed batch of contexts: their compiled
    workspaces and the call's :class:`_Layout` — the per-call prologue
    over every (lane, patch) pair, one pixel pass per pair, the
    band-space accumulation, the chain and the KL term.

    **No padding, by design.**  A lane's result must be bit-for-bit
    independent of what shares its batch, and a masked/padded tail cannot
    be: NumPy reductions use pairwise summation whose grouping depends on
    the reduced length, so summing a zero-padded row changes the result's
    last bits.  Each pair's pixel pass reduces over exactly its own
    pixels, as a one-lane call does, and every stacked primitive of the
    prologue, the assembly and the chain is lane-independent (elementwise
    ufuncs; reductions over non-pair axes; ``matmul`` over pair stacks,
    which dispatches the identical per-pair GEMM), which the
    exact-equality tests pin.
    """

    __slots__ = ("ctxs", "layout")

    def __init__(self, ctxs: list):
        self.ctxs = list(ctxs)
        members = [_context_workspace(ctx) for ctx in self.ctxs]
        self.layout = (members[0].alone() if len(members) == 1
                       else _Layout(members))

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
# Galaxy components see the shape covariance through C = var * S + C_psf, so
# every shape derivative scales by var (and var^2 at second order).
#
# So every per-pixel row the pixel term reads is, component by component, a
# combination of the six degree-<=2 monomials ``lx^a ly^b g`` whose
# coefficients are per-component scalars (1, var, ixx, ixy, iyy) times the
# component's share of the row: 1 for a star row, ``e_dev`` / ``1 - e_dev``
# for the mixed galaxy profile ``gg``, ``+1`` / ``-1`` for its ``e_dev``
# derivative ``dlg``.  The monomials are formed once per pair and one GEMM
# over (component, monomial) yields all the rows
# (:func:`_feature_rows`).

#: Feature rows, in the order :func:`_feature_rows` returns them: the star
#: value ``gs`` and position gradient ``dgs`` (2), the mixed galaxy profile
#: ``gg`` and its gradient ``dgg`` over ``[upx, upy, sxx, sxy, syy]`` (5),
#: ``dlg = d gg / d e_dev``, then the rows only the z-Hessian reads: the
#: star position Hessian ``hgs`` (``xx, xy, yy``) and ``dldg``, the spatial
#: gradient of ``dlg`` (5).  The first :data:`_N_GRAM` rows are those the
#: z-gradient and the outer-product terms are built from.
_F_GS, _F_DGS, _F_GG, _F_DGG, _F_DLG, _F_HGS, _F_DLDG = 0, 1, 3, 4, 9, 10, 13
_N_GRAM = 10
#: Per feature row: its row group (0: star components with weight 1; 1:
#: galaxy components weighted ``e_dev`` / ``1 - e_dev``; 2: the same
#: weighted ``+1`` / ``-1``) and its base row ``k`` — monomial ``k``, less
#: ``I g`` for ``k >= 3`` (a position-Hessian or shape-gradient row, scaled
#: by the component's factor in :attr:`_PatchWorkspace.base0`).
_ROW_GROUP = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 2, 2, 2, 2, 2])
_ROW_BASE = np.array([0, 1, 2, 0, 1, 2, 3, 4, 5, 0, 3, 4, 5, 1, 2, 3, 4, 5])


def _covariances(st: _PairStack, shape: np.ndarray):
    """Per-pair component inverse covariances ``icov`` ``(P, C, 3)``
    (``ixx, ixy, iyy``) and normalizers ``alpha`` ``(P, C, 1)`` for the
    pairs' galaxy shapes ``shape`` ``(P, 3)`` (``sxx, sxy, syy``): a
    component's covariance is ``var * S + P``.  Pixel-independent, so the
    prologue forms it for a whole call's pairs at once."""
    cov = st.var * shape[:, None, :] + st.pcov
    det = cov[..., 0] * cov[..., 2] - cov[..., 1] * cov[..., 1]
    icov = cov[..., ::-1] / det[..., None]
    np.negative(icov[..., 1], out=icov[..., 1])
    return icov, st.w2pi / np.sqrt(det)[..., None]


def _mixture(pws: _PatchWorkspace, up: np.ndarray, icov: np.ndarray,
             alpha: np.ndarray):
    """One pass over every component of a patch slot (star, dev and exp
    alike), for one pair's pixel-frame position ``up`` ``(2,)`` and its
    row of :func:`_covariances`: the whitened offsets ``lx``, ``ly`` ``(C,
    M)`` and the six monomials ``lx^a ly^b g``, ``a + b <= 2``, as ``(6,
    C, M)`` in :data:`_MONOMIALS` order (monomial-major, so that each
    multiply below writes one contiguous block).  The arrays live in the
    calling thread's scratch, valid until its next call."""
    inv = icov.T[..., None]                       # (3, C, 1)
    c, m = pws.mu.shape[1], pws.pix.shape[2]
    n = c * m
    work = _scratch("mixture", 10 * n)
    dxy, lxy = work[:4 * n].reshape(2, 2, c, m)
    mono = work[4 * n:].reshape(6, c, m)
    g = mono[0]                         # also the temporary until the exp
    np.subtract(pws.pix, pws.mu, out=dxy)
    np.subtract(dxy, up[:, None, None], out=dxy)
    # (lx, ly) = (ixx, ixy) dx + (ixy, iyy) dy, then q = lx dx + ly dy.
    np.multiply(inv[0:2], dxy[0:1], out=lxy)
    lxy += np.multiply(inv[1:3], dxy[1:2], out=mono[1:3])
    np.multiply(lxy, dxy, out=dxy)
    np.add(dxy[0], dxy[1], out=g)
    # -q / 2 <= 0 for a positive-definite covariance; the clip only
    # absorbs rounding.
    arg = np.minimum(np.multiply(g, -0.5, out=dxy[0]), 0.0, out=dxy[0])
    np.exp(arg, out=g)
    g *= alpha
    np.multiply(lxy, g, out=mono[1:3])
    np.multiply(lxy, mono[1], out=mono[3:5])
    lx, ly = lxy
    np.multiply(ly, mono[2], out=mono[5])
    return lx, ly, mono


def _row_mix(st: _PairStack, dev: np.ndarray) -> np.ndarray:
    """Per-pair component weights of the three row groups, ``(P, 3, C)``."""
    mix = st.mix0.copy()
    ns, nd = st.n_star, st.n_dev
    mix[:, 1, ns:ns + nd] = dev[:, None]
    mix[:, 1, ns + nd:] = (1.0 - dev)[:, None]
    return mix


def _feature_coefficients(st: _PairStack, icov: np.ndarray,
                          mix: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-pair coefficients of the first ``n_rows`` feature rows over
    (monomial, component), ``(P, n_rows, 6, C)``: the row-group weights
    ``mix`` (:func:`_row_mix`) times the base rows, whose ``-fac * I``
    entries on monomial 0 come from the inverse covariances."""
    base = st.base0.copy()
    np.multiply(st.fac, icov.transpose(0, 2, 1), out=base[:, 3:, 0])
    np.negative(base[:, 3:, 0], out=base[:, 3:, 0])
    return mix[:, _ROW_GROUP[:n_rows], None] * base[:, _ROW_BASE[:n_rows]]


def _feature_rows(coef: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """The feature rows (:data:`_F_GS` ...) per pixel, ``(n_rows, M)``:
    one GEMM of a pair's ``(n_rows, 6 C)`` coefficients
    (:func:`_feature_coefficients`) over (monomial, component) against the
    monomials of :func:`_mixture`.  The mixing weights, ``var`` and ``I``
    live in the coefficients, so no mixing pass over pixels remains.  The
    rows live in the calling thread's scratch, valid until its next
    call."""
    n_rows, _, c = coef.shape
    m = mono.shape[2]
    return np.matmul(coef.reshape(n_rows, 6 * c), mono.reshape(6 * c, m),
                     out=_scratch("features", n_rows * m).reshape(n_rows, m))


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

#: Pixels per moment block.  Fixed, so the scratch of the degree-3 and
#: degree-4 monomials is one ``(9, J, block)`` buffer per thread whatever
#: the patch shape, and short enough that the multiply chain's operands
#: stay cache-resident.
_MOMENT_BLOCK = 512

#: The 15 monomials ``lx^a ly^b`` with ``a + b <= 4``, by degree.
_MONOMIALS = [(n - b, b) for n in range(5) for b in range(n + 1)]
#: Exponents of ``(ixx, ixy, iyy)`` in the coefficient basis, in the order
#: :func:`_galaxy_curvature` fills it.
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


def _galaxy_moments(pws: _PatchWorkspace, lx: np.ndarray, ly: np.ndarray,
                    mono: np.ndarray, wts: np.ndarray,
                    mom: np.ndarray) -> None:
    """The galaxy components' Hermite moments ``sum_m lx^a ly^b g w`` of
    one pair against ``C`` weight columns ``wts`` ``(M, C)``, added into
    ``mom`` ``(15, J, C)`` (zeros on entry) in :data:`_MONOMIALS` order;
    the other inputs are :func:`_mixture`'s.

    Contract before expanding: every packed Hessian row of the mixed
    galaxy profile is ``H(l) g`` for a Hermite polynomial ``H`` of degree
    <= 4 (see :data:`_HERMITE_TABLE`), so these moments are all the pixels
    contribute (:func:`_galaxy_curvature` does the rest).  The six of
    degree <= 2 come from :func:`_mixture`'s monomials in one GEMM; the
    nine of degree 3 and 4 are formed a block of pixels at a time (four
    multiplies into scratch) and contracted with one GEMM per block.
    Pixel blocks have a fixed length, so the scratch is one fixed block
    per thread, never a buffer per patch shape."""
    _, c, m = mono.shape
    ns = pws.n_star
    j = c - ns
    ncol = wts.shape[1]
    low = np.matmul(mono.reshape(6 * c, m), wts)
    mom[:6] = low.reshape(6, c, ncol)[:, ns:]
    high = mom[6:].reshape(9 * j, ncol)
    scratch = _scratch("moments", 9 * j * _MOMENT_BLOCK)
    for lo in range(0, m, _MOMENT_BLOCK):
        hi = min(lo + _MOMENT_BLOCK, m)
        blk = scratch[:9 * j * (hi - lo)].reshape(9, j, hi - lo)
        sq = mono[3:, ns:, lo:hi]          # lx^2 g, lx ly g, ly^2 g
        bx = lx[ns:, lo:hi]
        by = ly[ns:, lo:hi]
        np.multiply(sq, bx, out=blk[:3])
        np.multiply(sq[2], by, out=blk[3])
        np.multiply(blk[:4], bx, out=blk[4:8])
        np.multiply(blk[3], by, out=blk[8])
        high += np.matmul(blk.reshape(9 * j, hi - lo), wts[lo:hi])


def _curvature_basis(st: _PairStack, icov: np.ndarray,
                     mix: np.ndarray) -> np.ndarray:
    """Per-pair coefficient basis of the galaxy curvature, ``(P, 30,
    J)``: per galaxy component, the ``(ixx, ixy, iyy)`` monomials of
    :data:`_IMONOMIALS` times ``var^0..2`` times the component's ``e_dev``
    / ``1 - e_dev`` weight, so dev and exp contract together."""
    p, c, _ = icov.shape
    ns = st.n_star
    j = c - ns
    imon = np.empty((p, 10, j))
    imon[:, 0] = 1.0
    imon[:, 1:4] = icov.transpose(0, 2, 1)[:, :, ns:]
    np.multiply(imon[:, 1:4], imon[:, 1:2], out=imon[:, 4:7])
    np.multiply(imon[:, 2:4], imon[:, 2:3], out=imon[:, 7:9])
    np.multiply(imon[:, 3], imon[:, 3], out=imon[:, 9])
    vw = st.vpow * mix[:, 1:2, ns:]
    return (vw[:, :, None] * imon[:, None]).reshape(p, 30, j)


def _galaxy_curvature(basis: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """The mixed galaxy profile's packed Hessian rows (:data:`_PAIRS`
    order) contracted over pixels against the moments' weight columns,
    ``(P, 15, C)`` — what contracting the per-pixel rows ``e_dev * H_dev
    + (1 - e_dev) * H_exp`` against each column would give, without
    building them: the ``(15, J, C)`` moments of :func:`_galaxy_moments`
    meet the coefficient basis (:func:`_curvature_basis`) and the Hermite
    table in two small matmuls."""
    q = np.matmul(basis[:, None], mom)
    return np.matmul(_HERMITE_TABLE, q.reshape(q.shape[0], 450, -1))


# ---------------------------------------------------------------------------
# Pixel-independent chain-rule pieces (shared across patches / bands)


#: Per-band amplitude-chain constants, keyed by the call's sorted bands:
#: the color coefficients ``(B, C)``, their squares, and ``dm`` ``(B,
#: 10)``, the log-flux mean's derivative over ``[r1, r2, c1 x4, c2 x4]``.
_AMP_TABLES: dict[tuple, tuple] = {}


def _amp_tables(bands: tuple) -> tuple:
    hit = _AMP_TABLES.get(bands)
    if hit is None:
        coeff = COLOR_COEFFS[list(bands)]
        dm = np.zeros((len(bands), 10))
        dm[:, 0] = 1.0
        dm[:, 2:2 + NUM_COLORS] = coeff
        hit = _AMP_TABLES[bands] = (coeff, coeff * coeff, dm)
    return hit


def _amp_chains(frees: np.ndarray, boxed: tuple, bands: tuple, order: int,
                variance_correction: bool):
    """The z amplitudes of every band without the per-patch calibration
    factor, ``prob(type) * moment``, with gradient/Hessian over the 11
    amplitude indices (type logit + the type's flux block, :data:`_AMP_IDX`).

    Stacked over lanes, amplitude kind and band: ``frees`` is ``(N, 41)``
    (``boxed`` its :func:`_bijector_pass`) and the returned ``(value,
    gradient, hessian)`` are ``(N, K, B)``, ``(N, K, B, 11)`` and ``(N, K,
    B, 11, 11)`` (Hessian ``None`` below order 2), with ``K`` running over
    ``(A_star, A_gal, B_star, B_gal)`` — the first-moment amplitudes, then
    the second-moment ones, which exist only under the variance
    correction.

    The moments are log-normal: ``E[f] = exp(L1)`` with ``L1 = m + v/2``
    and ``E[f^2] = exp(L2)`` with ``L2 = 2m + 2v``, over one type's 10 flux
    parameters ``[r1, r2, c1_0..3, c2_0..3]``; ``m`` is linear in (r1, c1)
    and ``v`` is a sum of per-parameter bijector images, so ``dL`` is a
    vector and ``d2L`` a diagonal.  Every entry is the elementwise image of
    the one-band, one-type formulas (``m`` and ``v`` add their color terms
    in color order), so a lane's bits depend on neither the other lanes
    nor the other bands.  The flux block of the Hessian adds the ``ddL``
    diagonal as a full zero-filled array, so every off-diagonal entry gets
    the same explicit ``+ 0.0`` (``-0.0 + 0.0`` is ``+0.0``) whatever the
    stack."""
    coeff, ww, dm = _amp_tables(bands)
    bv, b1, b2 = boxed
    gsz = frees.shape[0]
    shape = (gsz, 2, len(bands))                         # (lane, type, band)
    a = _BOX[_IDX_A]
    pg, pg1, pg2 = bv[:, a], b1[:, a], b2[:, a]
    c2 = (gsz, 2, 1, NUM_COLORS)
    wc = coeff * frees[:, _IDX_C1][:, :, None, :]        # (N, T, B, C)
    wv = ww * bv[:, _BX_C2].reshape(c2)
    m = frees[:, _IDX_R1][:, :, None] + wc[..., 0]
    # v starts from r2 > 0, which is 0.0 + r2 exactly.
    v = bv[:, _BX_R2][:, :, None] + wv[..., 0]
    for i in range(1, NUM_COLORS):
        m += wc[..., i]
        v += wv[..., i]
    dv = np.zeros(shape + (10,))
    ddv = np.zeros(shape + (10,))
    dv[..., 1] = b1[:, _BX_R2][:, :, None]
    ddv[..., 1] = b2[:, _BX_R2][:, :, None]
    dv[..., 6:] = ww * b1[:, _BX_C2].reshape(c2)
    ddv[..., 6:] = ww * b2[:, _BX_C2].reshape(c2)
    n_mom = 2 if variance_correction else 1
    # (N, kind, T, B): the kind-major flattening of (kind, T) is K.
    moment = np.empty((gsz, n_mom) + shape[1:])
    dl = np.empty((gsz, n_mom) + shape[1:] + (10,))
    ddl = np.empty_like(dl)
    np.exp(m + 0.5 * v, out=moment[:, 0])  # det: ignore[NUM200] -- log-flux moment is unbounded by design; the runtime NumericSanitizer watches this path
    dl[:, 0] = dm + 0.5 * dv
    np.multiply(0.5, ddv, out=ddl[:, 0])
    if variance_correction:
        np.exp(2.0 * m + 2.0 * v, out=moment[:, 1])  # det: ignore[NUM200] -- log-flux moment is unbounded by design; the runtime NumericSanitizer watches this path
        dl[:, 1] = 2.0 * dm + 2.0 * dv
        np.multiply(2.0, ddv, out=ddl[:, 1])
    shape_k = (gsz, 2 * n_mom, len(bands))
    p = _type_weights(pg)[:, None, :, None]
    p1 = (pg1[:, None] * _TYPE_SIGN)[:, None, :, None]

    val = p * moment
    grad = np.empty(val.shape + (11,))
    grad[..., 0] = p1 * moment
    grad[..., 1:] = val[..., None] * dl
    hess = None
    if order >= 2:
        p2 = (pg2[:, None] * _TYPE_SIGN)[:, None, :, None]
        hess = np.empty(val.shape + (11, 11))
        hess[..., 0, 0] = p2 * moment
        cross = grad[..., :1] * dl                       # (p1 * moment) dl
        hess[..., 0, 1:] = cross
        hess[..., 1:, 0] = cross
        dd = np.zeros(val.shape + (10, 10))
        dd.reshape(val.shape + (100,))[..., ::11] = ddl  # the diagonal
        hess[..., 1:, 1:] = val[..., None, None] * (
            dl[..., :, None] * dl[..., None, :] + dd)
        hess = hess.reshape(shape_k + (11, 11))
    return val.reshape(shape_k), grad.reshape(shape_k + (11,)), hess


#: The shape chain's entries as products of a left factor (a multiple of
#: ``c^2, s^2, cos 2phi, sin 2phi``: column ``_SHAPE_LEFT[i]`` of those
#: four times ``_SHAPE_LEFT_COEF[i]``) and a right one (a base quantity or
#: a difference of two, :data:`_SHAPE_RIGHT`), each entry one product or
#: the sum of two, in the order the scalar formulas add them.
_SHAPE_LEFT = [1, 3, 0, 3, 2, 3, 2, 2, 3, 3]
_SHAPE_LEFT_COEF = np.array([1.0, 1.0, 1.0, -0.5, 1.0, 0.5, 2.0, -1.0, -2.0,
                             -1.0])
# Base quantities: M, m, M_s, M_ss, m_a, m_s, m_aa, m_ss, m_as.
_SM_BIG, _SM_SML, _SM_BS, _SM_BSS, _SM_A, _SM_S, _SM_AA, _SM_SS, _SM_AS = \
    range(9)
#: Right factors: the nine base quantities, then m - M, M - m, M_s - m_s,
#: m_s - M_s, M_ss - m_ss.
_SHAPE_DIFF = ([_SM_SML, _SM_BIG, _SM_BS, _SM_S, _SM_BSS],
               [_SM_BIG, _SM_SML, _SM_S, _SM_BS, _SM_SS])
_R_SMB, _R_BMS, _R_BSMS, _R_SMBS, _R_BSSMSS = range(9, 14)
# Left factors: s^2, sin 2phi, c^2, -sin 2phi / 2, cos 2phi, sin 2phi / 2,
# 2 cos 2phi, -cos 2phi, -2 sin 2phi, -sin 2phi.
(_L_S2, _L_S2P, _L_C2, _L_MHS2P, _L_C2P, _L_HS2P, _L_2C2P, _L_MC2P,
 _L_M2S2P, _L_MS2P) = range(10)
#: ``(vals (3), jac (3x3), hess (3x3x3, upper triangle of each block))``
#: entries, each a list of ``(left, right)`` products to add.
_SHAPE_TERMS = (
    # vals: sxx, sxy, syy.
    [(_L_C2, _SM_BIG), (_L_S2, _SM_SML)], [(_L_HS2P, _R_BMS)],
    [(_L_S2, _SM_BIG), (_L_C2, _SM_SML)],
    # jac rows sxx, sxy, syy over [axis, angle, scale].
    [(_L_S2, _SM_A)], [(_L_S2P, _R_SMB)],
    [(_L_C2, _SM_BS), (_L_S2, _SM_S)],
    [(_L_MHS2P, _SM_A)], [(_L_C2P, _R_BMS)], [(_L_HS2P, _R_BSMS)],
    [(_L_C2, _SM_A)], [(_L_S2P, _R_BMS)],
    [(_L_S2, _SM_BS), (_L_C2, _SM_S)],
    # hess, sxx block: 00 01 02 11 12 22.
    [(_L_S2, _SM_AA)], [(_L_S2P, _SM_A)], [(_L_S2, _SM_AS)],
    [(_L_2C2P, _R_SMB)], [(_L_S2P, _R_SMBS)],
    [(_L_C2, _SM_BSS), (_L_S2, _SM_SS)],
    # sxy block.
    [(_L_MHS2P, _SM_AA)], [(_L_MC2P, _SM_A)], [(_L_MHS2P, _SM_AS)],
    [(_L_M2S2P, _R_BMS)], [(_L_C2P, _R_BSMS)], [(_L_HS2P, _R_BSSMSS)],
    # syy block.
    [(_L_C2, _SM_AA)], [(_L_MS2P, _SM_A)], [(_L_C2, _SM_AS)],
    [(_L_2C2P, _R_BMS)], [(_L_S2P, _R_BSMS)],
    [(_L_S2, _SM_BSS), (_L_C2, _SM_SS)],
)


def _shape_tables():
    """Index arrays of :data:`_SHAPE_TERMS`: the products' left and right
    factors, which entries add a second product, and the gather that
    spreads the 18 distinct Hessian entries over the symmetric ``(3, 3,
    3)`` Hessian."""
    left, right, second = [], [], []
    for terms in _SHAPE_TERMS:
        left.append(terms[0][0])
        right.append(terms[0][1])
    for i, terms in enumerate(_SHAPE_TERMS):
        if len(terms) == 2:
            second.append((i, len(left)))
            left.append(terms[1][0])
            right.append(terms[1][1])
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    gather = [12 + 6 * blk + pairs.index((min(a, b), max(a, b)))
              for blk in range(3) for a in range(3) for b in range(3)]
    return (np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array([i for i, _ in second], dtype=np.intp),
            np.array([j for _, j in second], dtype=np.intp),
            np.array(gather, dtype=np.intp))


(_SHAPE_L, _SHAPE_R, _SHAPE_SUM_AT, _SHAPE_SUM_FROM,
 _SHAPE_GATHER) = _shape_tables()


def _shape_chain(boxed: tuple, phi: np.ndarray, order: int):
    """Galaxy shape covariance ``(sxx, sxy, syy)`` and its derivatives over
    the free shape parameters ``[axis, angle, scale]``, lane-stacked:
    ``vals`` is ``(G, 3)``, ``jac`` ``(G, 3, 3)`` and ``hess`` ``(G, 3, 3,
    3)``; ``boxed`` is the free vectors' :func:`_bijector_pass` and
    ``phi`` their position angles.

    With ``M = scale^2`` and ``m = (scale*axis)^2`` (major/minor variances)
    and position angle ``phi``: ``sxx = c^2 M + s^2 m``,
    ``sxy = sin(2 phi)(M - m)/2``, ``syy = s^2 M + c^2 m``; the axis/scale
    dependence chains through the LogitBox bijectors.  Every entry is the
    elementwise image of the scalar formula — a product of a trigonometric
    factor and a base quantity, or the sum of two (:data:`_SHAPE_TERMS`)
    — formed for all entries at once, and symmetric entries are one
    computed value."""
    ia, isc = _BOX[_SHAPE_IDX[0]], _BOX[_SHAPE_IDX[2]]
    av, a1, a2 = boxed[0][:, ia], boxed[1][:, ia], boxed[2][:, ia]
    sv, sd1, sd2 = boxed[0][:, isc], boxed[1][:, isc], boxed[2][:, isc]
    gsz = phi.shape[0]

    trig = np.empty((gsz, 4))            # c^2, s^2, cos 2phi, sin 2phi
    np.cos(phi, out=trig[:, 0])
    np.sin(phi, out=trig[:, 1])
    np.multiply(trig[:, :2], trig[:, :2], out=trig[:, :2])
    phi2 = 2.0 * phi
    np.cos(phi2, out=trig[:, 2])
    np.sin(phi2, out=trig[:, 3])

    base = np.empty((gsz, 14))
    big = np.multiply(sv, sv, out=base[:, _SM_BIG])
    sml = np.multiply(big * av, av, out=base[:, _SM_SML])
    big_s = np.multiply(2.0 * sv, sd1, out=base[:, _SM_BS])
    big_ss = np.multiply(2.0, sd1 * sd1 + sv * sd2, out=base[:, _SM_BSS])
    np.multiply(2.0 * big * av, a1, out=base[:, _SM_A])
    np.multiply(big_s * av, av, out=base[:, _SM_S])
    np.multiply(2.0 * big, a1 * a1 + av * a2, out=base[:, _SM_AA])
    np.multiply(big_ss * av, av, out=base[:, _SM_SS])
    np.multiply(4.0 * sv * sd1 * av, a1, out=base[:, _SM_AS])
    np.subtract(base[:, _SHAPE_DIFF[0]], base[:, _SHAPE_DIFF[1]],
                out=base[:, 9:])

    left = trig[:, _SHAPE_LEFT] * _SHAPE_LEFT_COEF
    prod = left[:, _SHAPE_L] * base[:, _SHAPE_R]
    entry = prod[:, :len(_SHAPE_TERMS)]
    entry[:, _SHAPE_SUM_AT] += prod[:, _SHAPE_SUM_FROM]
    vals = entry[:, :3]
    jac = entry[:, 3:12].reshape(gsz, 3, 3)
    if order < 2:
        return vals, jac, None
    return vals, jac, entry[:, _SHAPE_GATHER].reshape(gsz, 3, 3, 3)


def _flat27(rows, cols) -> np.ndarray:
    """Flat positions of ``(rows x cols)`` in a row-major 27-wide block."""
    return (np.asarray(rows)[:, None] * _N_ACTIVE
            + np.asarray(cols)[None, :]).ravel()


#: Flat positions in the ``(10, 27)`` dz_band/dfree Jacobian: the
#: band-independent entries (``u`` rows 0-1, the shape block, ``e_dev``),
#: in the order :class:`_EvalChain` concatenates them, and per amplitude
#: kind ``k`` its row ``5 + k`` over the star (``k`` even) or galaxy
#: (``k`` odd) amplitude indices.
_JAC_FIXED = np.concatenate([[_IDX_U[0], _N_ACTIVE + _IDX_U[1]],
                             _flat27([2, 3, 4], _SHAPE_IDX),
                             [9 * _N_ACTIVE + _IDX_DEV]])
_JAC_AMP = np.concatenate([_flat27([5 + k], _AMP_IDX[k % 2])
                           for k in range(4)])


def _second_order_terms(n_amps: int) -> tuple:
    """The chain rule's second term ``sum_m gz_m d2 z_m / dfree2`` as a
    fixed scatter, for ``n_amps`` amplitude kinds: ``(n_rounds, lane_z,
    lane_pos, amp_pos)``.  A (lane, band) pair's terms are ``gz[lane_z] *
    d2`` over its lane's second derivatives ``d2`` (``u`` (2), the shape
    Hessian (27), ``e_dev`` (1)) and ``gz[5 + k] * H_k`` over each
    amplitude kind's 11x11 block; ``lane_pos`` / ``amp_pos`` place them
    in a ``(n_rounds, 27 * 27)`` stack of rounds that is added to the
    Hessian one round at a time.  An entry several terms touch gets them
    in order, one per round: the shape block its three covariance
    entries, an amplitude block its first- then second-moment kind, and
    the type logit, where star and galaxy blocks meet, all kinds in kind
    order.  (An entry a round misses gets ``+ 0.0``, which only turns a
    ``-0.0`` into ``+0.0``; the pair's Hessian is then added to a zero
    accumulator, which does the same.)"""
    size = _N_ACTIVE * _N_ACTIVE
    lane_z, lane_pos, amp_pos = [], [], []
    for j in (0, 1):
        lane_z.append(j)
        lane_pos.append(_IDX_U[j] * (_N_ACTIVE + 1))
    for m in range(3):
        for a in range(3):
            for b in range(3):
                lane_z.append(2 + m)
                lane_pos.append(m * size + _SHAPE_IDX[a] * _N_ACTIVE
                                + _SHAPE_IDX[b])
    lane_z.append(9)
    lane_pos.append(_IDX_DEV * (_N_ACTIVE + 1))
    for k in range(n_amps):
        idx = _AMP_IDX[k % 2]
        for a in range(11):
            for b in range(11):
                rnd = k if a == b == 0 else k // 2
                amp_pos.append(rnd * size + idx[a] * _N_ACTIVE + idx[b])
    pos = lane_pos + amp_pos
    assert len(set(pos)) == len(pos)
    n_rounds = max(pos) // size + 1
    return (n_rounds, np.array(lane_z, dtype=np.intp),
            np.array(lane_pos, dtype=np.intp),
            np.array(amp_pos, dtype=np.intp))


_SECOND_ORDER = {k: _second_order_terms(k) for k in (2, 4)}


class _EvalChain:
    """Every pixel-independent piece of one batch call's evaluation:
    bijector images of the free vectors with their first two derivatives
    (one :func:`_bijector_pass`, which the KL stack reads too), the
    shape-covariance chain, and per-band amplitude chains — all
    lane-stacked over the call's ``N`` lanes, ``frees`` being ``(N, 41)``.

    The prologue gathers each (lane, patch) pair's rows from it
    (positions ``u``, shape values, ``e_dev`` and the band amplitudes
    ``amps``).  The pixel term hands back per-patch blocks mapped into
    *band* space — the 10-vector ``z_band = (ux, uy, sxx, sxy, syy,
    A_star, A_gal, B_star, B_gal, e_dev)`` with position in the sky frame
    and the amplitudes without calibration — summed per (lane, band), and
    :meth:`chain_rule` takes them to the 27 free parameters in one
    Jacobian and one curvature pass over every (lane, band) pair.

    Ufunc loops are length-invariant elementwise, stacked ``matmul``
    dispatches the identical per-lane product, and every gather/scatter
    touches only the lane's own rows, so each lane's bits do not depend on
    what else the call carries — a single evaluation runs this chain at
    ``N = 1``."""

    def __init__(self, u_centers: np.ndarray, frees: np.ndarray,
                 boxed: tuple, bands: tuple, order: int,
                 variance_correction: bool):
        self.order = order
        self.vc = variance_correction
        self.n_lanes = n = frees.shape[0]
        bv, b1, b2 = boxed

        self.u = u_centers + bv[:, _BX_U]
        self.dev = bv[:, _BOX[_IDX_DEV]]
        self.shape, shape_jac, shape_hess = _shape_chain(
            boxed, frees[:, _SHAPE_IDX[1]], order)

        #: Band amplitudes without calibration, ``(A_star, A_gal, B_star,
        #: B_gal)`` (B only under the variance correction): their values as
        #: a ``(K, n_bands, N)`` table the prologue gathers from, and their
        #: derivatives, ``(N, K, n_bands, 11[, 11])``, for the chain rule.
        amps, self.amp_grad, self.amp_hess = _amp_chains(
            frees, boxed, bands, order, variance_correction)
        self.amps = amps.transpose(1, 2, 0)

        #: The band-independent rows of dz_band/dfree, ``(N, 10, 27)``;
        #: the amplitude rows 5-8 are filled per (lane, band) pair by
        #: :meth:`chain_rule`.
        jac = self.jac = np.zeros((n, 10, _N_ACTIVE))
        jac.reshape(n, -1)[:, _JAC_FIXED] = np.concatenate(
            [b1[:, _BX_U], shape_jac.reshape(n, 9),
             b1[:, _BOX[_IDX_DEV], None]], axis=1)
        #: Each lane's band-independent second derivatives, ``(N, 30)``:
        #: ``u``, the shape Hessian and ``e_dev``
        #: (:func:`_second_order_terms`).
        self.d2 = None if order < 2 else np.concatenate(
            [b2[:, _BX_U], shape_hess.reshape(n, 27),
             b2[:, _BOX[_IDX_DEV], None]], axis=1)

    def chain_rule(self, gzq: np.ndarray, hzq, lay: "_Layout"):
        """Chain the per-(lane, band) z-space blocks ``gzq`` ``(Q, 10)``
        and ``hzq`` ``(Q, 10, 10)`` (``None`` at order 1), one per pair of
        ``lay.lb_lane`` / ``lay.lb_col``, to the dense 27-space: ``(g27
        (N, 27), h27 (N, 27, 27) or None)``.

        One Jacobian contraction over every pair and, at order 2, one
        pass of the chain rule's second term ``sum_m gz_m d2 z_m /
        dfree2`` (z is nonlinear in free) as a fixed scatter
        (:data:`_SECOND_ORDER`).  A lane's bands then add into it in
        ascending order, whatever shares its call."""
        lane, col = lay.lb_lane, lay.lb_col
        n_q = lane.shape[0]
        n_amps = self.amps.shape[0]
        jac = self.jac[lane]
        jac.reshape(n_q, 10 * _N_ACTIVE)[:, _JAC_AMP[:11 * n_amps]] = (
            self.amp_grad[lane, :, col].reshape(n_q, 11 * n_amps))
        jac_t = jac.transpose(0, 2, 1)
        g = np.matmul(jac_t, gzq[:, :, None])[:, :, 0]
        g27 = _ordered_sum([g], lay.lb_rank, self.n_lanes)
        if hzq is None:
            return g27, None
        h = np.matmul(jac_t, np.matmul(hzq, jac))
        n_rounds, lane_z, lane_pos, amp_pos = _SECOND_ORDER[n_amps]
        size = _N_ACTIVE * _N_ACTIVE
        rounds = np.zeros((n_q, n_rounds, size))
        flat = rounds.reshape(n_q, n_rounds * size)
        flat[:, lane_pos] = gzq[:, lane_z] * self.d2[lane]
        flat[:, amp_pos] = (
            gzq[:, 5:5 + n_amps, None]
            * self.amp_hess[lane, :, col].reshape(n_q, n_amps, 121)
        ).reshape(n_q, 121 * n_amps)
        hf = h.reshape(n_q, size)
        for r in range(n_rounds):
            hf += rounds[:, r]
        return g27, _ordered_sum([h], lay.lb_rank, self.n_lanes)


# ---------------------------------------------------------------------------
# The per-patch pixel term in z space
#
# With the feature rows F of a patch, the expected rate is bilinear in the
# per-lane amplitudes and F: ``e = A_s gs + A_g gg`` and, under the variance
# correction, ``e2 = B_s gs^2 + B_g gg^2``.  So per pixel ``de/dz = A F``
# and ``de2/dz = gs (B_s F) + gg (B_g F)`` for sparse 10 x 10 maps
# :data:`_DESIGN` whose entries are amplitudes, and every z-space block of
# the term is one of three things: pixel sums of feature rows against the
# scalar weights ``phi`` (``F @ W``), weighted Gram matrices of the first
# :data:`_N_GRAM` rows (``F diag(w) F^T``) met by those maps, or the
# galaxy curvature (:func:`_galaxy_curvature`).  The z-gradient and the
# curvature part of the z-Hessian are then a fixed scatter of amplitude-
# scaled entries of those sums (:func:`_assembly`).

#: Amplitude kinds a design or assembly entry is scaled by, in the order of
#: the per-lane ``kinds`` vector: 1, ``A_star``, ``A_gal``, ``B_star``,
#: ``B_gal`` (the calibrated first- and second-moment amplitudes).
_K1, _KAS, _KAG, _KBS, _KBG = range(5)

#: ``(p, u, row, kind, factor)``: entry ``(p, row)`` of the per-pixel map
#: ``u`` — 0: ``de/dz = A F``; 1: ``B_s`` and 2: ``B_g`` of
#: ``de2/dz = gs (B_s F) + gg (B_g F)`` — is ``factor * kind``.  Rows index
#: the first :data:`_N_GRAM` feature rows, ``p`` the z-vector
#: ``(upx, upy, sxx, sxy, syy, A_star, A_gal, B_star, B_gal, e_dev)``.
_DESIGN = (
    [(p, 0, _F_DGS + p, _KAS, 1.0) for p in (0, 1)]
    + [(p, 0, _F_DGG + p, _KAG, 1.0) for p in range(5)]
    + [(5, 0, _F_GS, _K1, 1.0), (6, 0, _F_GG, _K1, 1.0),
       (9, 0, _F_DLG, _KAG, 1.0)]
    + [(p, 1, _F_DGS + p, _KBS, 2.0) for p in (0, 1)]
    + [(7, 1, _F_GS, _K1, 1.0)]
    + [(p, 2, _F_DGG + p, _KBG, 2.0) for p in range(5)]
    + [(8, 2, _F_GG, _K1, 1.0), (9, 2, _F_DLG, _KBG, 2.0)])


class _Assembly:
    """The fixed scatter that turns one patch's pixel sums into its
    z-gradient and the non-outer-product part of its z-Hessian.

    The per-pair source vector is the concatenation of ``F @ W`` (``(rows,
    n_w)``: feature rows against the weight columns ``phi_e`` and, under
    the variance correction, ``phi_e2 gg`` and ``phi_e2 gs``), at order 2
    the galaxy curvature ``(15, n_cur)`` against the first ``n_cur`` of
    those columns and, under the variance correction, the ``phi_e2``-
    weighted Gram matrix of the first :data:`_N_GRAM` rows.  Entry ``i``
    contributes ``source[src[i]] * kinds[kind[i]]`` times ``scatter[i]``, a
    row of constant factors over the outputs ``(gz (10), hz (10 x 10))``
    (off-diagonal z-Hessian entries are written to both triangles); the
    outer-product part of the z-Hessian is added by the caller, from the
    ``design_*`` arrays: :data:`_DESIGN` as index arrays for one fancy
    assignment."""

    def __init__(self, order: int, vc: bool):
        self.n_rows = 18 if order >= 2 else _N_GRAM
        self.n_w = n_w = 3 if vc else 1
        n_cur = 2 if vc else 1
        # Weight column of F @ W each design map's gradient part reads.
        col_of_map = (0, 2, 1)
        off_cur = self.n_rows * n_w
        off_gram = off_cur + 15 * n_cur

        def fw(row, col):
            return row * n_w + col

        def cur(row, col):
            return off_cur + row * n_cur + col

        def gram(i, j):
            return off_gram + _N_GRAM * i + j

        terms = []       # (outputs, source, kind, factor)

        def hz(p, q, source, kind, factor=1.0):
            outs = {10 + 10 * p + q, 10 + 10 * q + p}
            terms.append((sorted(outs), source, kind, factor))

        design = [t for t in _DESIGN if vc or t[1] == 0]
        # z-gradient: sum_m phi_e de/dz + phi_e2 de2/dz.
        for p, u, row, kind, factor in design:
            terms.append(([p], fw(row, col_of_map[u]), kind, factor))
        if order >= 2:
            # Curvature of e (and e2) in z: the galaxy profile's packed
            # Hessian rows, the star's position Hessian, and the terms
            # bilinear in an amplitude and a feature row.
            for (p, q), r in _PAIR_ROW.items():
                hz(p, q, cur(r, 0), _KAG)
                if vc:
                    hz(p, q, cur(r, 1), _KBG, 2.0)
                    hz(p, q, gram(_F_DGG + p, _F_DGG + q), _KBG, 2.0)
            for i, (p, q) in enumerate(((0, 0), (0, 1), (1, 1))):
                hz(p, q, fw(_F_HGS + i, 0), _KAS)
                if vc:
                    hz(p, q, fw(_F_HGS + i, 2), _KBS, 2.0)
                    hz(p, q, gram(_F_DGS + p, _F_DGS + q), _KBS, 2.0)
            for p in (0, 1):
                hz(p, 5, fw(_F_DGS + p, 0), _K1)
            for p in range(5):
                hz(p, 6, fw(_F_DGG + p, 0), _K1)
                hz(p, 9, fw(_F_DLDG + p, 0), _KAG)
            hz(6, 9, fw(_F_DLG, 0), _K1)
            if vc:
                for p in (0, 1):
                    hz(p, 7, fw(_F_DGS + p, 2), _K1, 2.0)
                for p in range(5):
                    hz(p, 8, fw(_F_DGG + p, 1), _K1, 2.0)
                    hz(p, 9, gram(_F_DGG + p, _F_DLG), _KBG, 2.0)
                    hz(p, 9, fw(_F_DLDG + p, 1), _KBG, 2.0)
                hz(8, 9, fw(_F_DLG, 1), _K1, 2.0)
                hz(9, 9, gram(_F_DLG, _F_DLG), _KBG, 2.0)
        self.src = np.array([t[1] for t in terms], dtype=np.intp)
        self.kind = np.array([t[2] for t in terms], dtype=np.intp)
        self.scatter = np.zeros((len(terms), 110 if order >= 2 else 10))
        for i, (outs, _, _, factor) in enumerate(terms):
            self.scatter[i, outs] = factor
        d = np.array(design)
        self.design_index = tuple(d[:, :3].astype(np.intp).T)
        self.design_kind = d[:, 3].astype(np.intp)
        self.design_factor = d[:, 4]
        self.n_maps = 3 if vc else 1


_ASSEMBLY = {(order, vc): _Assembly(order, vc)
             for order in (1, 2) for vc in (False, True)}


class _Prologue:
    """The per-call prologue of the pixel term over a stack of (lane,
    patch) pairs — everything that does not touch pixels, with fixed
    shapes per pair — and the buffers the per-patch pixel passes write
    their pixel sums into (:func:`_prologue`)."""

    __slots__ = ("up", "icov", "alpha", "mix", "coef", "kinds", "val",
                 "fw", "mom", "gram")


def _prologue(st: _PairStack, rows: tuple, amps: np.ndarray, order: int,
              vc: bool) -> _Prologue:
    """Stacked over every pair of ``st``: pixel-frame positions (the
    pair's affine WCS applied left-associated, as multiply-adds), the
    amplitude kinds ``(1, A_star, A_gal[, B_star, B_gal])`` with the
    pair's calibration, the inverse covariances and normalizers, the row
    mix and the feature coefficients.  ``rows`` holds each pair's sky
    position ``(P, 2)``, shape ``(P, 3)`` and ``e_dev`` ``(P,)``, and
    ``amps`` its band's ``(4, P)`` uncalibrated amplitudes (the first two
    without the variance correction)."""
    u, shape, dev = rows
    asm = _ASSEMBLY[(2 if order >= 2 else 1, vc)]
    n_pairs = u.shape[0]
    pro = _Prologue()
    up = st.wa * u[:, None, :]
    pro.up = up[..., 0] + up[..., 1] + st.wt
    pro.kinds = kinds = np.empty((n_pairs, 5 if vc else 3))
    kinds[:, _K1] = 1.0
    n_amps = kinds.shape[1] - 1
    np.multiply(st.iotas[:, :n_amps], amps[:n_amps].T, out=kinds[:, 1:])
    pro.icov, pro.alpha = _covariances(st, shape)
    pro.mix = _row_mix(st, dev)
    pro.coef = _feature_coefficients(st, pro.icov, pro.mix, asm.n_rows)
    pro.val = np.empty(n_pairs)
    pro.fw = np.empty((n_pairs, asm.n_rows, asm.n_w))
    if order >= 2:
        n_gal = st.var.shape[1] - st.n_star
        pro.mom = np.zeros((n_pairs, 15, n_gal, 2 if vc else 1))
        pro.gram = np.empty((n_pairs, (4 if vc else 1) * _N_GRAM, _N_GRAM))
    return pro


def _patch_pixel_term(pws: _PatchWorkspace, pro: _Prologue, i: int,
                      order: int, vc: bool) -> None:
    """The pixel passes of pair ``i`` of the call's prologue ``pro``, over
    its patch slot ``pws``: one mixture pass, one feature GEMM and the
    pixel sums.  It writes the pair's value, its feature rows against the
    weight columns (``F @ W``), its galaxy moments and its weighted Gram
    matrices into ``pro``; :func:`_assemble` turns them into z-space
    blocks."""
    lx, ly, mono = _mixture(pws, pro.up[i], pro.icov[i], pro.alpha[i])
    feats = _feature_rows(pro.coef[i], mono)
    kinds = pro.kinds[i, :, None]
    gsg = feats[_F_GS:_F_GG + 1:_F_GG - _F_GS]          # (gs, gg)
    m = gsg.shape[1]

    x = pws.counts
    ag = kinds[_KAS:_KAG + 1] * gsg
    e = np.add(ag[0], ag[1], out=ag[0])
    f = pws.bg + e
    fi = 1.0 / f
    logf = np.log(f)
    # Weight columns of the pixel sums F @ W: phi_e (the e-derivative of
    # the per-pixel log-likelihood) and, with the variance correction,
    # phi_e2 (its e2-derivative) times gg and gs.
    w = np.empty((3 if vc else 1, m))
    if vc:
        bg2 = kinds[_KBS:_KBG + 1] * (gsg * gsg)
        v = np.add(bg2[0], bg2[1], out=bg2[0])
        v -= e * e
        fi2 = fi * fi
        pro.val[i] = np.add.reduce(x * (logf - 0.5 * v * fi2) - f)
        np.multiply(x * fi, 1.0 + (e + v * fi) * fi, out=w[0])
        w[0] -= 1.0
        phi_e2 = -0.5 * x * fi2
        np.multiply(phi_e2, gsg[::-1], out=w[1:])
    else:
        pro.val[i] = np.add.reduce(x * logf - f)
        np.multiply(x, fi, out=w[0])
        w[0] -= 1.0
    np.matmul(feats, w.T, out=pro.fw[i])
    if order < 2:
        return

    _galaxy_moments(pws, lx, ly, mono, w[:2].T, pro.mom[i])
    # Weighted Gram matrices of the leading feature rows: the outer-
    # product terms de^T diag(phi_ee) de (+ the e2 crosses), and the
    # phi_e2 one the assembly reads.
    if vc:
        fi3x = x * fi2 * fi
        u = np.empty((4, m))
        np.multiply(fi3x, -(4.0 * e + 3.0 * v * fi), out=u[0])
        np.multiply(fi3x, gsg, out=u[1:3])
        u[3] = phi_e2
    else:
        u = (-x * fi * fi)[None]
    lead = feats[:_N_GRAM]
    np.matmul((u[:, None] * lead).reshape(-1, m), lead.T, out=pro.gram[i])


def _assemble(st: _PairStack, pro: _Prologue, order: int, vc: bool):
    """Value ``(P,)``, z-gradient ``(P, 10)`` and z-Hessian ``(P, 10,
    10)`` (``None`` at order 1) of every pair, from the pixel sums the
    per-patch passes left in ``pro``: the galaxy curvature's coefficient
    contraction, the fixed scatter (:class:`_Assembly`) and the outer
    products, once over the whole stack."""
    asm = _ASSEMBLY[(2 if order >= 2 else 1, vc)]
    n_pairs = pro.val.shape[0]
    sources = [pro.fw.reshape(n_pairs, -1)]
    if order >= 2:
        basis = _curvature_basis(st, pro.icov, pro.mix)
        sources.append(_galaxy_curvature(basis, pro.mom).reshape(n_pairs, -1))
        if vc:
            sources.append(pro.gram[:, 3 * _N_GRAM:].reshape(n_pairs, -1))
    src = sources[0] if len(sources) == 1 else np.concatenate(sources, axis=1)
    kinds = pro.kinds
    lin = np.matmul((src[:, asm.src] * kinds[:, asm.kind])[:, None],
                    asm.scatter)[:, 0]
    gz = lin[:, :10]
    if order < 2:
        return pro.val, gz, None

    # Outer products: with the design maps D_u, the per-pixel
    # de diag(phi_ee) de^T + cross + cross^T, cross = de diag(phi_ee2)
    # de2^T, is A P0 A^T + A Y^T + Y A^T for the Gram matrices P_u and
    # Y = B_s P1 + B_g P2 — written V A^T + A V^T, V = A P0 / 2 + Y.
    gram = pro.gram
    d = np.zeros((n_pairs, 10, asm.n_maps, _N_GRAM))
    d[(slice(None),) + asm.design_index] = (kinds[:, asm.design_kind]
                                            * asm.design_factor)
    a = d[:, :, 0]
    half = np.matmul(a, gram[:, :_N_GRAM])
    half *= 0.5
    if vc:
        half += np.matmul(d[:, :, 1:].reshape(n_pairs, 10, 2 * _N_GRAM),
                          gram[:, _N_GRAM:3 * _N_GRAM])
    hz = np.matmul(half, a.transpose(0, 2, 1))
    hz += hz.transpose(0, 2, 1)
    hz += lin[:, 10:].reshape(n_pairs, 10, 10)
    return pro.val, gz, hz


def _pixel_terms(st: _PairStack, rows: tuple, amps: np.ndarray,
                 slots: list, order: int, vc: bool):
    """Value ``(P,)``, z-gradient ``(P, 10)`` and z-Hessian ``(P, 10,
    10)`` (``None`` at order 1) of each (lane, patch) pair's expected
    Poisson log-likelihood, for the pairs of ``st`` (``rows`` and ``amps``
    as in :func:`_prologue`).  ``slots`` lists each patch slot's pixel
    workspace, one per pair.  The prologue and the assembly run once over
    the whole stack; only the pixel passes and their GEMMs run per
    pair."""
    pro = _prologue(st, rows, amps, order, vc)
    for i, pws in enumerate(slots):
        _patch_pixel_term(pws, pro, i, order, vc)
    return _assemble(st, pro, order, vc)


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


def _evaluate_lanes(lay: _Layout, chain: _EvalChain):
    """Pixel term over a whole batch call: per-lane value ``(N,)``, dense
    27-gradient ``(N, 27)``, and 27x27 Hessian (``None`` at order 1).

    The prologue runs once per component key over every (lane, patch)
    pair of the call, and the pixel passes once per pair.  Every pair's
    ``(gz, hz)`` is mapped into band space through its patch's fixed
    ``zmap`` and summed per (lane, band) in slot order; the
    pixel-count-independent chain rule then runs once over the call's
    (lane, band) pairs (:meth:`_EvalChain.chain_rule`)."""
    order, vc = chain.order, chain.vc
    n = chain.n_lanes
    vals, gzs, hzs = [], [], []
    for grp in lay.pair_groups:
        lane = grp.lane
        val, gz, hz = _pixel_terms(
            grp.stack, (chain.u[lane], chain.shape[lane], chain.dev[lane]),
            chain.amps[:, grp.col, lane], grp.slots, order, vc)
        zmap = grp.stack.zmap
        vals.append(val)
        gzs.append(np.matmul(gz[:, None, :], zmap)[:, 0])
        if hz is not None:
            hzs.append(np.matmul(zmap.transpose(0, 2, 1),
                                 np.matmul(hz, zmap)))
    n_q = lay.lb_lane.shape[0]
    if not vals:
        return (np.zeros(n), np.zeros((n, _N_ACTIVE)),
                np.zeros((n, _N_ACTIVE, _N_ACTIVE)) if order >= 2 else None)
    val = _ordered_sum(vals, lay.lane_rank, n)
    gzq = _ordered_sum(gzs, lay.pair_rank, n_q)
    hzq = _ordered_sum(hzs, lay.pair_rank, n_q) if hzs else None
    g27, h27 = chain.chain_rule(gzq, hzq, lay)
    return val, g27, h27


def elbo_fused_batch(
    ctxs: list,
    frees: list,
    order: int = 2,
    variance_correction: bool = True,
    compiled: _FusedBatchWorkspace | None = None,
    active=None,
) -> list:
    """Evaluate many sources' ELBOs in one call.

    ``compiled`` is a :class:`_FusedBatchWorkspace` (from
    :func:`repro.core.elbo.compile_elbo_batch`; built on the fly when
    ``None``); it must have been compiled for exactly these contexts.
    ``active`` is an optional per-lane boolean mask: an inactive lane
    still rides through its pixel passes and the chain (its lane is baked
    into the layout — that waste is what the batch-occupancy counters
    expose, and why callers repack once occupancy drops), but its KL term
    and result are skipped (``None``).
    Returns one :class:`ElboEval` (or ``None``) per context, in order, each
    bit-for-bit equal to what a one-lane call returns for that context and
    free vector alone (lanes are independent).

    The pixel-count-independent stages run once per call: one
    :func:`_bijector_pass` over every lane, one :class:`_EvalChain`, one
    prologue per component key, one chain-rule pass over the (lane, band)
    pairs, and one stacked
    :meth:`KlWorkspace.evaluate_stacked` per shared ``Priors``, reading
    the same bijector pass.
    """
    if compiled is None:
        compiled = _FusedBatchWorkspace(ctxs)
    elif not compiled.matches(ctxs):
        raise ValueError(
            "compiled batch workspace does not match the given contexts; "
            "recompile with compile_batch after changing batch membership"
        )
    out: list = [None] * len(ctxs)
    if not ctxs:
        return out
    lay = compiled.layout
    frees_all = np.array([np.asarray(f, dtype=np.float64) for f in frees])
    act = (np.ones(len(ctxs), dtype=bool) if active is None
           else np.asarray(active, dtype=bool))
    boxed = _bijector_pass(frees_all)
    chain = _EvalChain(lay.u_centers, frees_all, boxed, lay.bands, order,
                       variance_correction)
    val, g27, h27 = _evaluate_lanes(lay, chain)
    # KL terms, stacked per shared prior workspace: lanes under one Priors
    # (the production case — a survey uses one) evaluate their KL
    # values/gradients/Hessians in one lane-stacked pass.  The pixel
    # term's dense 27-block is then added into the full free space.
    for klws, lanes in lay.kl_groups:
        lanes = lanes[act[lanes]]
        if not lanes.size:
            continue
        if lanes.size == len(ctxs):
            kvals, grads, hesses = klws.evaluate_stacked(frees_all, order,
                                                         boxed)
        else:
            kvals, grads, hesses = klws.evaluate_stacked(
                frees_all[lanes], order, tuple(b[lanes] for b in boxed))
        kvals += val[lanes]
        if order >= 1:
            grads[:, :_N_ACTIVE] += g27[lanes]
        if order >= 2:
            hesses[:, :_N_ACTIVE, :_N_ACTIVE] += h27[lanes]
        for i, l in enumerate(lanes):
            out[l] = ElboEval(
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
