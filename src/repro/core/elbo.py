"""The per-source evidence lower bound (ELBO): the evaluation front end.

This is the objective function Celeste maximizes (Equation 1 of the paper),
restricted to one source's 41 free parameters with all other sources held
fixed — the innermost level of the three-level optimization scheme.  It has
two parts:

**Poisson pixel term.**  For every active pixel of every image covering the
source, with rate ``F = background + contribution``, the expected
log-likelihood is ``x E[log F] - E[F]``.  The contribution mixes the star and
galaxy hypotheses; its first two moments are analytic because band fluxes
are log-normal under q and the light profile densities are deterministic
given position/shape.  ``E[log F]`` uses the second-order delta
approximation ``log E[F] - Var F / (2 E[F]^2)`` — the same device as
Celeste.

**KL terms.**  Exact KL divergences from q to the priors: Bernoulli for the
source type, Normal (on the log scale) for brightness, and a Gaussian-mixture
color prior handled with a variational categorical q(k) — contributing the
k[8,2] block of the canonical parameter vector.

**One kernel.**  Both terms are evaluated by the fused analytic kernel
(:mod:`repro.core.kernel`): pixel-static arrays (PSF/galaxy component
products, pixel grids, backgrounds) are compiled once per
:class:`SourceContext` into a reusable workspace, and each evaluation
computes the Poisson pixel term's value, 41-gradient, and 41x41 Hessian
from hand-derived closed-form block formulas, fused across patches and
mixture components with no per-iteration expression-graph construction.
The KL terms come from closed-form value/gradient/Hessian formulas compiled
once per prior configuration (:class:`repro.core.kernel.KlWorkspace`),
chained through the bijector and fixed-last-softmax derivatives of
:mod:`repro.transforms.bijectors`.  :func:`elbo_kl` exposes the KL terms
alone (used by the parity tests and the benchmark's pixel-vs-KL cost
split).  The kernel's correctness oracle — the same objective as one
sparse-index Taylor expression, validated against finite differences —
lives in ``tests/taylor_oracle/``.

**Batch evaluation.**  Evaluation is *batched* throughout
(:func:`compile_elbo_batch` / :func:`elbo_batch`): many sources' contexts
evaluated in one call, the paper's AVX-512 many-sources-at-once analogue,
with :func:`elbo` the batch of one.  The contract is strict — every lane's
result must be **bit-for-bit identical** to a one-lane call's, so batching
is always an execution strategy and never an approximation.  The kernel
stacks the call's pixel-independent work over all its lanes and (lane,
patch) pairs, and runs one pixel pass per pair.  The lockstep optimizer
(:func:`repro.core.single.optimize_sources_batch`) drives this surface with
per-lane active masks and repacking.

This front end does the accounting: it increments ``active_pixel_visits``
(the paper's FLOP-accounting unit) and ``objective_evaluations`` once per
active lane.  KL terms are pixel-count-independent, so they never
contribute visits.  Every call also adds batch-shape counters
(``elbo_batch_lanes`` / ``elbo_batch_lanes_active``) that make batch
occupancy — wasted masked-lane work — visible
(:func:`repro.perf.counters.batch_occupancy`).

Every evaluation returns an :class:`~repro.core.kernel.ElboEval`: ``.val``
(a scalar), ``.gradient(n)``/``.hessian(n)`` (dense derivative extraction
over the free vector), and ``.hess`` (``None`` in gradient-only mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.analysis.numeric import current_check
from repro.constants import BACKGROUND_RATE_FLOOR
from repro.core.kernel import (
    ElboEval,
    _FusedBatchWorkspace,
    elbo_fused_batch,
    elbo_kl_fused,
    release_scratch,
)
from repro.core.priors import Priors
from repro.perf.counters import Counters, GLOBAL_COUNTERS
from repro.profiles.mog import dev_mixture, exp_mixture
from repro.survey.image import Image
from repro.survey.render import source_patch, source_radius

__all__ = [
    "ElboEval",
    "PatchData",
    "SourceContext",
    "compile_elbo_batch",
    "elbo",
    "elbo_batch",
    "elbo_kl",
    "make_context",
    "release_scratch",
]


@dataclass
class PatchData:
    """Active pixels of one image for one source.

    Attributes
    ----------
    band, calibration:
        Photometric band and photons-per-nanomaggy of the image.
    px, py:
        Flattened pixel-center coordinates, shape ``(M,)``.
    counts:
        Observed photon counts at those pixels, shape ``(M,)``.
    background:
        Deterministic rate from sky plus all *other* sources, shape ``(M,)``.
    psf_components:
        List of ``(weight, mean, (sxx, sxy, syy))`` for the image PSF.
    wcs:
        The image's WCS (positions are optimized in sky coordinates).
    bounds:
        ``(x0, x1, y0, y1)`` pixel bounds of the patch in the image.
    """

    band: int
    calibration: float
    px: np.ndarray
    py: np.ndarray
    counts: np.ndarray
    background: np.ndarray
    psf_components: list
    wcs: object
    bounds: tuple
    #: Batched constant arrays for the PSF components, shape ``(K, 1)`` each:
    #: ``(w, mux, muy, sxx, sxy, syy)``.  Components live in a value axis so
    #: a single vectorized kernel evaluates the whole mixture.
    star_arrays: tuple = None
    #: Batched constant arrays for the galaxy x PSF component products:
    #: ``{"dev": (w, var, mux, muy, pxx, pxy, pyy), "exp": ...}``.
    gal_arrays: dict = None

    def __post_init__(self):
        if self.star_arrays is None:
            self.star_arrays = _psf_component_arrays(self.psf_components)
        if self.gal_arrays is None:
            self.gal_arrays = {
                "dev": _gal_component_arrays(self.psf_components, dev_mixture()),
                "exp": _gal_component_arrays(self.psf_components, exp_mixture()),
            }

    @property
    def n_pixels(self) -> int:
        return len(self.px)


def _col(values) -> np.ndarray:
    return np.asarray(values, dtype=float)[:, None]


def _psf_component_arrays(psf_components):
    w = _col([c[0] for c in psf_components])
    mux = _col([c[1][0] for c in psf_components])
    muy = _col([c[1][1] for c in psf_components])
    sxx = _col([c[2][0] for c in psf_components])
    sxy = _col([c[2][1] for c in psf_components])
    syy = _col([c[2][2] for c in psf_components])
    return w, mux, muy, sxx, sxy, syy


def _gal_component_arrays(psf_components, mixture, min_weight: float = 0.01):
    """Outer product of a galaxy MoG table with the PSF components.

    Components carrying under ``min_weight`` of the profile flux are dropped
    (and the rest renormalized): they are invisible against sky noise but
    cost as much as the dominant components in the Hessian kernel.  The
    renderer keeps the full tables, so this is purely an inference-side
    approximation, analogous to Celeste's truncated profile evaluation.
    """
    weights, variances = mixture
    weights = np.asarray(weights)
    keep = weights >= min_weight * weights.sum()
    weights = weights[keep] / weights[keep].sum()
    variances = np.asarray(variances)[keep]
    w, var, mux, muy, pxx, pxy, pyy = [], [], [], [], [], [], []
    for w_psf, mu, (cxx, cxy, cyy) in psf_components:
        for q, v in zip(weights, variances):
            w.append(w_psf * q)
            var.append(v)
            mux.append(mu[0])
            muy.append(mu[1])
            pxx.append(cxx)
            pxy.append(cxy)
            pyy.append(cyy)
    return (_col(w), _col(var), _col(mux), _col(muy),
            _col(pxx), _col(pxy), _col(pyy))


@dataclass
class SourceContext:
    """Everything needed to evaluate one source's ELBO."""

    patches: list[PatchData]
    priors: Priors
    u_center: np.ndarray
    counters: Counters = dc_field(default_factory=lambda: GLOBAL_COUNTERS)
    #: The kernel's compiled workspace: the pixel-static arrays, built on
    #: first evaluation and reused by every later evaluation of this
    #: context (a Newton solve evaluates the same context tens of times).
    workspace: object = dc_field(default=None, repr=False, compare=False)

    @property
    def n_active_pixels(self) -> int:
        return sum(p.n_pixels for p in self.patches)  # det: ignore[DET103] -- integer pixel counts; exact in any order


def make_context(
    images: list[Image],
    sky_position: np.ndarray,
    priors: Priors,
    radius: float | None = None,
    backgrounds: list | None = None,
    counters: Counters | None = None,
    gal_radius_hint: float = 2.0,
    bounds_list: list | None = None,
) -> SourceContext:
    """Build a :class:`SourceContext` for a source at ``sky_position``.

    Parameters
    ----------
    backgrounds:
        Optional per-image background arrays accounting for neighboring
        sources; defaults to each image's sky level.  Each array may be
        either full-image-shaped or patch-shaped (matching the patch bounds
        for that image — the joint optimizer passes patch-shaped residual
        model slices together with ``bounds_list``, avoiding full-image
        allocations on the hot path).
    radius:
        Active-pixel radius in pixels; defaults to a PSF- and
        galaxy-size-based rule.
    bounds_list:
        Optional per-image pixel bounds overriding the radius rule; the
        joint optimizer passes the exact patches its model-image bookkeeping
        uses, so the active pixels and the residual backgrounds always
        agree.
    """
    sky_position = np.asarray(sky_position, dtype=float)
    patches = []
    for i, image in enumerate(images):
        if bounds_list is not None:
            bounds = bounds_list[i]
        else:
            r = radius if radius is not None else source_radius(
                gal_radius_hint, image.meta.psf
            )
            bounds = source_patch(image, sky_position, r)
        if bounds is None:
            continue
        x0, x1, y0, y1 = bounds
        ys, xs = np.mgrid[y0:y1, x0:x1]
        counts = image.pixels[y0:y1, x0:x1].ravel()
        if backgrounds is not None and backgrounds[i] is not None:
            bg_arr = np.asarray(backgrounds[i])
            if bg_arr.shape == (y1 - y0, x1 - x0):
                bg = bg_arr.ravel()
            elif bg_arr.shape == image.pixels.shape:
                bg = bg_arr[y0:y1, x0:x1].ravel()
            else:
                raise ValueError(
                    "background %d has shape %r; expected the patch shape "
                    "%r or the image shape %r"
                    % (i, bg_arr.shape, (y1 - y0, x1 - x0), image.pixels.shape)
                )
        else:
            bg = np.full(counts.shape, image.meta.sky_level)
        px = xs.ravel().astype(float)
        py = ys.ravel().astype(float)
        if image.mask is not None:
            good = ~image.mask[y0:y1, x0:x1].ravel()
            if not good.any():
                continue
            px, py = px[good], py[good]
            counts, bg = counts[good], bg[good]
        patches.append(PatchData(
            band=image.band,
            calibration=image.meta.calibration,
            px=px,
            py=py,
            counts=counts,
            background=np.maximum(bg, BACKGROUND_RATE_FLOOR),
            psf_components=list(image.meta.psf.components()),
            wcs=image.meta.wcs,
            bounds=bounds,
        ))
    return SourceContext(
        patches=patches,
        priors=priors,
        u_center=sky_position,
        counters=counters if counters is not None else GLOBAL_COUNTERS,
    )


# ---------------------------------------------------------------------------
# The objective


def _reject_selectors(**selectors) -> None:
    """Each removed selector (``backend``, ``kernel_target``) may only be
    ``None``: there is one ELBO kernel."""
    for name, value in selectors.items():
        if value is not None:
            raise ValueError(
                "%s=%r: the ELBO backends and kernel execution targets were "
                "removed and there is one kernel; leave %s unset"
                % (name, value, name)
            )


def elbo(
    ctx: SourceContext,
    free: np.ndarray,
    order: int = 2,
    variance_correction: bool = True,
    # backend and kernel_target: None only; kept because
    # benchmarks/suite/layers.py passes them.
    backend: str | None = None,
    kernel_target: str | None = None,
):
    """Evaluate the single-source ELBO at a free parameter vector.

    Parameters
    ----------
    order:
        2 for value+gradient+Hessian (Newton), 1 for value+gradient (L-BFGS
        baseline; roughly 3x cheaper, matching the paper's observation).
    variance_correction:
        Disable to ablate the delta-approximation variance term.
    backend, kernel_target:
        Must be ``None``; any other value raises ``ValueError`` (the
        backends and execution targets were removed).

    Returns an :class:`ElboEval` with ``.val``, ``.gradient(41)``,
    ``.hessian(41)`` and ``.hess`` (``None`` at order 1).  This is the
    batch of one of :func:`elbo_batch`, which does the accounting.
    """
    return elbo_batch([ctx], [free], order, variance_correction, backend,
                      kernel_target=kernel_target)[0]


def compile_elbo_batch(ctxs: list, backend: str | None = None):
    """Compile a reusable batch-evaluation handle for ``ctxs``.

    Pass the result to :func:`elbo_batch` as ``compiled`` while the batch
    membership is unchanged; recompile after dropping lanes (the lockstep
    optimizer does this when occupancy falls below its repack threshold).
    ``backend`` must be ``None``.  The handle lays the contexts' compiled
    workspaces out for one call (see
    :class:`repro.core.kernel._FusedBatchWorkspace` for the no-padding
    contract).
    """
    _reject_selectors(backend=backend)
    return _FusedBatchWorkspace(list(ctxs))


def elbo_batch(
    ctxs: list,
    frees: list,
    order: int = 2,
    variance_correction: bool = True,
    backend: str | None = None,
    compiled=None,
    active=None,
    kernel_target: str | None = None,
) -> list:
    """Evaluate many single-source ELBOs in one batched kernel call.

    The one evaluation front end (:func:`elbo` is its batch of one): one
    :class:`ElboEval` per context, each **bit-for-bit identical** to what a
    one-lane call returns for that context.  ``backend`` and
    ``kernel_target`` must be ``None``.

    Every active lane counts ``ctx.n_active_pixels`` active-pixel visits —
    the paper's FLOP unit — and one objective evaluation.  ``active``
    masks lanes out of the result (``None`` entries): a masked lane's
    pixels may still be swept when the compiled stacks bake the lane in,
    but it is never *accounted*, so FLOP totals are identical at any lane
    limit.  Batch-shape accounting (``elbo_batch_calls`` /
    ``elbo_batch_lanes`` / ``elbo_batch_lanes_active``) lands on the first
    context's counter bag — in practice a whole region shares one bag —
    making occupancy (and therefore the wasted work of inactive lanes)
    visible in perf reports (:func:`repro.perf.counters.batch_occupancy`).
    """
    if len(frees) != len(ctxs):
        raise ValueError(
            "got %d free vectors for %d contexts" % (len(frees), len(ctxs))
        )
    if active is not None and len(active) != len(ctxs):
        raise ValueError(
            "active mask has %d entries for %d contexts"
            % (len(active), len(ctxs))
        )
    _reject_selectors(backend=backend, kernel_target=kernel_target)
    out = elbo_fused_batch(ctxs, frees, order=order,
                           variance_correction=variance_correction,
                           compiled=compiled, active=active)
    chk = current_check()
    if chk is not None:
        for i, lane_out in enumerate(out):
            if lane_out is not None:
                chk.check_eval(lane_out, stage="elbo", lane=i)
    n_active = 0
    for i, ctx in enumerate(ctxs):
        if active is not None and not active[i]:
            continue
        n_active += 1
        ctx.counters.add_many({
            "active_pixel_visits": float(ctx.n_active_pixels),
            "objective_evaluations": 1.0,
        })
    if ctxs:
        ctxs[0].counters.add_many({
            "elbo_batch_calls": 1.0,
            "elbo_batch_lanes": float(len(ctxs)),
            "elbo_batch_lanes_active": float(n_active),
        })
    return out


def elbo_kl(
    ctx: SourceContext,
    free: np.ndarray,
    order: int = 2,
    backend: str | None = None,
):
    """Evaluate only the KL terms of the single-source ELBO.

    Returns the same :class:`ElboEval` surface as :func:`elbo`; ``backend``
    must be ``None``.  KL terms are pixel-count-independent, so this counts
    a ``kl_evaluations`` tick but no active-pixel visits (the paper's FLOP
    unit only ever counts pixel work).  Used by the KL parity tests and by
    ``benchmarks/bench_elbo_kernel.py``'s pixel-vs-KL cost split.
    """
    _reject_selectors(backend=backend)
    out = elbo_kl_fused(ctx, free, order)
    chk = current_check()
    if chk is not None:
        chk.check_eval(out, stage="kl")
    ctx.counters.add("kl_evaluations", 1.0)
    return out
