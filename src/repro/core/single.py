"""Single-source optimization: the innermost level of the scheme.

One light source's 41 free parameters are optimized "to machine tolerance by
Newton's method, with step sizes controlled by a trust region" (paper,
Section IV-D), with every other source held fixed (their expected
contributions appear in the patch backgrounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import GALAXY, NUM_COLORS, SEED_FLUX_FLOOR, STAR
from repro.core.catalog import CatalogEntry
from repro.core.elbo import (
    SourceContext,
    compile_elbo_batch,
    elbo_batch,
    release_scratch,
)
from repro.core.params import (
    FREE,
    SourceParams,
    canonical_to_free,
    free_to_canonical,
)
from repro.core.priors import Priors
from repro.knobs import knob
from repro.optim import (
    OptimResult,
    lbfgs_minimize_batch,
    newton_trust_region_batch,
)

__all__ = [
    "OptimizeConfig",
    "SourceResult",
    "initial_params",
    "optimize_source",
    "optimize_sources_batch",
]


@dataclass
class OptimizeConfig:
    """Knobs for single-source optimization.

    All fields are ``fingerprinted`` (:func:`repro.knobs.knob`): the whole
    config rides into the checkpoint fingerprint.
    """

    max_iter: int = knob(50, provenance="fingerprinted")
    grad_tol: float = knob(1e-4, provenance="fingerprinted")
    initial_radius: float = knob(1.0, provenance="fingerprinted")
    #: "newton" (paper) or "lbfgs" (baseline)
    method: str = knob("newton", provenance="fingerprinted")
    variance_correction: bool = knob(True, provenance="fingerprinted")
    #: ELBO evaluation backend: ``"fused"`` (compile-once analytic kernel,
    #: the production default) or ``"taylor"`` (the reference oracle);
    #: ``None`` follows the ``REPRO_ELBO_BACKEND`` environment variable,
    #: then :data:`repro.core.elbo.DEFAULT_BACKEND`.  The driver fills
    #: that default in up front so checkpoints fingerprint the backend that
    #: actually ran.
    backend: str | None = knob(None, provenance="fingerprinted")
    #: Fused-kernel execution target (``"numpy"``/``"array_api"``/
    #: ``"numba"``); ``None`` follows ``REPRO_KERNEL_TARGET``, then the
    #: NumPy reference.  Filled in by the driver alongside the backend
    #: (non-reference targets are tolerance-parity, so the target that ran
    #: is part of a checkpoint's fingerprint).
    kernel_target: str | None = knob(None, provenance="fingerprinted")


@dataclass
class SourceResult:
    """Optimized variational parameters plus solver diagnostics."""

    params: SourceParams
    free: np.ndarray
    elbo: float
    optim: OptimResult

    @property
    def converged(self) -> bool:
        return self.optim.converged


def initial_params(entry: CatalogEntry, priors: Priors) -> SourceParams:
    """Variational initialization from an existing catalog entry.

    Mirrors the paper's task descriptions, which carry "initial values for
    these light sources' parameters, derived from existing astronomical
    catalogs" (Section IV-A).  Both type hypotheses start from the same
    catalog photometry; variances start at moderate values.
    """
    log_flux = float(np.log(max(entry.flux_r, SEED_FLUX_FLOOR)))
    colors = np.asarray(entry.colors, dtype=float)
    return SourceParams(
        prob_galaxy=0.8 if entry.is_galaxy else 0.2,
        u=np.asarray(entry.position, dtype=float).copy(),
        r1=np.array([log_flux, log_flux]),
        r2=np.array([0.25, 0.25]),
        c1=np.stack([colors, colors], axis=1),
        c2=np.full((NUM_COLORS, 2), 0.25),
        e_dev=float(np.clip(entry.gal_frac_dev, 0.05, 0.95)),
        e_axis=float(np.clip(entry.gal_axis_ratio, 0.1, 0.95)),
        # Normalize into [0, pi), matching to_catalog_entry: an ellipse's
        # position angle is pi-periodic, so re-seeding from a merged catalog
        # must be idempotent rather than drift by multiples of pi.
        e_angle=float(entry.gal_angle) % np.pi,
        e_scale=float(np.clip(entry.gal_radius_px, 0.3, 25.0)),
        k=np.full((priors.k_weights.shape[0], 2), 1.0 / priors.k_weights.shape[0]),
    )


def optimize_source(
    ctx: SourceContext,
    init: SourceParams | CatalogEntry,
    config: OptimizeConfig | None = None,
) -> SourceResult:
    """Maximize the source's ELBO starting from a catalog initialization:
    the batch of one of :func:`optimize_sources_batch`."""
    return optimize_sources_batch([ctx], [init], config)[0]


def optimize_sources_batch(
    ctxs: list[SourceContext],
    inits: list,
    config: OptimizeConfig | None = None,
    repack_threshold: float = 0.5,
) -> list[SourceResult]:
    """Optimize many independent sources with lockstep batched evaluations.

    The one optimization path (:func:`optimize_source` is its batch of
    one): each source runs its own solve (independent iterates, radii/line
    searches, and convergence), but every round's objective evaluations
    are served by one :func:`repro.core.elbo.elbo_batch` call, so a backend
    with a batched kernel sweeps all still-active sources' pixels at once —
    the paper's AVX-512 batching of evaluations across light sources.  Both
    methods have lockstep drivers: ``"newton"`` (the paper's trust region,
    order-2 evaluations) and ``"lbfgs"`` (the baseline, order-1 evaluations
    via :func:`repro.optim.lbfgs_minimize_batch`).

    **Bit-for-bit contract.**  Each source's result — iterates,
    diagnostics, counter totals — is the same whatever else shares its
    batch, because lanes of a lockstep driver never interact and every
    backend's batched evaluation is lane-independent to the bit.  Batching
    is an execution strategy, never an approximation; the Cyclades executor
    relies on this to keep catalogs identical at any lane limit.

    **Masking and repacking.**  Converged sources drop out of the active
    set.  A dropped lane is initially only *masked*: the compiled batch
    workspace still carries it (stacked arrays bake lanes in), so its
    pixels ride along unaccounted — visible as occupancy < 1 in the
    ``elbo_batch_lanes`` counters.  Once the active set falls below
    ``repack_threshold`` of the compiled lanes, the batch is repacked:
    the workspace recompiles for the survivors and the waste is reclaimed.
    The threshold is result-invariant occupancy tuning — any value yields
    the same catalog, only different wasted-lane counts — which is why it
    is no part of a checkpoint's fingerprint.
    """
    if config is None:
        config = OptimizeConfig()
    if not ctxs:
        return []
    if len(inits) != len(ctxs):
        raise ValueError(
            "got %d initializations for %d contexts" % (len(inits), len(ctxs))
        )
    if config.method not in ("newton", "lbfgs"):
        raise ValueError("unknown method %r" % (config.method,))

    params = [
        initial_params(init, ctx.priors)
        if isinstance(init, CatalogEntry) else init
        for ctx, init in zip(ctxs, inits)
    ]
    free0s = [
        canonical_to_free(p.to_canonical(), ctx.u_center)
        for p, ctx in zip(params, ctxs)
    ]
    last_free = list(free0s)
    order = 2 if config.method == "newton" else 1
    # The compiled workspace covers the problems in ``state["lanes"]``; it
    # shrinks to the active set whenever occupancy drops below the repack
    # threshold.
    state = {"lanes": list(range(len(ctxs))), "ctxs": list(ctxs)}
    state["compiled"] = compile_elbo_batch(ctxs, backend=config.backend)

    def eval_batch(idx: list, xs: list) -> list:
        """Evaluate problems ``idx`` (ascending, a subset of the compiled
        lanes) at ``xs``; masked lanes ride along at their last point."""
        for i, x in zip(idx, xs):
            last_free[i] = np.asarray(x, dtype=np.float64)
        if len(idx) < repack_threshold * len(state["lanes"]):
            state["lanes"] = list(idx)
            state["ctxs"] = [ctxs[i] for i in idx]
            state["compiled"] = compile_elbo_batch(
                state["ctxs"], backend=config.backend
            )
        lanes = state["lanes"]
        active = None
        if len(idx) < len(lanes):
            members = set(idx)
            active = [i in members for i in lanes]
        outs = elbo_batch(
            state["ctxs"],
            [last_free[i] for i in lanes],
            order=order,
            variance_correction=config.variance_correction,
            backend=config.backend,
            compiled=state["compiled"],
            active=active,
            kernel_target=config.kernel_target,
        )
        # Results come back in lane order with None for masked lanes, and
        # ``idx`` lists the active lanes in that same order.
        return [out for out in outs if out is not None]

    solves_counter = config.method + "_solves"
    iters_counter = config.method + "_iterations"
    for ctx in ctxs:
        ctx.counters.add(solves_counter, 1.0)
    # On a clean solve the per-thread evaluation scratch stays pooled — the
    # next batch on this thread (a Cyclades assignment, a benchmark loop)
    # reuses it, and the executor releases it when the assignment ends.  An
    # evaluation that *raises* inside the solver gets no such downstream
    # release on many call paths (direct single-source API, baselines), so
    # the except arm drops the pool rather than strand buffers on a thread
    # that may never evaluate again.
    try:
        if config.method == "newton":
            def fgh_batch(idx: list, xs: list) -> list:
                return [
                    (-float(out.val), -out.gradient(FREE.size),
                     -out.hessian(FREE.size))
                    for out in eval_batch(idx, xs)
                ]

            results = newton_trust_region_batch(
                fgh_batch, free0s,
                grad_tol=config.grad_tol,
                max_iter=config.max_iter,
                initial_radius=config.initial_radius,
            )
        else:
            def fg_batch(idx: list, xs: list) -> list:
                return [
                    (-float(out.val), -out.gradient(FREE.size))
                    for out in eval_batch(idx, xs)
                ]

            results = lbfgs_minimize_batch(
                fg_batch, free0s,
                grad_tol=config.grad_tol,
                max_iter=config.max_iter,
            )
    except BaseException:
        release_scratch()
        raise

    out = []
    for ctx, res in zip(ctxs, results):
        ctx.counters.add(iters_counter, float(res.n_iterations))
        canonical = free_to_canonical(res.x, ctx.u_center)
        out.append(SourceResult(
            params=SourceParams.from_canonical(canonical),
            free=res.x,
            elbo=-res.fun,
            optim=res,
        ))
    return out


def to_catalog_entry(params: SourceParams) -> CatalogEntry:
    """Convert optimized variational parameters to a point-estimate catalog
    entry (the MAP-style summary; uncertainty lives in
    :mod:`repro.core.uncertainty`)."""
    is_gal = params.prob_galaxy >= 0.5
    ty = GALAXY if is_gal else STAR
    flux = float(np.exp(params.r1[ty] + 0.5 * params.r2[ty]))  # det: ignore[NUM200] -- log-flux moment is unbounded by design; the runtime NumericSanitizer watches this path
    return CatalogEntry(
        position=params.u.copy(),
        is_galaxy=bool(is_gal),
        flux_r=flux,
        colors=params.c1[:, ty].copy(),
        gal_frac_dev=params.e_dev,
        gal_axis_ratio=params.e_axis,
        gal_angle=params.e_angle % np.pi,
        gal_radius_px=params.e_scale,
        prob_galaxy=params.prob_galaxy,
        flux_r_sd=float(flux * np.sqrt(np.expm1(params.r2[ty]))),
        color_sd=np.sqrt(params.c2[:, ty]),
    )
