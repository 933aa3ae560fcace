"""The per-source evidence lower bound (ELBO): backend-neutral front end.

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

**Evaluation backends.**  Derivative evaluation is pluggable behind the
:class:`ElboBackend` interface, selected per call (or via the
``REPRO_ELBO_BACKEND`` environment variable):

- ``"taylor"`` (:mod:`repro.core.elbo_taylor`) — the reference path: the
  whole objective is one sparse-index Taylor expression, rebuilt on every
  evaluation.  Slower, but derivatives follow mechanically from the model,
  so this is the correctness oracle (validated against finite differences
  in :mod:`repro.autodiff.check`).
- ``"fused"`` (:mod:`repro.core.kernel`) — the production path (and the
  default): pixel-static arrays (PSF/galaxy component products, pixel
  grids, backgrounds) are compiled once per :class:`SourceContext` into a
  reusable workspace, and each evaluation computes the Poisson pixel term's
  value, 41-gradient, and 41x41 Hessian from hand-derived closed-form block
  formulas, fused across patches and mixture components with no
  per-iteration expression-graph construction.

*Both* terms of the objective are backend-dispatched: each backend owns a
pixel-term implementation **and** a KL-term implementation
(:meth:`ElboBackend.evaluate_kl`).  The Taylor backend builds the KL terms
as a Taylor expression (:func:`repro.core.elbo_taylor.kl_total`, the
correctness oracle); the fused backend evaluates them from closed-form
value/gradient/Hessian formulas compiled once per prior configuration
(:class:`repro.core.kernel.KlWorkspace`) — chained through the bijector and
fixed-last-softmax derivatives of :mod:`repro.transforms.bijectors` — so a
fused evaluation never enters Taylor mode.  :func:`elbo_kl` exposes the
KL-only dispatch (used by the parity tests and the benchmark's
pixel-vs-KL cost split).

**Batch evaluation.**  Evaluation is *batched* throughout
(:meth:`ElboBackend.compile_batch` / :meth:`ElboBackend.evaluate_batch`,
front ends :func:`compile_elbo_batch` / :func:`elbo_batch`): many sources'
contexts evaluated in one sweep, the paper's AVX-512
many-sources-at-once analogue, with :func:`elbo` the batch of one.  The
contract is strict — every lane's result must be **bit-for-bit identical**
to a one-lane call's, so batching is always an execution strategy and
never an approximation.  The fused backend packs same-shaped contexts into
lane-stacked structure-of-arrays workspaces; the Taylor backend runs the
base class's trivial per-lane loop over its per-context ``evaluate``,
keeping the oracle independent of any batching code.  The lockstep
optimizer (:func:`repro.core.single.optimize_sources_batch`) drives this
surface with per-lane active masks and repacking.

Both backends see the same :class:`SourceContext` and are accounted
identically: this front end increments ``active_pixel_visits`` (the paper's
FLOP-accounting unit) and ``objective_evaluations`` once per active lane,
whichever backend ran.  KL terms are pixel-count-independent, so they never
contribute visits under either backend — FLOP totals from
:mod:`repro.perf.flops` stay comparable across backends.  Every call also
adds batch-shape counters (``elbo_batch_lanes`` / ``elbo_batch_lanes_active``)
that make batch occupancy — wasted masked-lane work — visible
(:func:`repro.perf.counters.batch_occupancy`).

Every evaluation returns an object exposing ``.val`` (a scalar),
``.gradient(n)``/``.hessian(n)`` (dense derivative extraction over the free
vector), and ``.hess`` (``None`` in gradient-only mode) — the Taylor backend
returns the Taylor scalar itself, the fused backend an :class:`ElboEval`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.analysis.numeric import current_check
from repro.constants import BACKGROUND_RATE_FLOOR
from repro.core.priors import Priors
from repro.envvars import env_raw
from repro.perf.counters import Counters, GLOBAL_COUNTERS
from repro.profiles.mog import dev_mixture, exp_mixture
from repro.survey.image import Image
from repro.survey.render import source_patch, source_radius

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "ElboBackend",
    "ElboEval",
    "PatchData",
    "SourceContext",
    "available_backends",
    "compile_elbo_batch",
    "elbo",
    "elbo_batch",
    "elbo_kl",
    "get_backend",
    "kl_total",
    "make_context",
    "register_backend",
    "release_scratch",
    "resolve_backend_name",
]

#: Environment variable consulted when no backend is given explicitly — lets
#: CI (and the driver) force every evaluation onto one backend.
BACKEND_ENV_VAR = "REPRO_ELBO_BACKEND"

#: Backend used when neither the call site nor the environment picks one.
#: ``"fused"`` since the KL terms went closed-form: every term of a
#: production evaluation now runs the compile-once analytic kernels, with
#: ``"taylor"`` kept as the correctness oracle (CI runs the full matrix).
DEFAULT_BACKEND = "fused"

#: Backends the lazy loader knows how to import (module registering it).
_KNOWN_BACKENDS = {
    "taylor": "repro.core.elbo_taylor",
    "fused": "repro.core.kernel",
}


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
    #: Per-backend compiled workspaces, keyed by backend name.  A backend
    #: compiles its pixel-static arrays here on first evaluation and reuses
    #: them for every later evaluation of this context (a Newton solve
    #: evaluates the same context tens of times).
    workspaces: dict = dc_field(default_factory=dict, repr=False, compare=False)

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
# KL terms: backend-dispatched, like the pixel term.  The Taylor expression
# (the correctness oracle) lives in :mod:`repro.core.elbo_taylor`; the fused
# closed-form kernel in :mod:`repro.core.kernel`.  ``kl_total`` stays
# importable from here for backward compatibility.


def __getattr__(name: str):
    if name == "kl_total":
        from repro.core.elbo_taylor import kl_total

        return kl_total
    raise AttributeError(
        "module %r has no attribute %r" % (__name__, name)
    )


# ---------------------------------------------------------------------------
# Backend interface and registry


class ElboEval:
    """Dense evaluation result mirroring the Taylor scalar's extraction API.

    ``val`` is a ``()``-shaped array; ``gradient(n)``/``hessian(n)`` return
    dense derivative arrays over the free vector (zeros where absent), and
    ``hess`` is ``None`` in gradient-only mode — exactly the subset of the
    :class:`~repro.autodiff.Taylor` surface the optimizers consume, so
    callers never need to know which backend produced a result.
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
        # Zero-pad into wider spaces, matching Taylor's dense scatter (the
        # stored block always starts at global index 0).
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


class ElboBackend:
    """One way of evaluating the single-source ELBO and its derivatives.

    Implementations register themselves with :func:`register_backend` at
    import time and are resolved lazily by name, so importing the front end
    never pays for a backend that is not used.
    """

    #: Registry name (``"taylor"``, ``"fused"``, ...).
    name: str = "?"

    def evaluate(self, ctx: SourceContext, free: np.ndarray, order: int,
                 variance_correction: bool):
        """Return the ELBO at ``free`` as a Taylor scalar or an
        :class:`ElboEval` (both expose ``val``/``gradient``/``hessian``)."""
        raise NotImplementedError

    def evaluate_kl(self, ctx: SourceContext, free: np.ndarray, order: int):
        """Return only the (pixel-count-independent) KL terms at ``free``,
        with the same result surface as :meth:`evaluate`.  Dispatched like
        the pixel term so no backend ever falls back to another's
        derivative machinery on the hot path."""
        raise NotImplementedError

    def compile_batch(self, ctxs: list):
        """Compile whatever batch-level state :meth:`evaluate_batch` can
        reuse across repeated evaluations of the same contexts (a lockstep
        Newton solve evaluates the same batch tens of times).  The returned
        handle is opaque to callers and valid only for exactly these
        contexts; ``None`` (the default) means the backend keeps no
        batch-level state."""
        return None

    def evaluate_batch(self, ctxs: list, frees: list, order: int,
                       variance_correction: bool, compiled=None,
                       active=None):
        """Evaluate many sources at once; returns one result per context
        (each exposing ``val``/``gradient``/``hessian``), or ``None`` for
        lanes masked inactive.

        Every lane's result must be **bit-for-bit identical** to what
        :meth:`evaluate` returns for that context and free vector alone —
        batching is an execution strategy, never an approximation.  This
        default implementation is the trivial per-lane loop, which
        satisfies that contract by construction; it is what the Taylor
        backend runs, so the reference oracle is available for batched
        parity tests without any Taylor-side batching code."""
        return [
            self.evaluate(ctx, free, order, variance_correction)
            if active is None or active[i] else None
            for i, (ctx, free) in enumerate(zip(ctxs, frees))
        ]

    def release_scratch(self) -> None:
        """Drop any per-thread scratch buffers held for the calling thread
        (no-op for backends that keep none)."""


_BACKENDS: dict[str, ElboBackend] = {}


def release_scratch() -> None:
    """Release every loaded backend's per-thread scratch for this thread.

    The Cyclades executor calls this when a worker finishes its assignment,
    so long-lived pool threads do not pin evaluation buffers between
    regions; backends that were never imported cost nothing.
    """
    for backend in _BACKENDS.values():
        backend.release_scratch()


def register_backend(backend: ElboBackend) -> None:
    _BACKENDS[backend.name] = backend


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(set(_KNOWN_BACKENDS) | set(_BACKENDS)))


def resolve_backend_name(name: str | None = None) -> str:
    """The backend a call with ``backend=name`` would use: an explicit name
    wins, else :data:`BACKEND_ENV_VAR`, else :data:`DEFAULT_BACKEND`."""
    if name is None:
        name = env_raw(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name not in _KNOWN_BACKENDS and name not in _BACKENDS:
        raise ValueError(
            "unknown ELBO backend %r; available: %r"
            % (name, available_backends())
        )
    return name


def get_backend(name: str | None = None) -> ElboBackend:
    """Resolve a backend by name (``None`` follows the env-var/default
    chain), importing its module on first use."""
    name = resolve_backend_name(name)
    if name not in _BACKENDS:
        import importlib

        importlib.import_module(_KNOWN_BACKENDS[name])
    return _BACKENDS[name]


# ---------------------------------------------------------------------------
# The objective


def _reject_kernel_target(kernel_target) -> None:
    """``kernel_target`` may only be ``None``: there is one pixel kernel."""
    if kernel_target is not None:
        raise ValueError(
            "kernel_target=%r: the kernel execution targets were removed "
            "and there is one pixel kernel; leave kernel_target unset"
            % (kernel_target,)
        )


def elbo(
    ctx: SourceContext,
    free: np.ndarray,
    order: int = 2,
    variance_correction: bool = True,
    backend: str | None = None,
    # None only; kept because benchmarks/suite/layers.py passes it.
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
    backend:
        Evaluation backend name (``"taylor"`` or ``"fused"``); ``None``
        reads :data:`BACKEND_ENV_VAR`, defaulting to :data:`DEFAULT_BACKEND`.
    kernel_target:
        Must be ``None``; any other value raises ``ValueError`` (the
        execution targets were removed).

    Returns an object with ``.val``, ``.gradient(41)``, ``.hessian(41)``
    and ``.hess`` (``None`` at order 1).  This is the batch of one of
    :func:`elbo_batch`, which does the (backend-neutral) accounting.
    """
    return elbo_batch([ctx], [free], order, variance_correction, backend,
                      kernel_target=kernel_target)[0]


def compile_elbo_batch(ctxs: list, backend: str | None = None):
    """Compile a reusable batch-evaluation handle for ``ctxs``.

    Pass the result to :func:`elbo_batch` as ``compiled`` while the batch
    membership is unchanged; recompile after dropping lanes (the lockstep
    optimizer does this when occupancy falls below its repack threshold).
    """
    return get_backend(backend).compile_batch(list(ctxs))


def elbo_batch(
    ctxs: list,
    frees: list,
    order: int = 2,
    variance_correction: bool = True,
    backend: str | None = None,
    compiled=None,
    active=None,
    # None only; kept because benchmarks/suite/layers.py passes it.
    kernel_target: str | None = None,
) -> list:
    """Evaluate many single-source ELBOs in one batched backend call.

    The one evaluation front end (:func:`elbo` is its batch of one): one
    entry per context, each exposing the ``val``/``gradient``/``hessian``
    surface, and each **bit-for-bit identical** to what a one-lane call
    returns for that context — the backend contract every implementation
    must honor (:meth:`ElboBackend.evaluate_batch`).

    Accounting is backend-neutral: every active lane counts
    ``ctx.n_active_pixels`` active-pixel visits — the paper's FLOP unit —
    and one objective evaluation, so FLOP totals from
    :mod:`repro.perf.flops` are comparable across backends.  ``active``
    masks lanes out of the result (``None`` entries): a masked lane's
    pixels may still be swept by a backend whose compiled stacks bake the
    lane in, but it is never *accounted*, so FLOP totals are identical at
    any lane limit.  Batch-shape accounting (``elbo_batch_calls`` /
    ``elbo_batch_lanes`` / ``elbo_batch_lanes_active``) lands on the first
    context's counter bag — in practice a whole region shares one bag —
    making occupancy (and therefore the wasted work of inactive lanes)
    visible in perf reports (:func:`repro.perf.counters.batch_occupancy`).
    The fused backend adds ``elbo_sweep_calls`` / ``elbo_sweep_lanes``: how
    many stacked pixel sweeps the call split into, and how many lanes
    those carried.
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
    _reject_kernel_target(kernel_target)
    bk = get_backend(backend)
    out = bk.evaluate_batch(ctxs, frees, order, variance_correction,
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
            "objective_evaluations_" + bk.name: 1.0,
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

    Backend-dispatched exactly like :func:`elbo`; returns the same
    ``val``/``gradient``/``hessian`` surface.  KL terms are
    pixel-count-independent, so this counts a ``kl_evaluations`` tick but
    no active-pixel visits (under either backend — the paper's FLOP unit
    only ever counts pixel work).  Used by the fused-vs-Taylor KL parity
    tests and by :mod:`benchmarks.bench_elbo_kernel`'s pixel-vs-KL cost
    split.
    """
    bk = get_backend(backend)
    out = bk.evaluate_kl(ctx, np.asarray(free, dtype=np.float64), order)
    chk = current_check()
    if chk is not None:
        chk.check_eval(out, stage="kl")
    ctx.counters.add_many({
        "kl_evaluations": 1.0,
        "kl_evaluations_" + bk.name: 1.0,
    })
    return out
