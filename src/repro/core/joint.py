"""Joint optimization of a sky region by block coordinate ascent.

The mid level of the paper's three-level scheme (Section IV-D): within a
task's region, each light source's 44 parameters form a block; blocks are
optimized one at a time to machine tolerance while the rest stay fixed.
Coupling between neighboring sources enters through *residual model images*:
when source s is optimized, the expected contributions of every other source
are part of its pixel backgrounds.

Region setup renders every source's starting contribution and the frozen
halo's from catalog values; under the driver those values are the
stage-start snapshot, the same in every task of a stage that reads them.
A :class:`ContributionStore` lets the tasks of one stage share those
renders instead of repeating them.

:class:`RegionOptimizer` owns that shared state.  :func:`update_sources`,
over ``(optimizer, source)`` pairs, is the unit of work executed serially
here (one source at a time) and concurrently by the Cyclades executor
(:mod:`repro.parallel`), whose batches may mix the regions of several
tasks — conflict-free, because Cyclades never schedules two overlapping
sources at once, non-overlapping sources touch disjoint patch pixels, and
each region has model images of its own.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.numeric import current_check, numeric_source
from repro.constants import GALAXY, STAR
from repro.core.catalog import Catalog, CatalogEntry
from repro.core.elbo import make_context, release_scratch
from repro.core.params import SourceParams
from repro.core.priors import Priors
from repro.core.single import (
    OptimizeConfig,
    SourceResult,
    initial_params,
    optimize_sources_batch,
    to_catalog_entry,
)
from repro.knobs import knob
from repro.perf.counters import Counters, GLOBAL_COUNTERS
from repro.profiles.galaxy import GalaxyShape, galaxy_density
from repro.survey.image import Image
from repro.survey.render import source_patch, source_radius

__all__ = [
    "ContributionStore",
    "JointConfig",
    "RegionOptimizer",
    "RegionResult",
    "optimize_region",
    "patch_radius_for",
    "update_sources",
]


@dataclass
class JointConfig:
    """Knobs for region-level block coordinate ascent.

    All fields are ``fingerprinted`` (:func:`repro.knobs.knob`): the whole
    config rides into the checkpoint fingerprint.
    """

    n_passes: int = knob(2, provenance="fingerprinted")
    single: OptimizeConfig = knob(default_factory=OptimizeConfig,
                                  provenance="fingerprinted")
    patch_radius: float | None = knob(None, provenance="fingerprinted")


@dataclass
class RegionResult:
    """Outcome of jointly optimizing a region."""

    catalog: Catalog
    results: list[SourceResult]
    elbo_total: float
    #: Shadow-detector findings (:class:`repro.analysis.race.RaceReport`);
    #: empty unless the run enabled race detection — and, if the schedule
    #: is correct, empty even then.
    race_reports: list = field(default_factory=list)
    #: Numeric-sanitizer findings (:class:`repro.analysis.numeric
    #: .NumericReport`); empty unless the run enabled numeric checking —
    #: and, on a healthy model, empty even then.
    numeric_reports: list = field(default_factory=list)

    @property
    def n_converged(self) -> int:
        return sum(1 for r in self.results if r is not None and r.converged)


def patch_radius_for(
    entry: CatalogEntry, psf, patch_radius: float | None = None
) -> float:
    """Patch radius (pixels) the region optimizer uses for one source.

    The single rule shared by :class:`RegionOptimizer` (patch bounds) and the
    Cyclades executor (conflict radii): an explicit ``patch_radius`` override
    wins; otherwise the radius derives from the PSF and the source's galaxy
    extent.  Catalog-classified stars may still be galaxies under q, so the
    derived radius allows for a modestly extended profile either way.
    """
    if patch_radius is not None:
        return float(patch_radius)
    gal_r = entry.gal_radius_px if entry.is_galaxy else 1.0
    return float(source_radius(gal_r, psf))


def expected_contribution(
    params: SourceParams, image: Image, bounds: tuple
) -> np.ndarray:
    """Expected photon contribution of one source to an image patch, under
    the current variational parameters (type-marginal)."""
    x0, x1, y0, y1 = bounds
    ys, xs = np.mgrid[y0:y1, x0:x1]
    px, py = image.meta.wcs.sky_to_pix(params.u)
    dx = xs - px
    dy = ys - py
    psf = image.meta.psf
    band = image.band

    g_star = psf.density(dx, dy)
    shape = GalaxyShape(
        frac_dev=params.e_dev,
        axis_ratio=params.e_axis,
        angle=params.e_angle,
        radius=params.e_scale,
    )
    g_gal = galaxy_density(shape, psf, dx, dy)
    pg = params.prob_galaxy
    flux_star = params.expected_flux(STAR, band)
    flux_gal = params.expected_flux(GALAXY, band)
    return image.meta.calibration * (
        (1.0 - pg) * flux_star * g_star + pg * flux_gal * g_gal
    )


def _render(params: SourceParams, image: Image, bounds: tuple,
            counters: Counters) -> np.ndarray:
    counters.add("contribution_renders")
    return expected_contribution(params, image, bounds)


class ContributionStore:
    """Read-only expected contributions, keyed by what they are rendered
    from.

    The key is the exact bytes of the source's canonical parameter vector,
    a caller-chosen *stable* image key and the patch bounds.  A hit is
    therefore what :func:`expected_contribution` returned on the same
    inputs, and a model image built from hits has the bits of one built
    from fresh renders.  Because the key is the values, a store stays
    correct whichever catalog the parameters were read from; its lifetime
    only bounds its memory.  The driver gives each pool seat one store per
    stage bind (:class:`repro.driver.worker._WorkerState`); image keys there
    are ``(field index, image position)`` in the seat's field store, which
    survive the prefetcher evicting and reloading a field where ``id()``
    would not.

    Stored arrays are read-only: an in-place write would change every
    later hit.  A store belongs to one seat, which builds one region at a
    time, so it takes no lock.
    """

    def __init__(self):
        self._renders: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._renders)

    def contribution(self, params: SourceParams, image: Image, image_key,
                     bounds: tuple, counters: Counters) -> np.ndarray:
        """The stored render of ``params`` on ``image`` over ``bounds``,
        rendered (and counted in ``contribution_renders``) on a miss;
        a hit counts in ``contribution_reuses``."""
        key = (params.to_canonical().tobytes(), image_key, tuple(bounds))
        c = self._renders.get(key)
        if c is None:
            c = _render(params, image, bounds, counters)
            c.setflags(write=False)
            self._renders[key] = c
        else:
            counters.add("contribution_reuses")
        return c


class RegionOptimizer:
    """Shared state for block coordinate ascent over one region's sources."""

    def __init__(
        self,
        images: list[Image],
        entries: list[CatalogEntry],
        priors: Priors,
        config: JointConfig | None = None,
        counters: Counters | None = None,
        frozen_entries: list[CatalogEntry] | None = None,
        contributions: ContributionStore | None = None,
        image_keys: list | None = None,
    ):
        """``frozen_entries`` are catalog sources near (but outside) the
        region being optimized: their expected contributions are rendered
        into the model images as fixed background and never updated.
        Without them, a source near a region border slides toward its
        unmodeled neighbor's flux — the multi-region driver passes each
        task's halo here.

        The starting contributions of the sources and of the halo come
        from ``contributions`` (rendered on a miss), with ``image_keys[i]``
        the stable key of ``images[i]``.  A store shared across regions
        needs keys; without one the optimizer uses a fresh store keyed by
        image position."""
        if contributions is None:
            contributions = ContributionStore()
            if image_keys is None:
                image_keys = list(range(len(images)))
        elif image_keys is None:
            raise ValueError("a shared ContributionStore needs image_keys")
        if len(image_keys) != len(images):
            raise ValueError("need one image key per image")
        self.images = images
        self.priors = priors
        self.config = config or JointConfig()
        self.counters = counters if counters is not None else GLOBAL_COUNTERS
        self._lock = threading.Lock()

        #: Current variational parameters per source.
        self.params: list[SourceParams] = [
            initial_params(e, priors) for e in entries
        ]
        self.results: list[SourceResult | None] = [None] * len(entries)

        #: Per-source, per-image patch bounds (None when off-image).
        self._bounds: list[list[tuple | None]] = []
        for e, p in zip(entries, self.params):
            row = []
            for im in images:
                r = patch_radius_for(e, im.meta.psf, self.config.patch_radius)
                row.append(source_patch(im, p.u, r))
            self._bounds.append(row)

        #: Model images: sky + expected contributions of all sources.
        self.model: list[np.ndarray] = [
            np.full(im.pixels.shape, im.meta.sky_level) for im in images
        ]
        self._contrib: list[list[np.ndarray | None]] = []
        for s in range(len(entries)):
            row = []
            for i, im in enumerate(images):
                b = self._bounds[s][i]
                if b is None:
                    row.append(None)
                    continue
                c = contributions.contribution(
                    self.params[s], im, image_keys[i], b, self.counters)
                x0, x1, y0, y1 = b
                self.model[i][y0:y1, x0:x1] += c
                row.append(c)
            self._contrib.append(row)

        # Frozen halo: neighbors outside the region contribute to the model
        # images once, at their catalog values, and are never re-optimized.
        for e in frozen_entries or []:
            p = initial_params(e, priors)
            for i, im in enumerate(images):
                r = patch_radius_for(e, im.meta.psf, self.config.patch_radius)
                b = source_patch(im, p.u, r)
                if b is None:
                    continue
                x0, x1, y0, y1 = b
                self.model[i][y0:y1, x0:x1] += contributions.contribution(
                    p, im, image_keys[i], b, self.counters)

    @property
    def n_sources(self) -> int:
        return len(self.params)

    def patch_bounds(self, s: int) -> list[tuple | None]:
        """Per-image integer patch bounds ``(x0, x1, y0, y1)`` for source
        ``s`` (``None`` where it is off-image) — the exact pixel extents
        :meth:`update_source` writes.  Bounds are fixed at construction,
        so schedule verification and shadow write-recording against them
        are exact for the whole run."""
        return list(self._bounds[s])

    def backgrounds_for(self, s: int) -> list[np.ndarray | None]:
        """Residual model patches for source ``s``: total model minus its own
        current contribution (so the ELBO treats the rest of the sky as a
        deterministic background).

        Returned arrays are *patch-shaped* (matching ``self._bounds[s]``),
        not full images: allocating a full-image canvas per source per image
        would cost O(image size) per block-coordinate update, which dominates
        the hot path for small patches.  ``make_context`` accepts them
        alongside ``bounds_list``.
        """
        out = []
        for i, im in enumerate(self.images):
            b = self._bounds[s][i]
            if b is None:
                out.append(None)
                continue
            x0, x1, y0, y1 = b
            patch_bg = self.model[i][y0:y1, x0:x1] - self._contrib[s][i]
            out.append(np.maximum(patch_bg, 0.5 * im.meta.sky_level))
        return out

    def update_source(self, s: int) -> SourceResult:
        """Optimize one source against the current residual backgrounds and
        fold its new expected contribution back into the model images: the
        batch of one of :func:`update_sources`."""
        return update_sources([(self, s)])[0]

    def _make_context(self, s: int):
        return make_context(
            self.images,
            self.params[s].u,
            self.priors,
            backgrounds=self.backgrounds_for(s),
            counters=self.counters,
            bounds_list=self._bounds[s],
        )

    def _fold_back(self, s: int, result: SourceResult) -> None:
        """Publish one source's result: update its parameters and fold its
        new expected contribution into the model images (caller holds the
        lock).  The new parameters were never rendered: no store."""
        self.params[s] = result.params
        self.results[s] = result
        for i, im in enumerate(self.images):
            b = self._bounds[s][i]
            if b is None:
                continue
            x0, x1, y0, y1 = b
            new_c = _render(result.params, im, b, self.counters)
            self.model[i][y0:y1, x0:x1] += new_c - self._contrib[s][i]
            self._contrib[s][i] = new_c

    def catalog(self) -> Catalog:
        """Point-estimate catalog from the current variational parameters."""
        return Catalog([to_catalog_entry(p) for p in self.params])

    def total_elbo(self) -> float:
        # fsum is exact, so the total is independent of completion order.
        parts = [r.elbo for r in self.results if r is not None]
        total = math.fsum(parts)
        chk = current_check()
        if chk is not None:
            chk.check_accumulation(total, parts)
        return total


def update_sources(pairs: list[tuple[RegionOptimizer, int]]
                   ) -> list[SourceResult]:
    """Optimize ``(optimizer, source)`` pairs in one lockstep batch and fold
    each new expected contribution back into its optimizer's model images.

    This is the unit of work the Cyclades executor distributes: each
    thread's conflict-free assignment — across every region of a lockstep —
    is cut into runs of at most ``elbo_batch_size`` pairs.  No two pairs of
    one region may overlap; pairs of different regions never do, since
    each region has model images of its own.  Every context is built
    against the current residual backgrounds up front, all are optimized
    with :func:`repro.core.single.optimize_sources_batch`, and each result
    is folded back under its optimizer's lock.  Because the sources'
    patches are pixel-disjoint, each source's backgrounds are identical
    whether its neighbors in the batch were updated before or after it, so
    this is bit-for-bit equivalent to updating them one at a time, in
    order.  Safe to run concurrently for pairs that do not overlap.  The
    regions of one batch share one :class:`JointConfig`; the first pair's
    optimizer config is the one read.
    """
    with numeric_source([s for _, s in pairs]):
        ctxs = [opt._make_context(s) for opt, s in pairs]
        results = optimize_sources_batch(
            ctxs, [opt.params[s] for opt, s in pairs],
            pairs[0][0].config.single)
    for (opt, s), result in zip(pairs, results):
        with opt._lock:
            opt._fold_back(s, result)
    return results


def optimize_region(
    images: list[Image],
    entries: list[CatalogEntry],
    priors: Priors,
    config: JointConfig | None = None,
    counters: Counters | None = None,
    frozen_entries: list[CatalogEntry] | None = None,
) -> RegionResult:
    """Serial block coordinate ascent: ``n_passes`` sweeps over all sources,
    brightest first (bright sources dominate their neighbors' backgrounds,
    so settling them first speeds convergence)."""
    opt = RegionOptimizer(images, entries, priors, config, counters,
                          frozen_entries)
    order = np.argsort([-e.flux_r for e in entries])
    try:
        for _ in range(opt.config.n_passes):
            for s in order:
                opt.update_source(int(s))
    finally:
        # Return the caller thread's ELBO scratch; same contract as the
        # Cyclades executor's per-assignment release.
        release_scratch()
    return RegionResult(
        catalog=opt.catalog(),
        results=list(opt.results),
        elbo_total=opt.total_elbo(),
    )
