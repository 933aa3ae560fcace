"""Threaded execution of conflict-free region optimization.

Drives :class:`repro.core.joint.RegionOptimizer` with real Python threads:
each Cyclades batch runs its thread assignments concurrently (the heavy
NumPy kernels release the GIL), with a barrier between batches.  Because
batches are conflict-free, the result is equivalent to some serial block
coordinate ascent order — which is tested, not assumed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.analysis.numeric import NumericSanitizer, numeric_checking
from repro.core.catalog import CatalogEntry
from repro.core.elbo import release_scratch
from repro.core.joint import (
    JointConfig,
    RegionOptimizer,
    RegionResult,
    patch_radius_for,
)
from repro.core.priors import Priors
from repro.knobs import knob
from repro.parallel.conflict import build_conflict_graph
from repro.parallel.cyclades import CycladesBatch, cyclades_batches
from repro.perf.counters import Counters
from repro.survey.image import Image

__all__ = ["ParallelRegionConfig", "conflict_radii", "optimize_region_parallel"]


def conflict_radii(
    images: list[Image], entries: list[CatalogEntry], config: JointConfig
) -> np.ndarray:
    """Conflict radius per source: the largest patch radius the optimizer
    will actually use for it on any image.

    Derived from the same rule (:func:`repro.core.joint.patch_radius_for`,
    including the ``patch_radius`` override) as the optimizer's patch bounds.
    Deriving them independently is how conflict radii silently diverge from
    patch bounds — with a custom ``patch_radius`` larger than the
    PSF-derived radius, "conflict-free" batches could touch overlapping
    pixels, breaking the serial-equivalence guarantee.
    """
    return np.array([
        max(
            patch_radius_for(e, im.meta.psf, config.patch_radius)
            for im in images
        )
        for e in entries
    ])


@dataclass
class ParallelRegionConfig:
    """Knobs for Cyclades-parallel region optimization.

    Every field declares its provenance class (:func:`repro.knobs.knob`);
    the checkpoint fingerprint is derived from the ``fingerprinted`` ones
    (:func:`repro.knobs.fingerprinted_values`).  The three analysis
    opt-ins are tri-state: ``None`` is off here, and asks the ``REPRO_*``
    variable of the same name when the config runs through the driver.
    """

    n_threads: int = knob(4, provenance="fingerprinted")
    n_passes: int = knob(2, provenance="fingerprinted")
    joint: JointConfig = knob(default_factory=JointConfig,
                              provenance="fingerprinted")
    #: Cyclades sampling batch size (sources drawn per conflict-free round);
    #: ``None`` uses the ``max(2 * n_threads, 8)`` rule.
    batch_size: int | None = knob(None, provenance="fingerprinted")
    seed: int = knob(0, provenance="fingerprinted")
    #: Lane limit of a lockstep ELBO evaluation batch: each thread's
    #: conflict-free assignment is cut into chunks of at most this many
    #: sources and each chunk is optimized through
    #: :meth:`repro.core.joint.RegionOptimizer.update_sources_batch`, so
    #: one stacked kernel sweep serves every still-active source in the
    #: chunk.  ``None``/``1`` is lane limit 1 through the same path.
    #: Results are bit-for-bit identical at any limit (batching is an
    #: execution strategy — tested, not assumed); the driver fills it
    #: from ``DriverConfig.elbo_batch_size`` / ``REPRO_ELBO_BATCH``.
    elbo_batch_size: int | None = knob(None, provenance="fingerprinted")
    #: Record every scheduled source's patch-pixel write extents into a
    #: shadow race detector (:mod:`repro.analysis.race`) and return any
    #: same-batch cross-thread overlaps in ``RegionResult.race_reports``;
    #: under the driver, also shadow every one-sided catalog access, with
    #: findings in ``DriverReport.race_reports``.  Observational only —
    #: results are bit-identical either way (``REPRO_RACE_DETECT``).
    race_detect: bool | None = knob(None, provenance="observational")
    #: Prove each pass's batches safe *before executing them* with the
    #: independent static verifier (:mod:`repro.analysis.schedule`),
    #: raising :class:`repro.analysis.schedule.ScheduleError` on any
    #: cross-thread pixel overlap or split component.  Observational only
    #: (``REPRO_VERIFY_SCHEDULE``).
    verify_schedule: bool | None = knob(None, provenance="observational")
    #: Install the runtime float sanitizer
    #: (:mod:`repro.analysis.numeric`) on every worker thread: ELBO
    #: evaluations and trust-region steps are checked for non-finite
    #: values, overflow, asymmetric Hessian blocks, and catastrophic
    #: cancellation, with findings returned in
    #: ``RegionResult.numeric_reports`` (``DriverReport.numeric_reports``
    #: under the driver).  Observational only — results are bit-identical
    #: either way (``REPRO_NUMERIC_CHECK``).
    numeric_check: bool | None = knob(None, provenance="observational")


def optimize_region_parallel(
    images: list[Image],
    entries: list[CatalogEntry],
    priors: Priors,
    config: ParallelRegionConfig | None = None,
    counters: Counters | None = None,
    frozen_entries: list[CatalogEntry] | None = None,
) -> RegionResult:
    """Jointly optimize a region's sources with Cyclades-scheduled threads.

    ``frozen_entries`` render as fixed background in the model images (see
    :class:`repro.core.joint.RegionOptimizer`); they take no part in the
    conflict graph because they are never written.
    """
    if config is None:
        config = ParallelRegionConfig()
    opt = RegionOptimizer(images, entries, priors, config.joint, counters,
                          frozen_entries)

    radii = conflict_radii(images, entries, config.joint)
    graph = build_conflict_graph(
        np.stack([e.position for e in entries]) if entries else np.zeros((0, 2)),
        radii,
    )
    rng = np.random.default_rng(config.seed)

    detector = _patch_boxes = None
    if config.race_detect or config.verify_schedule:
        _patch_boxes = _source_patch_boxes(opt)
    if config.race_detect:
        from repro.analysis.race import RaceDetector

        detector = RaceDetector()
    sanitizer = NumericSanitizer() if config.numeric_check else None
    lane_limit = max(1, config.elbo_batch_size or 1)

    with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
        for pass_idx in range(config.n_passes):
            batches = cyclades_batches(
                graph, config.n_threads, config.batch_size, rng=rng
            )
            if lane_limit > 1:
                batches = _coalesce_batches(batches, graph, config.n_threads)
            if config.verify_schedule:
                _verify_pass(_patch_boxes, batches)
            for batch_idx, batch in enumerate(batches):
                if detector is not None:
                    _shadow_batch_writes(detector, _patch_boxes, batch,
                                         ("pass", pass_idx,
                                          "batch", batch_idx))
                futures = [
                    pool.submit(_run_assignment, opt, assignment,
                                lane_limit, graph,
                                sanitizer, ("cyclades-thread", t))
                    for t, assignment in enumerate(batch.thread_assignments)
                    if assignment
                ]
                for f in futures:
                    f.result()  # barrier; re-raise worker exceptions

    with numeric_checking(sanitizer, ("region-total", 0)):
        elbo_total = opt.total_elbo()
    return RegionResult(  # det: ignore[KNOB302] -- observational findings ride the result container; they never feed evaluation
        catalog=opt.catalog(),
        results=list(opt.results),
        elbo_total=elbo_total,
        race_reports=list(detector.reports) if detector is not None else [],
        numeric_reports=sanitizer.reports if sanitizer is not None else [],
    )


def _source_patch_boxes(opt: RegionOptimizer) -> list[list]:
    """Per-source :class:`~repro.analysis.schedule.PatchBox` lists from the
    optimizer's *actual* (cropped, integer) patch bounds — the exact pixel
    extents ``update_source`` writes, fixed for the whole region run."""
    from repro.analysis.schedule import PatchBox

    boxes: list[list] = []
    for s in range(opt.n_sources):
        row = []
        for i, b in enumerate(opt.patch_bounds(s)):
            if b is None:
                continue
            x0, x1, y0, y1 = b
            row.append(PatchBox(image=i, x0=x0, x1=x1, y0=y0, y1=y1))
        boxes.append(row)
    return boxes


def _verify_pass(boxes: list[list], batches) -> None:
    """Statically prove a pass's batches safe before running any of them."""
    from repro.analysis.schedule import ScheduleError, verify_batches

    violations = verify_batches(
        boxes, [b.thread_assignments for b in batches]
    )
    if violations:
        raise ScheduleError(violations)


def _shadow_batch_writes(detector, boxes: list[list], batch,
                         epoch: tuple) -> None:
    """Record one batch's scheduled write extents into the race detector.

    Write sets are static (patch bounds never move during a region run), so
    they are recorded up front — detection covers the schedule itself and
    cannot miss a race just because this run's thread timing hid it.
    """
    from repro.analysis.race import ShadowAccess

    for t, assignment in enumerate(batch.thread_assignments):
        for s in assignment:
            for box in boxes[s]:
                detector.record(ShadowAccess(
                    window=("model", box.image), op="put",
                    x0=box.x0, x1=box.x1, y0=box.y0, y1=box.y1,
                    actor=("cyclades-thread", t), epoch=epoch,
                    tag=("source", s),
                ))
    # A finished batch's accesses can never race later ones (the batch
    # barrier is a synchronization point): free them.
    detector.seal_before(epoch)


def _batchable_runs(assignment: list[int], graph, limit: int) -> list[list[int]]:
    """Cut a thread assignment into chunks of pairwise *non-conflicting*
    sources, each at most ``limit`` long, by greedy list scheduling.

    An assignment is a union of conflict-graph connected components:
    sources from different components never overlap, but sources *within*
    a component can — that is exactly why Cyclades serializes them on one
    thread.  Each round scans the not-yet-scheduled sources in order and
    admits a source into the current chunk unless it conflicts with a
    chunk member, conflicts with an earlier source already deferred to a
    later round, or the chunk is full; everything else waits for the next
    round.

    Two sources may be *reordered* by this (a non-conflicting source jumps
    ahead of a deferred conflicting run) only when no conflict path orders
    them: they touch disjoint pixels and neither reads anything the other
    writes, so the executed schedule is serially equivalent to — and
    bit-for-bit matches — the one-by-one loop.  Conflicting pairs are
    never reordered: a source that conflicts with *anything* deferred is
    deferred too (the rest-scan below), preserving their relative order.
    Compared to the old flush-on-first-conflict cut, this packs the
    independent remainder of an assignment around each serialized
    conflict run instead of fragmenting on it — with cross-batch
    coalescing (:func:`_coalesce_batches`) it is what keeps lockstep
    lanes full on clustered catalogs.
    """
    runs: list[list[int]] = []
    remaining = list(assignment)
    while remaining:
        chunk: list[int] = []
        rest: list[int] = []
        for s in remaining:
            if len(chunk) < limit and not any(
                graph.conflicts(s, other) for other in chunk
            ) and not any(graph.conflicts(s, other) for other in rest):
                chunk.append(s)
            else:
                rest.append(s)
        runs.append(chunk)
        remaining = rest
    return runs


def _coalesce_batches(batches: list, graph, n_threads: int) -> list:
    """Merge consecutive Cyclades batches whose conflicts are co-threaded.

    A Cyclades batch barrier exists to order *conflicting* sources that
    landed in different rounds.  When every conflicting pair between a
    batch and the batches of the group accumulated so far sits on the
    same thread, the barrier is redundant: thread assignments execute in
    order, so intra-thread concatenation preserves exactly the orderings
    the barrier enforced, and every cross-thread pair in the merged batch
    is conflict-free (each round's own invariant plus the co-threading
    check).  The merged schedule is therefore serially equivalent to the
    barriered one — and bit-for-bit identical, since non-conflicting
    sources touch disjoint pixels.

    The payoff is lockstep occupancy: :func:`_batchable_runs` can only
    pack lanes within one thread assignment, and small Cyclades rounds
    (the sampling batch size bounds them) leave lanes empty at every
    barrier.  Coalescing hands it one long assignment per thread spanning
    several rounds — this is what "cross-assignment batching" means — and
    is gated on a lane limit above one (``elbo_batch_size > 1``), since
    one-lane runs gain nothing from longer assignments.

    The static schedule verifier and the shadow race detector run *after*
    coalescing, so they prove/watch the schedule that actually executes.
    """
    if len(batches) < 2:
        return list(batches)

    def thread_of(batch) -> dict:
        return {
            s: t
            for t, assignment in enumerate(batch.thread_assignments)
            for s in assignment
        }

    out: list = []
    group = [batches[0]]
    group_threads = thread_of(batches[0])

    def flush() -> None:
        if len(group) == 1:
            out.append(group[0])
            return
        merged = [
            [s for b in group for s in b.thread_assignments[t]]
            for t in range(n_threads)
        ]
        out.append(CycladesBatch(
            thread_assignments=merged,
            components=[c for b in group for c in b.components],
        ))

    for batch in batches[1:]:
        threads = thread_of(batch)
        compatible = all(
            t == other_t
            for s, t in threads.items()
            for other, other_t in group_threads.items()
            if graph.conflicts(s, other)
        )
        if compatible:
            group.append(batch)
            group_threads.update(threads)
        else:
            flush()
            group = [batch]
            group_threads = threads
    flush()
    return out


def _run_assignment(opt: RegionOptimizer, assignment: list[int],
                    lane_limit: int, graph, sanitizer=None,
                    actor: tuple = ("cyclades-thread", 0)) -> None:
    """One thread's Cyclades assignment.

    The assignment is cut into conflict-free runs of at most ``lane_limit``
    sources (:func:`_batchable_runs`) and each run is optimized as one
    lockstep batch (:meth:`RegionOptimizer.update_sources_batch`) —
    bit-for-bit equivalent to updating the sources one by one, just served
    by stacked evaluation sweeps.

    All of an assignment's sources run on one thread, so the fused ELBO
    backend's thread-local scratch buffers are reused across every Newton
    iteration of every source here; they are released when the assignment
    completes so idle pool threads hold no evaluation buffers.
    """
    try:
        with numeric_checking(sanitizer, actor):
            for run in _batchable_runs(assignment, graph, lane_limit):
                opt.update_sources_batch(run)
    finally:
        release_scratch()
