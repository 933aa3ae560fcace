"""Conflict-free region optimization through one rolling lockstep.

Drives :class:`repro.core.joint.RegionOptimizer` through a seat's one
:class:`RegionLockstep`: each region's sources run in its Cyclades
schedule's serial order (pass by pass, round by round, thread by thread),
and a source is admitted into the lockstep as soon as every source it
conflicts with that comes before it in that order has folded back.
Sources of different regions never conflict, so one batched ELBO call
carries lanes of every region the seat holds.  Conflicting sources keep
their order, and non-conflicting ones touch disjoint pixels, so the
result is bit-for-bit that of running the schedule source by source —
which is tested, not assumed.  One region alone
(:func:`optimize_region_parallel`) is its one-run case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.analysis.numeric import (
    NumericSanitizer,
    numeric_checking,
    numeric_source,
)
from repro.core.catalog import CatalogEntry
from repro.core.elbo import release_scratch
from repro.core.joint import (
    ContributionStore,
    JointConfig,
    RegionOptimizer,
    RegionResult,
    patch_radius_for,
)
from repro.core.priors import Priors
from repro.core.single import SourceLockstep
from repro.knobs import knob
from repro.parallel.conflict import build_conflict_graph
from repro.parallel.cyclades import cyclades_batches
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

    #: Threads of the Cyclades schedule: the shape of each round's
    #: conflict-free assignment, hence of a region's serial order.  Only
    #: the schedule's shape — a seat runs every region on its one thread,
    #: in one lockstep.
    n_threads: int = knob(4, provenance="fingerprinted")
    n_passes: int = knob(2, provenance="fingerprinted")
    joint: JointConfig = knob(default_factory=JointConfig,
                              provenance="fingerprinted")
    #: Cyclades sampling batch size (sources drawn per conflict-free round);
    #: ``None`` uses the ``max(2 * n_threads, 8)`` rule.
    batch_size: int | None = knob(None, provenance="fingerprinted")
    seed: int = knob(0, provenance="fingerprinted")
    #: Lane limit of the lockstep: at most this many sources are in
    #: flight at once, so one batched ELBO call holds at most this many
    #: lanes.  ``None`` is :data:`DEFAULT_LANE_LIMIT`.  Results are
    #: bit-for-bit identical at any limit (batching is an execution
    #: strategy — tested, not assumed), hence ``neutral``; the driver
    #: fills it from ``DriverConfig.elbo_batch_size`` /
    #: ``REPRO_ELBO_BATCH``.
    elbo_batch_size: int | None = knob(None, provenance="neutral")
    #: Record every admitted source's patch-pixel write extents into a
    #: shadow race detector (:mod:`repro.analysis.race`) until it folds
    #: back, and return any overlap between sources in flight together
    #: in ``RegionResult.race_reports``;
    #: under the driver, also shadow every one-sided catalog access, with
    #: findings in ``DriverReport.race_reports``.  Observational only —
    #: results are bit-identical either way (``REPRO_RACE_DETECT``).
    race_detect: bool | None = knob(None, provenance="observational")
    #: Prove a region's conflict graph and each pass's batches safe
    #: *before executing them* with the independent static verifier
    #: (:mod:`repro.analysis.schedule`), raising
    #: :class:`repro.analysis.schedule.ScheduleError` on any pixel overlap
    #: without a conflict edge, cross-thread pixel overlap or split
    #: component.  Observational only
    #: (``REPRO_VERIFY_SCHEDULE``).
    verify_schedule: bool | None = knob(None, provenance="observational")
    #: Install the runtime float sanitizer
    #: (:mod:`repro.analysis.numeric`) on the lockstep's thread: ELBO
    #: evaluations and trust-region steps are checked for non-finite
    #: values, overflow, asymmetric Hessian blocks, and catastrophic
    #: cancellation, with findings returned in
    #: ``RegionResult.numeric_reports`` (``DriverReport.numeric_reports``
    #: under the driver).  Observational only — results are bit-identical
    #: either way (``REPRO_NUMERIC_CHECK``).
    numeric_check: bool | None = knob(None, provenance="observational")


#: Lane limit of a lockstep ELBO call when neither ``elbo_batch_size``
#: spelling nor ``REPRO_ELBO_BATCH`` sets one: the plateau of the kernel
#: bench's ``batch_sweep`` (``BENCH_elbo_backend.json``).
DEFAULT_LANE_LIMIT = 16


def lane_limit(elbo_batch_size: int | None) -> int:
    """The lane limit an ``elbo_batch_size`` setting runs at: ``None`` is
    :data:`DEFAULT_LANE_LIMIT`; below one is refused."""
    if elbo_batch_size is None:
        return DEFAULT_LANE_LIMIT
    if elbo_batch_size < 1:
        raise ValueError("elbo_batch_size must be a positive integer, got %r"
                         % (elbo_batch_size,))
    return elbo_batch_size


class RegionJob(NamedTuple):
    """One task's region in a seat's lockstep.

    Everything the region's optimizer and schedule own: its images (and
    their stable keys for a shared contribution store), its sources and
    frozen halo, its counter bag, and the seed of its Cyclades RNG."""

    images: list
    entries: list
    frozen_entries: list | None
    image_keys: list | None
    counters: Counters | None
    seed: int


#: An item of a region's serial order: not started, in the lockstep,
#: folded back.
_WAITING, _RUNNING, _DONE = 0, 1, 2


class RegionRun:
    """One region's run through a seat's lockstep: its optimizer, its
    conflict graph and every pass's Cyclades schedule, drawn (and, when
    asked, verified) up front from its job's seed.

    The schedule flattens to the region's serial order — pass by pass,
    round by round, thread by thread — and :meth:`ready` hands out the
    items whose conflicting predecessors in that order have all folded
    back (a source is its own predecessor across passes).  Conflicting
    pairs therefore run in schedule order, as Cyclades' round barriers
    and thread order would run them, with no barrier — and any pair the
    graph holds no edge for may share a call, whatever its rounds.  So
    the race detector shadows each item's writes from its admission to
    its fold-back, and the verifier checks the graph's edges as well as
    each round.
    """

    def __init__(self, job: RegionJob, priors: Priors,
                 config: ParallelRegionConfig,
                 contributions: ContributionStore | None = None):
        self.opt = RegionOptimizer(
            job.images, job.entries, priors, config.joint, job.counters,
            job.frozen_entries, contributions, job.image_keys)
        radii = conflict_radii(job.images, job.entries, config.joint)
        self.graph = build_conflict_graph(
            np.stack([e.position for e in job.entries]) if job.entries
            else np.zeros((0, 2)),
            radii,
        )
        rng = np.random.default_rng(job.seed)
        self._boxes = self._detector = None
        if config.race_detect or config.verify_schedule:
            self._boxes = _source_patch_boxes(self.opt)
        if config.race_detect:
            from repro.analysis.race import RaceDetector

            self._detector = RaceDetector()
        violations = []
        if config.verify_schedule:
            from repro.analysis.schedule import (
                ScheduleError,
                verify_batches,
                verify_conflict_edges,
            )

            violations += verify_conflict_edges(self._boxes,
                                                self.graph.adjacency)
        #: Source index of each item of the serial order, and, for the
        #: race detector, its slot (pass, round, thread) in the schedule.
        self.order: list[int] = []
        self._slots: list[tuple] = []
        for p in range(config.n_passes):
            rounds = [b.thread_assignments for b in cyclades_batches(
                self.graph, config.n_threads, config.batch_size, rng=rng)]
            if config.verify_schedule:
                violations += verify_batches(self._boxes, rounds)
            for r, assignments in enumerate(rounds):
                for t, assignment in enumerate(assignments):
                    self.order.extend(assignment)
                    if self._detector is not None:
                        self._slots.extend([(p, r, t)] * len(assignment))
        if violations:
            raise ScheduleError(violations)
        self._state = [_WAITING] * len(self.order)
        #: Every item before this one has folded back.
        self._first = 0

    @property
    def race_reports(self) -> list:
        return [] if self._detector is None else list(self._detector.reports)

    @property
    def done(self) -> bool:
        return self._first == len(self.order)

    def ready(self, room: int) -> list[int]:
        """Up to ``room`` items, in serial order, whose conflicting
        predecessors have all folded back; they are marked in flight."""
        out: list[int] = []
        blocked: set[int] = set()  # sources of earlier unfinished items
        adjacency = self.graph.adjacency
        for i in range(self._first, len(self.order)):
            if len(out) >= room:
                break
            state, s = self._state[i], self.order[i]
            if state == _DONE:
                continue
            if (state == _WAITING and s not in blocked
                    and blocked.isdisjoint(adjacency[s])):
                self._state[i] = _RUNNING
                out.append(i)
                if self._detector is not None:
                    self._shadow_writes(i)
            blocked.add(s)
        return out

    def _actor(self, item: int) -> tuple:
        p, r, t = self._slots[item]
        return ("cyclades-thread", t, "pass", p, "batch", r,
                "source", self.order[item])

    def _shadow_writes(self, item: int) -> None:
        """Record an admitted item's patch-pixel writes into the race
        detector, where they meet those of every item in flight with it
        (patch bounds are fixed for the whole run)."""
        from repro.analysis.race import ShadowAccess

        s = self.order[item]
        for box in self._boxes[s]:
            self._detector.record(ShadowAccess(
                window=("model", box.image), op="put",
                x0=box.x0, x1=box.x1, y0=box.y0, y1=box.y1,
                actor=self._actor(item), epoch=("lockstep",),
                tag=("source", s),
            ))

    def fold_back(self, item: int, result) -> None:
        """Publish an item's result into the region's model images."""
        self.opt.fold_back(self.order[item], result)
        if self._detector is not None:
            self._detector.retire(self._actor(item))
        self._state[item] = _DONE
        while not self.done and self._state[self._first] == _DONE:
            self._first += 1

    def result(self, numeric_reports: list | None = None) -> RegionResult:
        opt = self.opt
        return RegionResult(
            catalog=opt.catalog(),
            results=list(opt.results),
            elbo_total=opt.total_elbo(),
            race_reports=list(self.race_reports),
            numeric_reports=list(numeric_reports or []),
        )


class RegionLockstep:
    """A seat's one rolling lockstep over the region runs it holds.

    Each round admits, run by run in arrival order, every ready source
    (:meth:`RegionRun.ready`) that fits under the lane limit, evaluates
    every source in flight in one batched ELBO call
    (:class:`repro.core.single.SourceLockstep`), and folds each finished
    source back into its region at once — so the sources it held back
    are ready for the next round.  All of it runs on the caller's thread,
    under the numeric sanitizer when ``numeric_check`` is on.
    """

    def __init__(self, config: ParallelRegionConfig):
        self.lane_limit = lane_limit(config.elbo_batch_size)
        self.runs: list[RegionRun] = []
        self.sanitizer = (NumericSanitizer() if config.numeric_check
                          else None)
        self._solves = SourceLockstep(config.joint.single)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def add(self, run: RegionRun) -> None:
        """Hold ``run`` until it is done; a run with no sources is done
        at once and never held."""
        if not run.done:
            self.runs.append(run)

    def admit(self) -> int:
        """Admit ready sources up to the lane limit; returns the lanes
        still free."""
        room = self.lane_limit - len(self._solves)
        for run in self.runs:
            if room <= 0:
                break
            for item in run.ready(room):
                opt, s = run.opt, run.order[item]
                self._solves.admit(opt.source_context(s), opt.params[s],
                                   (run, item))
                room -= 1
        return room

    def step(self) -> list[RegionRun]:
        """One round over the sources in flight; returns the runs that
        finished in it, in arrival order."""
        if self.sanitizer is None:
            finished = self._solves.step()
        else:
            with numeric_checking(self.sanitizer, ("lockstep", 0)), \
                    numeric_source([run.order[item]
                                    for run, item in self._solves.tags]):
                finished = self._solves.step()
        for (run, item), result in finished:
            run.fold_back(item, result)
        done = [run for run in self.runs if run.done]
        if done:
            self.runs = [run for run in self.runs if not run.done]
        if not self._solves:
            release_scratch()
        return done

    def result(self, run: RegionRun) -> RegionResult:
        """A finished run's result, with the sanitizer's findings so far."""
        with numeric_checking(self.sanitizer, ("region-total", 0)):
            return run.result(self.sanitizer.reports
                              if self.sanitizer is not None else None)


def optimize_region_parallel(
    images: list[Image],
    entries: list[CatalogEntry],
    priors: Priors,
    config: ParallelRegionConfig | None = None,
    counters: Counters | None = None,
    frozen_entries: list[CatalogEntry] | None = None,
    contributions: ContributionStore | None = None,
    image_keys: list | None = None,
) -> RegionResult:
    """Jointly optimize a region's sources in its Cyclades schedule's
    order, through a lockstep of its own: the one-run case of
    :class:`RegionLockstep`.

    ``frozen_entries`` render as fixed background in the model images (see
    :class:`repro.core.joint.RegionOptimizer`); they take no part in the
    conflict graph because they are never written.  ``contributions`` and
    ``image_keys`` pass through to the optimizer's region setup.
    """
    if config is None:
        config = ParallelRegionConfig()
    lockstep = RegionLockstep(config)
    run = RegionRun(RegionJob(images, entries, frozen_entries, image_keys,
                              counters, config.seed),
                    priors, config, contributions)
    lockstep.add(run)
    try:
        while lockstep:
            lockstep.admit()
            lockstep.step()
    finally:
        release_scratch()
    return lockstep.result(run)


def _source_patch_boxes(opt: RegionOptimizer) -> dict:
    """:class:`~repro.analysis.schedule.PatchBox` lists keyed by source,
    from the optimizer's *actual* (cropped, integer) patch bounds — the
    exact pixel extents a source update writes, fixed for the whole run."""
    from repro.analysis.schedule import PatchBox

    return {
        s: [PatchBox(image=i, x0=b[0], x1=b[1], y0=b[2], y1=b[3])
            for i, b in enumerate(opt.patch_bounds(s)) if b is not None]
        for s in range(opt.n_sources)
    }
