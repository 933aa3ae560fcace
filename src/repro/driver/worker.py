"""The worker side of the driver: what running Dtree grants needs.

The seat body lives here — field access (:class:`_FieldStore`), task
execution (:class:`_TaskRun` through the seat's one
:class:`~repro.parallel.executor.RegionLockstep`), the per-stage state a
seat binds (:class:`_WorkerState`) and the record it reports each task
with (:class:`TaskDone`) — apart from the driver side: the stage loop in
:mod:`repro.driver.stage` and config resolution, seeding and the entry
point in :mod:`repro.driver.pipeline`.  The split is an import boundary:
a spawned seat imports this module
(:func:`repro.driver.pool._pool_worker_main`) and never the driver side,
so it loads neither the seed stage
(:mod:`repro.photo`) nor SciPy.  The rule, pinned by
``tests/test_driver.py::TestSeatImportGraph``: **nothing this module
imports, or runs for a task, may import SciPy**; optional heavy
dependencies are imported where they are used (``docs/scaling.md``, "Fixed cost of a process run").
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.core.joint import ContributionStore
from repro.core.priors import Priors
from repro.driver.shards import ShardedCatalog
from repro.parallel import ParallelRegionConfig
from repro.parallel.executor import RegionJob, RegionLockstep, RegionRun
from repro.partition import Region, Task
from repro.perf.counters import Counters
from repro.survey.image import Image
from repro.survey.io import FieldPrefetcher, field_metadata


@dataclass(frozen=True)
class TaskConfig:
    """The part of a run's ``DriverConfig`` that task execution reads.

    Seats are bound with this instead of the ``DriverConfig`` itself:
    unpickling that class imports :mod:`repro.driver.pipeline`, and with
    it the whole driver side, into every seat.
    """

    parallel: ParallelRegionConfig
    image_margin: float
    halo_refresh: bool


# ---------------------------------------------------------------------------
# Geometry helpers


def _bounds_region(boxes: list[tuple]) -> Region:
    eps = 1e-6  # upper edges are half-open; keep boundary sources inside
    return Region(
        min(b[0] for b in boxes), max(b[1] for b in boxes) + eps,
        min(b[2] for b in boxes), max(b[3] for b in boxes) + eps,
    )


def _box_touches_region(box: tuple, region: Region, margin: float) -> bool:
    x0, x1, y0, y1 = box
    return (
        region.x_min < x1 + margin
        and region.x_max > x0 - margin
        and region.y_min < y1 + margin
        and region.y_max > y0 - margin
    )


# ---------------------------------------------------------------------------
# Field access: in-memory lists or on-disk files behind a prefetch thread


class _FieldStore:
    """Uniform access to a survey's fields, in-memory or on disk.

    Each element of ``fields`` is either a ``list[Image]`` (held as given)
    or a path to a ``.npz`` field file, loaded on demand through a
    :class:`FieldPrefetcher` so Dtree look-ahead hints overlap I/O with
    optimization.  Image footprints and shapes are cached as metadata on
    first load (and can be injected, so process workers skip the metadata
    pass the parent already did).
    """

    def __init__(self, fields: list, metadata=None):
        if not fields:
            raise ValueError("need at least one field")
        self._specs = list(fields)
        self._paths = [f if isinstance(f, str) else None for f in fields]
        self._prefetcher = (
            FieldPrefetcher()
            if any(p is not None for p in self._paths) else None
        )
        #: Per field: list of per-image (sky_bounds, (h, w), band) triples.
        self._meta: list[list[tuple] | None] = [None] * len(fields)
        if metadata is not None:
            self._meta = [list(m) if m is not None else None for m in metadata]

    @property
    def n_fields(self) -> int:
        return len(self._specs)

    def field(self, i: int) -> list[Image]:
        spec = self._specs[i]
        if self._paths[i] is None:
            images = spec
        else:
            images = self._prefetcher.get(self._paths[i])
        if self._meta[i] is None:
            self._meta[i] = [
                (im.sky_bounds(), (im.height, im.width), im.band)
                for im in images
            ]
        return images

    def ensure_metadata(self) -> None:
        for i in range(self.n_fields):
            if self._meta[i] is None:
                if self._paths[i] is not None:
                    # Header-only peek: footprints and shapes without
                    # reading pixel data (the fingerprint/partition pass
                    # must not cost a full survey read).
                    self._meta[i] = field_metadata(self._paths[i])
                else:
                    self.field(i)

    def metadata(self) -> list:
        self.ensure_metadata()
        return [list(m) for m in self._meta]

    def field_shapes(self) -> list[list[int]]:
        self.ensure_metadata()
        return [[h, w] for m in self._meta for (_, (h, w), _) in m]

    def bounds(self) -> Region:
        self.ensure_metadata()
        return _bounds_region([b for m in self._meta for (b, _, _) in m])

    def field_indices_for_region(self, region: Region, margin: float) -> list[int]:
        """Fields with at least one image touching the region (metadata
        only — never triggers a load; used to build prefetch hints)."""
        self.ensure_metadata()
        return [
            i for i, m in enumerate(self._meta)
            if any(_box_touches_region(b, region, margin) for (b, _, _) in m)
        ]

    def region_images(self, region: Region,
                      margin: float) -> tuple[list[Image], list[tuple]]:
        """The images touching the region (with margin), and for each its
        stable key ``(field index, position in the field)`` — the same
        image whether or not its field was evicted and reloaded since."""
        self.ensure_metadata()
        images: list[Image] = []
        keys: list[tuple] = []
        for i in self.field_indices_for_region(region, margin):
            for j, im in enumerate(self.field(i)):
                if _box_touches_region(im.sky_bounds(), region, margin):
                    images.append(im)
                    keys.append((i, j))
        return images, keys

    def hint_fields(self, indices) -> None:
        if self._prefetcher is None:
            return
        paths = [self._paths[i] for i in indices if self._paths[i] is not None]
        if paths:
            self._prefetcher.hint(paths)

    def prefetch_stats(self) -> dict:
        if self._prefetcher is None:
            return {"prefetch_hits": 0, "prefetch_misses": 0,
                    "prefetched": 0, "prefetch_seconds": 0.0}
        return self._prefetcher.stats()

    def close(self) -> None:
        if self._prefetcher is not None:
            self._prefetcher.close()


# ---------------------------------------------------------------------------
# Task execution


def _task_seed(config: ParallelRegionConfig, task: Task) -> int:
    # Per-task deterministic seed: results must not depend on which worker
    # runs the task, in what order tasks complete, or what shares its grant.
    return config.seed + 7919 * task.task_id + task.stage


class _TaskRun:
    """One task on a seat: its region runs, its counter bag and its span.

    The task reads its own sources and halo rows one-sidedly from the
    stage-start snapshot (``base``) and puts its result rows into the
    live ``working`` array, so no task of a stage sees another's results.
    With ``halo_refresh`` the halo is instead re-read from ``working`` at
    every pass and each pass's results are published at once, so tasks
    read each other's rows: a seat then runs one task at a time, in
    arrival order (:attr:`_WorkerState.busy`).  Each pass is then a
    region run of its own, seeded per pass.
    """

    def __init__(self, task: Task, halo: list[int]):
        self.task = task
        self.halo = halo
        self.counters = Counters()
        self.job: RegionJob | None = None
        self.result = None
        self.pass_idx = 0
        #: ``time.perf_counter()`` at the start of the task's region setup
        #: and at its last fold-back.
        self.started = self.finished = 0.0
        self.done = False

    def start(self, state: "_WorkerState") -> RegionRun | None:
        """Set up the task's first region run; ``None`` when the task has
        nothing to optimize."""
        self.started = time.perf_counter()
        task, config = self.task, state.config
        images, image_keys = state.store.region_images(task.region,
                                                       config.image_margin)
        state._enter_task(task)
        entries = state.base_view.get_entries(task.source_indices)
        if not images or not entries:
            return None
        self.job = RegionJob(images, entries, None, image_keys,
                             self.counters,
                             _task_seed(config.parallel, task))
        return self._run(state)

    def _run(self, state: "_WorkerState") -> RegionRun:
        """The region run of the task's next pass (of all its passes,
        without ``halo_refresh``), with the halo read now."""
        pconfig = state.config.parallel
        halo_from, run_config = state.base_view, pconfig
        if state.config.halo_refresh:
            halo_from = state.work_view
            run_config = replace(pconfig, n_passes=1)
        state._enter_task(self.task)
        job = self.job._replace(
            frozen_entries=halo_from.get_entries(self.halo),
            seed=_task_seed(pconfig, self.task) + 104729 * self.pass_idx)
        return RegionRun(job, state.priors, run_config, state.contributions)

    def finish_run(self, state: "_WorkerState", run: RegionRun
                   ) -> RegionRun | None:
        """Publish a finished run's rows; returns the next pass's run
        under ``halo_refresh``, else ``None`` (the task is done)."""
        self.result = state.lockstep.result(run)
        entries = list(self.result.catalog)
        state._enter_task(self.task)
        state.work_view.put_entries(self.task.source_indices, entries)
        self.pass_idx += 1
        if (state.config.halo_refresh
                and self.pass_idx < state.config.parallel.n_passes):
            self.job = self.job._replace(entries=entries)
            return self._run(state)
        return None


def _comm_totals(*recorders) -> dict:
    return {
        "rma_gets": sum(r.stats.n_get for r in recorders),
        "rma_puts": sum(r.stats.n_put for r in recorders),
        "rma_bytes": sum(r.stats.total_bytes for r in recorders),
        "rma_remote": sum(r.stats.remote_fraction_ops for r in recorders),
    }


def _dict_delta(current: dict, previous: dict) -> dict:
    return {k: v - previous.get(k, 0) for k, v in current.items()}


# ---------------------------------------------------------------------------
# A seat's bound state, and what it reports


class TaskDone(NamedTuple):
    """What a seat reports for every task it ran, whatever it runs on;
    the fields are documented with the seat protocol
    (:mod:`repro.driver.pool`)."""

    epoch: int
    worker: int
    task_id: int
    executed: bool
    elbo: float
    seconds: float
    busy: float
    counters: dict
    comm: dict
    prefetch: dict
    race_reports: list
    accesses: list
    numeric_reports: list
    first_bind_at: float | None


class _WorkerState:
    """Execution state a pool seat binds for one stage of one run.

    Built by the seat from a ``("bind", ...)`` message
    (:mod:`repro.driver.pool`): the field store, the one-sided views onto
    the snapshot and working catalogs (whose pickled transports attached
    a process seat to the parent's windows as socket clients), the
    shadow/recording instrumentation, and the stage's
    :class:`~repro.core.joint.ContributionStore`: the snapshot renders
    every task this seat runs in the stage shares, dropped with the bind.
    A seat ``in_process`` is handed the driver's own store and catalogs
    instead, and closes nothing.  ``epoch`` tags every record so the parent's
    collector can discard stragglers from an earlier bind.
    """

    def __init__(self, epoch: int, worker_id: int, fields,
                 metadata: list, priors: Priors, config: TaskConfig,
                 base: ShardedCatalog, working: ShardedCatalog,
                 fault_dir: str | None = None, in_process: bool = False):
        self.epoch = epoch
        self.worker_id = worker_id
        self.priors = priors
        self.config = config
        self.fault_dir = fault_dir
        self.in_process = in_process
        self._catalogs = (base, working)
        self.store = fields if in_process else _FieldStore(
            fields, metadata=metadata)
        self.access_log = self.base_shadow = self.work_shadow = None
        if config.parallel.race_detect:
            # A seat cannot see the parent's detector: record into a
            # local log, ship the (picklable) accesses with each record,
            # and let the parent's detector cross-check between seats.
            from repro.analysis.race import AccessLog

            self.access_log = AccessLog()
            self.base_view, self.base_rec, self.base_shadow = \
                base.shadow_view(worker_id, self.access_log, "cat-base")
            self.work_view, self.work_rec, self.work_shadow = \
                working.shadow_view(worker_id, self.access_log, "cat-work")
        else:
            self.base_view, self.base_rec = base.recording_view(worker_id)
            self.work_view, self.work_rec = working.recording_view(worker_id)
        self.prev_comm: dict = {}
        self.prev_prefetch: dict = {}
        self.contributions = ContributionStore()
        #: The seat's one lockstep, and the tasks it holds: queued in
        #: arrival order, and running (keyed by their current region run).
        self.lockstep = RegionLockstep(config.parallel)
        self._queued: deque[_TaskRun] = deque()
        #: Every task not yet reported, in arrival order.
        self._held: deque[_TaskRun] = deque()
        self._running: dict[RegionRun, _TaskRun] = {}
        self._first_bind_at: float | None = None
        self._busy = 0.0
        self._lap_start = time.perf_counter()

    def _maybe_die(self, task: Task, result_q) -> None:
        """Fault injection: hard-exit before reporting a task for which
        the run's scratch directory holds a ``kill.<task id>`` token.  Only
        a test plants one (through a ``WorkerPool.field_source`` of its
        own); unlinking it is the consumption, so the retry on a surviving
        worker completes.  The records already put are flushed first: a
        process that exits while its queue's feeder thread is mid-write
        leaves the queue's shared write lock held, and every other seat's
        next report would block on it forever."""
        if self.fault_dir is None:
            return
        try:
            os.unlink(os.path.join(self.fault_dir,
                                   "kill.%d" % int(task.task_id)))
        except FileNotFoundError:
            return
        result_q.close()
        result_q.join_thread()
        os._exit(17)

    def _enter_task(self, task: Task) -> None:
        """Attribute the catalog accesses that follow to ``task``.

        Concurrently scheduled tasks of one stage share a logical epoch:
        any same-epoch catalog overlap between tasks is a race."""
        if self.base_shadow is not None:
            actor, epoch = ("task", task.task_id), ("stage", task.stage)
            self.base_shadow.set_task(actor, epoch)
            self.work_shadow.set_task(actor, epoch)

    @property
    def busy(self) -> bool:
        """Whether the seat holds tasks it has not yet reported."""
        return bool(self._held)

    def take(self, items: list[tuple], hint: list[int],
             first_bind_at: float | None = None) -> None:
        """Queue a grant — ``items`` holds ``(task, halo indices)`` pairs —
        behind the tasks the seat already holds; :meth:`step` starts them.
        ``first_bind_at`` rides on the seat's next record."""
        self.store.hint_fields(hint)
        runs = [_TaskRun(task, halo) for task, halo in items]
        self._queued.extend(runs)
        self._held.extend(runs)
        if first_bind_at is not None:
            self._first_bind_at = first_bind_at

    def step(self, result_q) -> None:
        """One round of the seat's lockstep, reporting every task whose
        last source folded back in it.

        Tasks start in arrival order whenever the lockstep has a free lane
        that the tasks already started cannot fill (under
        ``halo_refresh``, only when no task is running)."""
        self._lap_start = time.perf_counter()
        room = self.lockstep.admit()
        while room > 0 and self._queued and not (
                self.config.halo_refresh and self._running):
            task_run = self._queued.popleft()
            run = task_run.start(self)
            if run is None:
                self._done(task_run, result_q)
                continue
            self._running[run] = task_run
            self.lockstep.add(run)
            if run.done:
                self._finished(run, result_q)
            room = self.lockstep.admit()
        for run in self.lockstep.step():
            self._finished(run, result_q)
        self._busy += time.perf_counter() - self._lap_start

    def _finished(self, run: RegionRun, result_q) -> None:
        task_run = self._running.pop(run)
        after = task_run.finish_run(self, run)
        if after is None:
            self._done(task_run, result_q)
        else:
            self._running[after] = task_run
            self.lockstep.add(after)
            if after.done:
                self._finished(after, result_q)

    def _done(self, task_run: _TaskRun, result_q) -> None:
        """Report every finished task that no earlier-arrived task is
        still ahead of: records leave in arrival order, so a seat that
        dies has reported a prefix of what it was given."""
        task_run.done = True
        task_run.finished = time.perf_counter()
        while self._held and self._held[0].done:
            self._report(self._held.popleft(), result_q)

    def _report(self, task_run: _TaskRun, result_q) -> None:
        """Put the task's :class:`TaskDone`.  ``seconds`` is its own span,
        from the start of its region setup to its last fold-back; ``busy``
        the seat's working time since its previous record.  The seat's
        RMA, prefetch and access-log deltas ride along."""
        task, result = task_run.task, task_run.result
        now = time.perf_counter()
        self._maybe_die(task, result_q)
        comm = _comm_totals(self.base_rec, self.work_rec)
        prefetch = {} if self.in_process else self.store.prefetch_stats()
        result_q.put(TaskDone(
            epoch=self.epoch,
            worker=self.worker_id,
            task_id=task.task_id,
            executed=result is not None,
            elbo=result.elbo_total if result is not None else 0.0,
            seconds=task_run.finished - task_run.started,
            busy=self._busy + now - self._lap_start,
            counters=task_run.counters.snapshot(),
            comm=_dict_delta(comm, self.prev_comm),
            prefetch=_dict_delta(prefetch, self.prev_prefetch),
            race_reports=(list(result.race_reports)
                          if result is not None else []),
            accesses=(self.access_log.drain()
                      if self.access_log is not None else []),
            numeric_reports=(list(result.numeric_reports)
                             if result is not None else []),
            first_bind_at=self._first_bind_at,
        ))
        self.prev_comm, self.prev_prefetch = comm, prefetch
        self._first_bind_at = None
        self._busy, self._lap_start = 0.0, now

    def close(self) -> None:
        if self.in_process:
            return
        # Join the prefetcher thread and drop its cache (daemon threads
        # die abruptly otherwise, and an error path should not strand a
        # mid-flight field load), then detach the catalog windows so a
        # released seat stops pinning segments the parent will unlink.
        self.store.close()
        for catalog in self._catalogs:
            transport = catalog.array.transport
            if hasattr(transport, "close"):
                transport.close()
