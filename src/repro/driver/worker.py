"""The worker side of the driver: what one task execution needs.

The seat body lives here — field access (:class:`_FieldStore`), task
execution (:func:`_execute_task`), the per-stage state a seat binds
(:class:`_WorkerState`) and the record it reports each task with
(:class:`TaskDone`) — apart from the driver side: the stage loop in
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
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.core.priors import Priors
from repro.driver.shards import ShardedCatalog
from repro.parallel import ParallelRegionConfig, optimize_region_parallel
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

    def images_for_region(self, region: Region, margin: float) -> list[Image]:
        self.ensure_metadata()
        out: list[Image] = []
        for i in self.field_indices_for_region(region, margin):
            out.extend(
                im for im in self.field(i)
                if _box_touches_region(im.sky_bounds(), region, margin)
            )
        return out

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


def _task_seed_config(config: TaskConfig, task: Task) -> ParallelRegionConfig:
    # Per-task deterministic seed: results must not depend on which worker
    # runs the task or in what order tasks complete.
    return replace(
        config.parallel,
        seed=config.parallel.seed + 7919 * task.task_id + task.stage,
    )


def _execute_task(
    task: Task,
    halo_idx: list[int],
    base: ShardedCatalog,
    working: ShardedCatalog,
    store: _FieldStore,
    priors: Priors,
    config: TaskConfig,
    counters: Counters,
):
    """Run one task against the sharded catalog; returns the region result,
    or ``None`` when the task had nothing to optimize.

    Reads own sources and halo rows one-sidedly from the stage-start
    snapshot (``base``), optimizes, puts result rows into the live
    ``working`` array.
    With ``halo_refresh`` the halo is instead re-read from ``working`` at
    every pass, and each pass's results are published immediately so
    neighboring tasks see them.
    """
    images = store.images_for_region(task.region, config.image_margin)
    entries = base.get_entries(task.source_indices)
    if not images or not entries:
        return None
    pconfig = _task_seed_config(config, task)
    if config.halo_refresh:
        result = None
        current = entries
        for p in range(pconfig.n_passes):
            halo = working.get_entries(halo_idx)
            sub = replace(pconfig, n_passes=1, seed=pconfig.seed + 104729 * p)
            result = optimize_region_parallel(
                images, current, priors, sub, counters, frozen_entries=halo,
            )
            current = list(result.catalog)
            working.put_entries(task.source_indices, current)
        return result
    halo = base.get_entries(halo_idx)
    result = optimize_region_parallel(
        images, entries, priors, pconfig, counters, frozen_entries=halo,
    )
    working.put_entries(task.source_indices, list(result.catalog))
    return result


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
    a process seat to the parent's windows as socket clients), and the
    shadow/recording instrumentation.  A seat
    ``in_process`` is handed the driver's own store and catalogs instead,
    and closes nothing.  ``epoch`` tags every record so the parent's
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

    def _maybe_die(self, task: Task) -> None:
        """Fault injection: hard-exit before reporting a task for which
        the run's scratch directory holds a ``kill.<task id>`` token.  Only
        a test plants one (through a ``WorkerPool.field_source`` of its
        own); unlinking it is the consumption, so the retry on a surviving
        worker completes."""
        if self.fault_dir is None:
            return
        try:
            os.unlink(os.path.join(self.fault_dir,
                                   "kill.%d" % int(task.task_id)))
        except FileNotFoundError:
            return
        os._exit(17)

    def execute(self, task: Task, halo_idx: list[int], hint: list[int],
                result_q, first_bind_at: float | None = None) -> None:
        """Run one task and report it with a :class:`TaskDone`."""
        config = self.config
        self.store.hint_fields(hint)
        counters = Counters()
        if self.base_shadow is not None:
            # Concurrently scheduled tasks of one stage share a logical
            # epoch: any same-epoch catalog overlap between tasks is a race.
            actor = ("task", task.task_id)
            epoch = ("stage", task.stage)
            self.base_shadow.set_task(actor, epoch)
            self.work_shadow.set_task(actor, epoch)
        t0 = time.perf_counter()
        result = _execute_task(
            task, halo_idx, self.base_view, self.work_view, self.store,
            self.priors, config, counters,
        )
        seconds = time.perf_counter() - t0
        self._maybe_die(task)
        comm = _comm_totals(self.base_rec, self.work_rec)
        prefetch = {} if self.in_process else self.store.prefetch_stats()
        result_q.put(TaskDone(
            epoch=self.epoch,
            worker=self.worker_id,
            task_id=task.task_id,
            executed=result is not None,
            elbo=result.elbo_total if result is not None else 0.0,
            seconds=seconds,
            counters=counters.snapshot(),
            comm=_dict_delta(comm, self.prev_comm),
            prefetch=_dict_delta(prefetch, self.prev_prefetch),
            race_reports=(list(result.race_reports)
                          if result is not None else []),
            accesses=(self.access_log.drain()
                      if self.access_log is not None else []),
            numeric_reports=(list(result.numeric_reports)
                             if result is not None else []),
            first_bind_at=first_bind_at,
        ))
        self.prev_comm, self.prev_prefetch = comm, prefetch

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
