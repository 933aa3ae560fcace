"""The stage loop: level two of the paper's scheme, once, whatever a
node-worker runs on (that is :mod:`repro.driver.pool`'s business)."""

from __future__ import annotations

import itertools
import queue as queue_mod
import shutil
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.driver.checkpoint import (
    append_task_record,
    entry_from_dict,
    entry_to_dict,
)
from repro.driver.pool import WorkerPool
from repro.driver.shards import ShardedCatalog
from repro.driver.worker import TaskConfig, TaskDone, _dict_delta, _FieldStore
from repro.parallel.executor import lane_limit
from repro.partition import Region, Task
from repro.perf.counters import Counters
from repro.perf.driver import DriverReport
from repro.sched import Dtree

if TYPE_CHECKING:
    from repro.driver.pipeline import DriverConfig

#: Unique per-stage epochs for seat result attribution: a collector
#: must never mistake a straggler message from an earlier (possibly
#: failed) stage for one of its own.
_STAGE_EPOCH = itertools.count(1)

#: Tasks peeked ahead per Dtree request to drive field prefetching.
PREFETCH_LOOKAHEAD = 4


@dataclass
class TaskOutcome:
    """Per-task execution record (diagnostics; not checkpointed)."""

    task_id: int
    stage: int
    worker: int
    n_sources: int
    elbo: float
    #: The task's own span on its seat: from the start of its region
    #: setup to its last source's fold-back.  Tasks sharing a seat's
    #: lockstep overlap, so spans do not sum to the seat's time.
    seconds: float


def _halo_indices(
    positions: np.ndarray, own: set, region: Region, margin: float
) -> list[int]:
    """Catalog indices inside the task's halo margin box, excluding its own
    sources.

    The box is closed on *both* sides: a neighbor sitting exactly on the
    far margin edge contributes its flux to border pixels just like one on
    the near edge, so a half-open upper bound would asymmetrically drop it.
    """
    if len(positions) == 0:
        return []
    x, y = positions[:, 0], positions[:, 1]
    mask = (
        (x >= region.x_min - margin) & (x <= region.x_max + margin)
        & (y >= region.y_min - margin) & (y <= region.y_max + margin)
    )
    return [int(j) for j in np.nonzero(mask)[0] if int(j) not in own]


def _task_config(config: DriverConfig) -> TaskConfig:
    """What task execution reads of the (pinned) driver config — the form
    in which it reaches :func:`_execute_task` and, pickled, the seats."""
    return TaskConfig(
        parallel=config.parallel,
        image_margin=config.image_margin,
        halo_refresh=config.halo_refresh,
    )


class StageRunner:
    """Node-workers as pool seats over pluggable PGAS windows.

    The parent keeps the Dtree and pumps batches to the pool's per-seat
    queues (one pump thread per seat); seats access the catalog
    one-sidedly through the configured transport and never see more of it
    than their tasks touch.  Seats come from the pool that
    :func:`~repro.driver.pipeline.run_pipeline` owns or was lent and are
    re-bound to this run's state at every stage.  A seat that dies
    mid-stage is recovered: its undispatched leaf pool is reclaimed
    into the Dtree, its in-flight tasks are re-dispatched to survivors,
    and the event is recorded in ``DriverReport.recoveries``.
    """

    def __init__(self, store, working, priors, config, counters,
                 pool: WorkerPool, fields: list, base_transport=None,
                 run_started: float = 0.0):
        self.store: _FieldStore = store
        self.working: ShardedCatalog = working
        self.priors = priors
        self.config: DriverConfig = config
        self.task_config = _task_config(config)
        self.counters: Counters = counters
        self.pool = pool
        self.outcomes: list[TaskOutcome] = []
        #: Task-granular checkpoint journal for the stage being run; set by
        #: the driver before each ``run`` when task checkpointing is on.
        self.journal_path: str | None = None
        # Baseline at runner creation (i.e. after seeding): the report's
        # prefetch hit/miss numbers cover the optimization stages only, so
        # seats on the driver's store and seats with stores of their own
        # measure the same thing.
        self._prefetch_applied: dict = dict(store.prefetch_stats())
        # One detector for the runner's lifetime (it spans stages); the
        # report only ever receives each finding once (_sync_race_reports).
        self.race_detector = None
        self._race_synced = 0
        if config.parallel.race_detect:
            from repro.analysis.race import RaceDetector

            self.race_detector = RaceDetector()
        # Same lifetime/watermark discipline for the numeric sanitizer: one
        # sink spanning stages, findings shipped to the report exactly once.
        self.numeric_sink = None
        self._numeric_shipped: set[tuple] = set()
        if config.parallel.numeric_check:
            from repro.analysis.numeric import NumericSanitizer

            self.numeric_sink = NumericSanitizer()
        #: ``time.time()`` at the start of the run, and the largest
        #: first-bind lag past it seen so far (spawn_bind_seconds).
        self._run_started = run_started
        self._spawn_bind = 0.0
        self._closed = False
        self._scratch_dir: str | None = None
        self.base = ShardedCatalog(working.n_rows, working.n_ranks,
                                   transport=base_transport)
        try:
            self._fields, self._scratch_dir = pool.field_source(fields, store)
        except BaseException:
            # Partial construction must not leak the snapshot's windows.
            self.close()
            raise

    def _sync_numeric_reports(self, report: DriverReport) -> None:
        """Append sanitizer findings made since the last sync to the report
        (checkpoint-resumed reports already carry earlier stages').  The
        sink's report list is sorted rather than arrival-ordered, so the
        additive guarantee uses the dedup key, not a count watermark."""
        if self.numeric_sink is None:
            return
        for r in self.numeric_sink.reports:
            d = r.as_dict()
            key = (d["kind"], d["stage"], d["term"], d["source"], d["lane"],
                   tuple(d["actor"]))
            if key in self._numeric_shipped:
                continue
            self._numeric_shipped.add(key)
            report.numeric_reports.append(d)

    def _sync_race_reports(self, report: DriverReport) -> None:
        """Append findings made since the last sync to the report.

        A checkpoint-resumed report already carries earlier stages'
        findings; the consumed-count watermark keeps this additive."""
        if self.race_detector is None:
            return
        found = self.race_detector.reports
        new = found[self._race_synced:]
        self._race_synced = len(found)
        report.race_reports.extend(r.as_dict() for r in new)

    def _lookahead_hint(self, dtree: Dtree, worker: int, batch: list[int],
                        tasks: list[Task]) -> list[int]:
        """Field indices the current batch plus the Dtree look-ahead will
        need — the prefetch hint."""
        config = self.config
        tids = list(batch) + dtree.peek(worker, PREFETCH_LOOKAHEAD)
        out: list[int] = []
        for tid in tids:
            for i in self.store.field_indices_for_region(
                tasks[tid].region, config.image_margin
            ):
                if i not in out:
                    out.append(i)
        return out

    @staticmethod
    def _apply_prefetch_stats(report: DriverReport, delta: dict) -> None:
        report.prefetch_hits += int(delta.get("prefetch_hits", 0))
        report.prefetch_misses += int(delta.get("prefetch_misses", 0))
        report.prefetch_seconds += float(delta.get("prefetch_seconds", 0.0))

    def _apply_replay(self, tasks: list[Task], replay, report: DriverReport,
                      stage_elbo: list) -> set:
        """Apply journaled task results to the working catalog and account
        for them; returns the replayed task ids.

        MUST run *after* the stage-start snapshot was taken: remaining
        tasks read their halos from the snapshot, which has to hold
        pre-stage values for bit parity with an uninterrupted run.
        Records that do not match a task of this stage (stale journal,
        corrupt tail) are ignored — those tasks simply re-execute.
        """
        if not replay:
            return set()
        by_id = {t.task_id: t for t in tasks}
        replayed: set[int] = set()
        for rec in replay:
            tid = rec.get("task_id")
            task = by_id.get(tid)
            if task is None or tid in replayed:
                continue
            indices = [int(i) for i in rec.get("indices", [])]
            rows = rec.get("rows", [])
            if indices != [int(i) for i in task.source_indices] \
                    or len(rows) != len(indices):
                continue
            self.working.put_entries(
                indices, [entry_from_dict(r) for r in rows])
            replayed.add(tid)
            elbo = float(rec.get("elbo", 0.0))
            stage_elbo[0] += elbo
            report.n_source_updates += (
                task.n_sources * self.config.parallel.n_passes
            )
            self.outcomes.append(TaskOutcome(
                task_id=tid, stage=task.stage, worker=-1,
                n_sources=task.n_sources, elbo=elbo, seconds=0.0,
            ))
        if replayed:
            report.recoveries.append({
                "kind": "task_replay",
                "stage": int(tasks[0].stage),
                "n_tasks": len(replayed),
            })
        return replayed

    def _journal_task(self, task: Task, elbo: float) -> None:
        """Durably record one completed task: its result rows are read
        back from the working catalog (safe — only this task writes them)
        whichever seat wrote them."""
        if self.journal_path is None:
            return
        rows = self.working.get_entries(task.source_indices)
        append_task_record(self.journal_path, {
            "task_id": int(task.task_id),
            "stage": int(task.stage),
            "n_sources": int(task.n_sources),
            "elbo": float(elbo),
            "indices": [int(i) for i in task.source_indices],
            "rows": [entry_to_dict(e) for e in rows],
        })

    def run(self, tasks: list[Task], report: DriverReport,
            replay=None) -> float:
        """Run every task in ``tasks``; returns the stage's total ELBO.
        ``replay`` holds journaled records of tasks a killed run already
        completed — applied instead of re-executed."""
        if not tasks:
            return 0.0
        config = self.config
        # Tasks read entries and halos from the stage-start snapshot, never
        # from live results of concurrent tasks: results must not depend on
        # task completion order (and a resumed run must reproduce them).
        # The snapshot is taken *before* replayed rows land in the working
        # catalog: a re-executed task whose halo contains a replayed source
        # must see its pre-stage value, exactly as the original run did.
        self.base.copy_rows_from(self.working)
        positions = self.base.positions()
        stage_elbo = [0.0]
        replayed = self._apply_replay(tasks, replay, report, stage_elbo)
        report.n_tasks += len(tasks)
        run_tasks = [t for t in tasks if t.task_id not in replayed]
        if not run_tasks:
            return stage_elbo[0]
        tasks = run_tasks
        task_by_id = {t.task_id: t for t in tasks}

        # Elastic sizing: never bind more seats than there are tasks, and
        # respawn/grow the pool to exactly what this stage needs.
        n = max(1, min(config.n_nodes, len(tasks)))
        self.pool.ensure(n)
        epoch = next(_STAGE_EPOCH)
        metadata = self.store.metadata()

        def bind(s: int) -> None:
            self.pool.send(s, (
                "bind", epoch, s, self._fields, metadata, self.priors,
                self.task_config, self.base, self.working,
                self._scratch_dir,
            ))

        for w in range(n):
            bind(w)

        dtree = Dtree(n, len(tasks), config.dtree)
        lanes = lane_limit(config.parallel.elbo_batch_size)
        #: Per seat, the sources of its tasks in flight: the seat asks for
        #: more work while these are below the lane limit.
        load = [0] * n
        conds = [threading.Condition() for _ in range(n)]
        #: Per-seat map of task_id -> ((task, halo_idx), hint) shipped but
        #: not yet reported done — what a dead seat's recovery re-dispatches.
        inflight: list[dict] = [{} for _ in range(n)]
        dead = [False] * n
        done_tids: set[int] = set()
        deaths = [0]
        active_pumps = [n]
        pump_lock = threading.Lock()
        sched_s = [0.0] * n
        task_s = [0.0] * n
        errors: list[BaseException] = []
        failed = threading.Event()

        def fail(exc: BaseException) -> None:
            errors.append(exc)
            failed.set()
            for w in range(n):
                with conds[w]:
                    conds[w].notify_all()

        def item_for(tid: int) -> tuple:
            task = tasks[tid]
            return task, _halo_indices(
                positions, set(task.source_indices), task.region,
                config.halo_margin)

        def dispatch(s: int, items: list[tuple], hint) -> None:
            """Ship ``(task, halo indices)`` items to seat ``s`` as one
            grant message; each task stays in flight until reported."""
            with conds[s]:
                for item in items:
                    inflight[s][item[0].task_id] = (item, hint)
                    load[s] += item[0].n_sources
            self.pool.send(s, ("grant", items, hint))

        def survivors_or_respawn(exclude: int | None = None) -> list[int]:
            """Live, usable seats — respawning dead ones (and re-binding
            them to this stage's state) when none survive, so a run on one
            node-worker can outlive that worker's death."""
            alive = [s for s in range(n)
                     if s != exclude and not dead[s] and self.pool.alive(s)]
            if alive:
                return alive
            for s in self.pool.ensure(n):
                dead[s] = False
                bind(s)
            return [s for s in range(n)
                    if not dead[s] and self.pool.alive(s)]

        def recover(w: int) -> None:
            """Seat ``w`` died: reclaim its undispatched work and
            re-dispatch its in-flight tasks to surviving seats (safe —
            a task that half-ran before the crash never reported done, so
            re-executing it against the immutable stage snapshot writes
            the same rows it would have)."""
            deaths[0] += 1
            if deaths[0] > max(2 * n, 4):
                fail(RuntimeError(
                    "node-workers keep dying (%d deaths this stage); "
                    "giving up" % deaths[0]
                ))
                return
            dead[w] = True
            with conds[w]:
                items = list(inflight[w].items())
                inflight[w].clear()
                load[w] = 0
                conds[w].notify_all()
            dtree.reclaim(w)
            report.recoveries.append({
                "kind": "worker_death",
                "stage": int(tasks[0].stage),
                "worker": int(w),
                "retried": sorted(tid for tid, _ in items),
            })
            survivors = survivors_or_respawn(exclude=w)
            if not survivors:
                fail(RuntimeError(
                    "node-worker %d died and no node-workers survive to "
                    "take over its %d in-flight tasks" % (w, len(items))
                ))
                return
            regrants: dict[int, tuple[list, list]] = {}
            for i, (item, hint) in enumerate(v for _, v in items):
                grant, fields = regrants.setdefault(
                    survivors[i % len(survivors)], ([], []))
                grant.append(item)
                fields.extend(f for f in hint if f not in fields)
            for s, (grant, fields) in regrants.items():
                dispatch(s, grant, fields)

        def drain_stranded() -> None:
            """Every pump exited and nothing is in flight, yet tasks
            remain: work reclaimed from a dead seat landed at the Dtree
            root *after* the surviving pumps saw an empty tree and
            returned.  Dispatch it directly, round-robin."""
            survivors = survivors_or_respawn()
            if not survivors:
                fail(RuntimeError(
                    "all node-workers died with %d tasks unfinished"
                    % (len(tasks) - len(done_tids))
                ))
                return
            i = 0
            while True:
                batch = dtree.request(survivors[0],
                                      max_batch=config.max_batch)
                if not batch:
                    return
                hint = self._lookahead_hint(
                    dtree, survivors[0], batch, tasks)
                dispatch(survivors[i % len(survivors)],
                         [item_for(tid) for tid in batch], hint)
                i += 1

        def collect() -> None:
            total = len(tasks)
            while len(done_tids) < total and not failed.is_set():
                try:
                    msg = self.pool.result_q.get(timeout=0.2)
                except queue_mod.Empty:
                    for w in range(n):
                        if (not dead[w] and inflight[w]
                                and not self.pool.alive(w)):
                            recover(w)
                    if (not failed.is_set() and active_pumps[0] == 0
                            and not any(inflight)):
                        drain_stranded()
                    continue
                if not isinstance(msg, TaskDone):
                    _, w, msg_epoch, tb = msg
                    if msg_epoch == epoch:
                        fail(RuntimeError(
                            "node-worker %d failed:\n%s" % (w, tb)
                        ))
                        return
                    continue  # pragma: no cover - stale straggler
                if msg.epoch != epoch:
                    # Straggler from an earlier bind (e.g. a stage that
                    # failed with results unconsumed): not this stage's.
                    continue
                if msg.first_bind_at is not None:
                    # A seat's first result ever: how long after the run
                    # started it stood bound.  The row is the latest seat
                    # (a warm seat ships no stamp and adds nothing).
                    lag = msg.first_bind_at - self._run_started
                    if lag > self._spawn_bind:
                        report.spawn_bind_seconds += lag - self._spawn_bind
                        self._spawn_bind = lag
                w = msg.worker
                first = msg.task_id not in done_tids
                done_tids.add(msg.task_id)
                with conds[w]:
                    if inflight[w].pop(msg.task_id, None) is not None:
                        load[w] -= task_by_id[msg.task_id].n_sources
                    conds[w].notify_all()
                if not first:
                    # A re-dispatched task whose first execution reported
                    # after all: identical result (deterministic against
                    # the same snapshot), already accounted — drop it.
                    continue
                if self.race_detector is not None:
                    self.race_detector.absorb(msg.race_reports)
                    self.race_detector.ingest(msg.accesses)
                if self.numeric_sink is not None:
                    self.numeric_sink.absorb(msg.numeric_reports)
                self.counters.add_many(msg.counters)
                report.add_worker_comm(w, **msg.comm)
                self._apply_prefetch_stats(report, msg.prefetch)
                task_s[w] += msg.busy
                if msg.executed:
                    task = task_by_id[msg.task_id]
                    stage_elbo[0] += msg.elbo
                    report.n_source_updates += (
                        task.n_sources * config.parallel.n_passes
                    )
                    self.outcomes.append(TaskOutcome(
                        task_id=task.task_id, stage=task.stage, worker=w,
                        n_sources=task.n_sources, elbo=msg.elbo,
                        seconds=msg.seconds,
                    ))
                    try:
                        self._journal_task(task, msg.elbo)
                    except BaseException as exc:  # noqa: BLE001
                        fail(exc)
                        return

        def pump(w: int) -> None:
            try:
                while not failed.is_set() and not dead[w]:
                    # Ask whenever the seat's lockstep has lanes its tasks
                    # in flight cannot fill, not when they are all done:
                    # the seat takes the grant at its next round, and the
                    # Dtree's load balancing still sees completion times.
                    with conds[w]:
                        while (load[w] >= lanes and not failed.is_set()
                               and not dead[w]):
                            conds[w].wait(timeout=0.5)
                    if failed.is_set() or dead[w]:
                        return
                    t0 = time.perf_counter()
                    batch = dtree.request(w, max_batch=config.max_batch)
                    sched_s[w] += time.perf_counter() - t0
                    if not batch:
                        return
                    if failed.is_set() or dead[w]:
                        return
                    dispatch(w, [item_for(tid) for tid in batch],
                             self._lookahead_hint(dtree, w, batch, tasks))
            except BaseException as exc:  # noqa: BLE001
                fail(exc)
            finally:
                with pump_lock:
                    active_pumps[0] -= 1

        collector = threading.Thread(target=collect, name="repro-collect",
                                     daemon=True)
        pumps = [
            threading.Thread(target=pump, args=(w,),
                             name="repro-pump-%d" % w, daemon=True)
            for w in range(n)
        ]
        t_start = time.perf_counter()
        collector.start()
        for t in pumps:
            t.start()
        for t in pumps:
            t.join()
        collector.join()
        if errors:
            raise errors[0]
        report.wall_seconds += time.perf_counter() - t_start
        report.sched_seconds += sum(sched_s)
        report.task_seconds += sum(task_s)
        report.messages += dtree.stats["messages"]
        report.hops += dtree.stats["hops"]
        # The driver's own store, for seats bound to it (seats with a
        # store of their own ship its deltas in their records).
        stats = self.store.prefetch_stats()
        self._apply_prefetch_stats(
            report, _dict_delta(stats, self._prefetch_applied))
        self._prefetch_applied = stats
        self._sync_race_reports(report)
        self._sync_numeric_reports(report)
        return stage_elbo[0]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Hand the pool back with its seats unbound so they stop pinning
        # the catalog windows unlinked below (a private pool was already
        # closed by run_pipeline, and has no seat left to tell).
        self.pool.release()
        transport = self.base.array.transport
        if hasattr(transport, "unlink"):
            transport.unlink()
        if self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)
