"""An elastic, persistent pool of node-worker seats.

A *seat* is one node-worker: a bind / grant / release loop
(:func:`_pool_worker_main`) fed by a FIFO task queue and reporting on one
shared result queue, driven the same way by the one stage loop
(:mod:`repro.driver.stage`) whatever it runs on.  What it runs on is
decided once, by which pool is created.  A :class:`WorkerPool` seat is a
``multiprocessing`` process: spawning it costs real wall clock, so seats
persist across stages and pipeline runs and are bound to a run's state
in-band; it holds only what a bind ships (field *paths*, pickled window
attachments); it can die, and :meth:`~WorkerPool.ensure` respawns it (the
scheduler-side half of recovery, re-dispatching its tasks, is the stage
loop's).  An :class:`InProcessPool` seat is a thread of the calling
process bound to the caller's own field store and catalogs: nothing is
spilled, attached or its to close, and it cannot die short of the run.
Both pools grow on demand (:meth:`~WorkerPool.ensure`) and shrink
explicitly (:meth:`~WorkerPool.shrink`).

The seat protocol (per-seat FIFO task queue, one shared result queue):

``("bind", epoch, worker_id, fields, metadata, priors, task_config, base,
working, fault_dir)``
    (Re)build the seat's execution state for one stage.  ``epoch`` is a
    parent-chosen integer echoed in everything the seat reports, so a
    collector never misattributes a straggler from an earlier stage (e.g.
    after a mid-stage failure left unconsumed results behind).  ``fields``
    and ``fault_dir`` come from :meth:`~WorkerPool.field_source`.  The
    message carries a :class:`~repro.driver.worker.TaskConfig`, never the
    ``DriverConfig``: a seat imports :mod:`repro.driver.worker` and
    nothing of the driver side.

``("grant", items, field_hint)``
    One Dtree grant for the bound state: ``items`` is a list of
    ``(task, halo_indices)`` pairs.  The seat takes it at its next round
    boundary, without waiting for the tasks it already holds, and runs
    every task it holds in its one lockstep (their ELBO calls carry lanes
    of every task; with ``halo_refresh`` the tasks run one after another,
    in arrival order).  Each task is reported with a
    :class:`~repro.driver.worker.TaskDone` as soon as its last source
    folds back.  FIFO ordering per seat makes bind acknowledgements
    unnecessary: a grant enqueued after a bind runs under that bind.

``("release",)``
    Drop the bound state (close field prefetchers, detach catalog
    windows) but keep the seat alive for the next bind.

``None``
    Shut the seat down.

What a seat puts on the result queue:

:class:`~repro.driver.worker.TaskDone`
    One per task.  ``epoch``, ``worker`` and ``task_id`` say whose it is;
    ``executed`` is False when the task had nothing to optimize, else its
    sources were fit to a total ``elbo``.  ``seconds`` is the task's own
    span, from the start of its region setup to its last fold-back;
    ``busy`` is the seat's working time since its previous record (what
    ``DriverReport.task_seconds`` sums: spans of tasks sharing a lockstep
    overlap).  ``counters`` is the task's own
    :class:`~repro.perf.counters.Counters` snapshot (a batched call's
    shape counters land on the bag of its first lane's task);
    ``comm`` the seat's RMA totals and ``prefetch`` its field store's
    prefetcher totals since its previous record (empty when the store is
    the driver's, which accounts for it itself).  ``race_reports`` are
    the task's findings, ``numeric_reports`` the seat lockstep's so far,
    ``accesses`` the seat's :class:`~repro.analysis.race.AccessLog`
    drained since its previous record.  A seat that dies has every task
    it had not reported re-dispatched.
    ``first_bind_at`` is the wall-clock stamp of a spawned seat's first
    completed bind, on its first record only
    (``DriverReport.spawn_bind_seconds``).

``("error", worker_id, epoch, traceback)``
    The seat failed — binding (``epoch`` is the bind being attempted) or
    executing — and has exited.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import shutil
import tempfile
import threading
import time
import traceback

# A seat's whole import graph hangs off these lines: the worker module,
# and through it nothing of the driver side and no SciPy.
from repro.driver.worker import _WorkerState
from repro.survey.io import save_field

__all__ = ["InProcessPool", "WorkerPool"]

#: One deadline for all the seats a shrink/close shuts down, after which
#: the stragglers are terminated (processes) or reported (threads).
_SHUTDOWN_TIMEOUT_S = 30.0


def _pool_worker_main(seat: int, task_q, result_q,
                      in_process: bool = False) -> None:
    """Body of one pool seat: a bind/grant/release loop around the seat's
    one lockstep.  While the seat holds tasks it takes messages without
    blocking, at round boundaries, and runs a round whenever none is
    waiting; idle, it blocks on its queue."""
    state = None
    #: The bind in force or being attempted — what an error is filed under.
    epoch = None
    #: Wall-clock stamp of a spawned seat's first completed bind, shipped
    #: with its first result and never again (a warm seat reports nothing).
    first_bind_at = None
    stamp_shipped = in_process
    try:
        while True:
            if state is not None and state.busy:
                try:
                    item = task_q.get_nowait()
                except queue.Empty:
                    state.step(result_q)
                    continue
            else:
                item = task_q.get()
            if item is None:
                return
            kind = item[0]
            if kind == "bind":
                epoch = item[1]
                if state is not None:
                    state.close()
                state = _WorkerState(*item[1:], in_process=in_process)
                if first_bind_at is None:
                    first_bind_at = time.time()  # det: ignore[DET105] -- observational: feeds DriverReport.spawn_bind_seconds only, and must compare across processes
            elif kind == "release":
                if state is not None:
                    state.close()
                    state = None
            elif kind == "grant":
                _, items, hint = item
                state.take(items, hint,
                           None if stamp_shipped else first_bind_at)
                stamp_shipped = True
    except BaseException:  # noqa: BLE001 - forwarded to the parent
        result_q.put(("error", seat, epoch, traceback.format_exc()))
    finally:
        if state is not None:
            state.close()


class WorkerPool:
    """Elastic pool of persistent process node-worker seats.

    Safe to share across sequential :func:`run_pipeline` calls (pass it via
    the ``pool`` argument); not safe for two concurrent runs.  The owner
    must :meth:`close` it eventually; a pool used privately by one
    pipeline run is closed by that run.
    """

    #: Seats run in the caller's process and share its objects.
    in_process = False

    def __init__(self, mp_start_method: str = "spawn"):
        ctx = multiprocessing.get_context(mp_start_method)
        self._open(ctx.Queue, ctx.Process)

    def _open(self, new_queue, new_seat) -> None:
        self._new_queue, self._new_seat = new_queue, new_seat
        self.result_q = new_queue()
        self.procs: list = []
        self.task_qs: list = []
        #: Seats spawned over the pool's lifetime — the number a caller
        #: watches to prove reuse (a second pipeline run on a warm pool
        #: spawns zero new workers).
        self.spawned_total = 0
        self._closed = False

    @property
    def size(self) -> int:
        return len(self.procs)

    def alive(self, seat: int) -> bool:
        return seat < len(self.procs) and self.procs[seat].is_alive()

    def _spawn(self, seat: int):
        q = self._new_queue()
        p = self._new_seat(
            target=_pool_worker_main,
            args=(seat, q, self.result_q, self.in_process),
            name="repro-seat-%d" % seat, daemon=True,
        )
        p.start()
        self.spawned_total += 1
        return p, q

    def field_source(self, fields: list, store):
        """What one run's binds ship as ``(fields, fault_dir)``.

        A process seat must never hold the whole survey: in-memory fields
        are spilled to field files once and shipped as paths, so its
        prefetcher loads only the fields its tasks touch.  The scratch
        directory is also where a test plants fault-injection kill tokens
        (:meth:`~repro.driver.worker._WorkerState._maybe_die`); the caller
        removes it after the run."""
        scratch = tempfile.mkdtemp(prefix="repro-driver-")
        try:
            paths = []
            for i, spec in enumerate(fields):
                if not isinstance(spec, str):
                    path = os.path.join(scratch, "field%d.npz" % i)
                    save_field(path, spec)
                    spec = path
                paths.append(spec)
            return paths, scratch
        except BaseException:
            shutil.rmtree(scratch, ignore_errors=True)
            raise

    def ensure(self, n: int) -> list[int]:
        """Grow to at least ``n`` seats and respawn any dead seat below
        ``n`` (with a fresh queue — a dead seat's queue may hold messages
        nothing will ever read).  Returns the seats (re)spawned."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        spawned: list[int] = []
        for seat in range(min(n, len(self.procs))):
            if not self.procs[seat].is_alive():
                self.task_qs[seat].close()
                self.procs[seat], self.task_qs[seat] = self._spawn(seat)
                spawned.append(seat)
        while len(self.procs) < n:
            seat = len(self.procs)
            p, q = self._spawn(seat)
            self.procs.append(p)
            self.task_qs.append(q)
            spawned.append(seat)
        return spawned

    def send(self, seat: int, item) -> None:
        self.task_qs[seat].put(item)

    def release(self) -> None:
        """Ask every live seat to drop its bound state — called by a stage
        runner handing the pool back, so seats stop holding catalog
        windows the runner is about to unlink."""
        for seat in range(len(self.procs)):
            if self.alive(seat):
                try:
                    self.task_qs[seat].put(("release",))
                except (OSError, ValueError):  # pragma: no cover
                    pass

    def shrink(self, n: int) -> None:
        """Shut down seats beyond the first ``n`` (blocking).

        Every sentinel goes out first, then the seats are joined against
        one shared deadline, then stragglers are dealt with: teardown
        costs the slowest seat rather than the sum, and a hung seat
        cannot keep the others from being told to exit."""
        keep = max(n, 0)
        procs, queues = self.procs[keep:], self.task_qs[keep:]
        del self.procs[keep:], self.task_qs[keep:]
        for q in queues:
            try:
                q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        deadline = time.monotonic() + _SHUTDOWN_TIMEOUT_S
        for p in procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        self._abandon([p for p in procs if p.is_alive()])
        for q in queues:
            q.close()

    def _abandon(self, stragglers: list) -> None:
        for p in stragglers:
            p.terminate()
            p.join(timeout=5.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.shrink(0)
        self.result_q.close()


class _ThreadQueue(queue.Queue):
    def close(self) -> None:
        """Nothing to release: no pipe, no feeder thread, no semaphore."""


class InProcessPool(WorkerPool):
    """The same seats as threads of the calling process."""

    in_process = True

    def __init__(self):
        self._open(_ThreadQueue, threading.Thread)

    def field_source(self, fields: list, store):
        """The caller's own store; no fault directory, so a seat in this
        process can never ``os._exit``."""
        return store, None

    def _abandon(self, stragglers: list) -> None:
        # A thread cannot be terminated; say which ones are still running
        # rather than walk away from them silently.
        if stragglers:
            raise RuntimeError(
                "in-process seats still running %g s after being told to "
                "exit: %s" % (_SHUTDOWN_TIMEOUT_S,
                              ", ".join(t.name for t in stragglers)))
