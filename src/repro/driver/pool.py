"""An elastic, persistent pool of process node-workers.

Spawning a worker process costs real wall clock (interpreter start under
the ``spawn`` method, imports, shared-memory attach), which the original
driver paid per :func:`~repro.driver.pipeline.run_pipeline` call.  A
:class:`WorkerPool` amortizes it: workers are generic *seats* that persist
across stages and across pipeline runs, and the driver binds them to a
concrete run's state (fields, config, catalogs) with an in-band message
instead of respawning.  The pool grows on demand (:meth:`ensure`), shrinks
explicitly (:meth:`shrink`), and transparently respawns seats whose process
died — the resumable-worker half of fault recovery (the scheduler-side
half, re-dispatching a dead worker's tasks, lives in the stage runner).

The seat protocol (per-seat FIFO task queue, one shared result queue):

``("bind", epoch, worker_id, fields, metadata, priors, task_config, base,
working, fault_dir)``
    (Re)build the seat's execution state for one stage.  ``epoch`` is a
    parent-chosen integer echoed in every result message, so a collector
    never misattributes a straggler message from an earlier stage (e.g.
    after a mid-stage failure left unconsumed results behind).  The
    message carries a :class:`~repro.driver.worker.TaskConfig`, never the
    ``DriverConfig``: a seat imports :mod:`repro.driver.worker` and
    nothing of the driver side.

``("task", task, halo_indices, field_hint)``
    Execute one task against the bound state; report a ``("done", epoch,
    ...)`` message.  FIFO ordering per seat makes bind acknowledgements
    unnecessary: a task enqueued after a bind runs under that bind.

``("release",)``
    Drop the bound state (close field prefetchers, detach catalog
    windows) but keep the seat alive for the next bind.

``None``
    Shut the seat down.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback

# A seat's whole import graph hangs off this line: the worker module, and
# through it nothing of the driver side and no SciPy.
from repro.driver.worker import _WorkerState

__all__ = ["WorkerPool"]

#: One deadline for all the seats a shrink/close shuts down, after which
#: the stragglers are terminated.
_SHUTDOWN_TIMEOUT_S = 30.0


def _pool_worker_main(seat: int, task_q, result_q) -> None:
    """Body of one pool seat: a bind/execute/release loop."""
    state = None
    #: Wall-clock stamp of this seat's first completed bind, shipped with
    #: its first result and never again (a warm seat reports nothing).
    first_bind_at = None
    stamp_shipped = False
    try:
        while True:
            item = task_q.get()
            if item is None:
                return
            kind = item[0]
            if kind == "bind":
                if state is not None:
                    state.close()
                state = _WorkerState(*item[1:])
                if first_bind_at is None:
                    first_bind_at = time.time()  # det: ignore[DET105] -- observational: feeds DriverReport.spawn_bind_seconds only, and must compare across processes
            elif kind == "release":
                if state is not None:
                    state.close()
                    state = None
            elif kind == "task":
                _, task, halo_idx, hint = item
                state.execute(task, halo_idx, hint, result_q,
                              None if stamp_shipped else first_bind_at)
                stamp_shipped = True
    except BaseException:  # noqa: BLE001 - forwarded to the parent
        result_q.put(("error", seat,
                      state.epoch if state is not None else None,
                      traceback.format_exc()))
    finally:
        if state is not None:
            state.close()


class WorkerPool:
    """Elastic pool of persistent process node-worker seats.

    Safe to share across sequential :func:`run_pipeline` calls (pass it via
    the ``pool`` argument); not safe for two concurrent runs.  The owner
    must :meth:`close` it eventually; a pool used privately by one stage
    runner is closed by that runner.
    """

    def __init__(self, mp_start_method: str = "spawn"):
        self._ctx = multiprocessing.get_context(mp_start_method)
        self.result_q = self._ctx.Queue()
        self.procs: list = []
        self.task_qs: list = []
        #: Workers spawned over the pool's lifetime — the number a caller
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
        q = self._ctx.Queue()
        p = self._ctx.Process(
            target=_pool_worker_main, args=(seat, q, self.result_q),
            daemon=True,
        )
        p.start()
        self.spawned_total += 1
        return p, q

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

    def release(self, n: int | None = None) -> None:
        """Ask the first ``n`` (default: all) live seats to drop their
        bound state — called by a stage runner handing a shared pool back,
        so seats stop holding catalog windows the runner is about to
        unlink."""
        count = len(self.procs) if n is None else min(n, len(self.procs))
        for seat in range(count):
            if self.alive(seat):
                try:
                    self.task_qs[seat].put(("release",))
                except (OSError, ValueError):  # pragma: no cover
                    pass

    def shrink(self, n: int) -> None:
        """Shut down seats beyond the first ``n`` (blocking).

        Every sentinel goes out first, then the seats are joined against
        one shared deadline, then stragglers are terminated: teardown
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
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for q in queues:
            q.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.shrink(0)
        self.result_q.close()
