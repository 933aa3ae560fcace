"""Driver-level performance accounting.

The paper reports end-to-end numbers for the full three-level run — sustained
FLOP rate, load balance, and scheduling overhead — not just per-kernel rates.
:class:`DriverReport` is the analogue for :mod:`repro.driver`: it aggregates
the node-workers' task-processing and scheduler-wait time, the Dtree message
statistics, and the :class:`~repro.perf.counters.Counters`-based FLOP count
into one summary with the driver's headline throughput (sources optimized per
second of wall clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.flops import flops_from_visits

__all__ = ["DriverReport"]


@dataclass
class DriverReport:
    """End-to-end statistics of one driver run.

    Attributes
    ----------
    wall_seconds:
        Wall-clock time of the optimization stages (excludes synthesis).
    task_seconds:
        Task-processing time summed across node-workers (> wall when the
        workers overlap, which is the point).
    sched_seconds:
        Time node-workers spent inside ``Dtree.request`` summed across
        workers — the driver's scheduling overhead.
    spawn_bind_seconds:
        The "pool spawn/bind" row of the wall-clock ledger: from the start
        of the run to the last process seat standing bound for the first
        time (each seat stamps the wall clock once in its life and ships
        it with its first result).  It runs *alongside* the driver's
        serial prologue, so it is hidden cost until it exceeds that;
        0.0 under the thread executor and on a warm caller-owned pool.
        Summed over the runs a resumed report covers, like
        ``wall_seconds``.
    n_fields, n_tasks, n_source_updates:
        Work volume: fields processed, tasks executed, and single-source
        block updates performed (a source optimized in both stages counts
        twice — it is two units of work).
    messages, hops:
        Dtree traffic totals across all stages.
    active_pixel_visits:
        The paper's FLOP-accounting unit, from the driver's counter bag.
    stage_elbo:
        Final ELBO total per optimization stage, ``{"stage0": ..., ...}``.
    worker_comm:
        Per-node-worker communication record: one dict per worker with its
        one-sided catalog traffic (``rma_gets``/``rma_puts``/``rma_bytes``,
        and ``rma_remote`` ops that crossed a shard boundary) — the numbers
        the paper reports as PGAS get/put volume.
    prefetch_hits, prefetch_misses, prefetch_seconds:
        Field-file prefetcher outcome totals across workers: hits are loads
        the Burst-Buffer-style look-ahead hid, misses are synchronous
        stalls, seconds is background-thread load time (overlapped).
    race_reports:
        Findings of the shadow-transport race detector
        (:mod:`repro.analysis.race`) as serialized dicts — populated only
        when the run enabled ``race_detect``, and empty on a correct
        schedule even then.  Any entry here is a real determinism bug.
    numeric_reports:
        Findings of the runtime float sanitizer
        (:mod:`repro.analysis.numeric`) as serialized dicts — populated
        only when the run enabled ``numeric_check``, and empty on a
        numerically healthy model even then.  Each entry pinpoints
        (kind, stage, term, source, lane, actor) of one float pathology.
    recoveries:
        Fault-recovery events of the run, one dict per event:
        ``{"kind": "worker_death", "stage": ..., "worker": ...,
        "retried": [...]}`` when a dead node-worker's in-flight tasks were
        re-dispatched to survivors, and ``{"kind": "task_replay",
        "stage": ..., "n_tasks": ...}`` when a resumed run replayed
        journaled tasks from a task-granular checkpoint instead of
        re-executing them.  Empty on an undisturbed run.
    """

    wall_seconds: float = 0.0
    task_seconds: float = 0.0
    sched_seconds: float = 0.0
    spawn_bind_seconds: float = 0.0
    n_fields: int = 0
    n_tasks: int = 0
    n_source_updates: int = 0
    messages: int = 0
    hops: int = 0
    active_pixel_visits: float = 0.0
    stage_elbo: dict[str, float] = field(default_factory=dict)
    worker_comm: list = field(default_factory=list)
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_seconds: float = 0.0
    race_reports: list = field(default_factory=list)
    numeric_reports: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)

    @property
    def sources_per_second(self) -> float:
        """Headline throughput: source updates per second of wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_source_updates / self.wall_seconds

    @property
    def scheduling_overhead_fraction(self) -> float:
        """Fraction of worker time spent waiting on the scheduler."""
        busy = self.task_seconds + self.sched_seconds
        return self.sched_seconds / busy if busy > 0 else 0.0

    @property
    def total_flops(self) -> float:
        return flops_from_visits(self.active_pixel_visits)

    @property
    def flop_rate(self) -> float:
        """Sustained FLOP/s over the driver's wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_flops / self.wall_seconds

    @property
    def messages_per_task(self) -> float:
        return self.messages / self.n_tasks if self.n_tasks else 0.0

    @property
    def rma_gets(self) -> int:
        return sum(w.get("rma_gets", 0) for w in self.worker_comm)

    @property
    def rma_puts(self) -> int:
        return sum(w.get("rma_puts", 0) for w in self.worker_comm)

    @property
    def rma_bytes(self) -> int:
        return sum(w.get("rma_bytes", 0) for w in self.worker_comm)

    def add_worker_comm(self, worker: int, rma_gets: int, rma_puts: int,
                        rma_bytes: int, rma_remote: int) -> None:
        """Accumulate one worker's one-sided traffic (summed across stages)."""
        for rec in self.worker_comm:
            if rec.get("worker") == worker:
                rec["rma_gets"] += rma_gets
                rec["rma_puts"] += rma_puts
                rec["rma_bytes"] += rma_bytes
                rec["rma_remote"] += rma_remote
                return
        self.worker_comm.append({
            "worker": worker,
            "rma_gets": rma_gets,
            "rma_puts": rma_puts,
            "rma_bytes": rma_bytes,
            "rma_remote": rma_remote,
        })

    def as_dict(self) -> dict:
        """JSON-serializable form (stored in driver checkpoints)."""
        return {
            "wall_seconds": self.wall_seconds,
            "task_seconds": self.task_seconds,
            "sched_seconds": self.sched_seconds,
            "spawn_bind_seconds": self.spawn_bind_seconds,
            "n_fields": self.n_fields,
            "n_tasks": self.n_tasks,
            "n_source_updates": self.n_source_updates,
            "messages": self.messages,
            "hops": self.hops,
            "active_pixel_visits": self.active_pixel_visits,
            "stage_elbo": dict(self.stage_elbo),
            "worker_comm": [dict(w) for w in self.worker_comm],
            "prefetch_hits": self.prefetch_hits,
            "prefetch_misses": self.prefetch_misses,
            "prefetch_seconds": self.prefetch_seconds,
            "race_reports": [dict(r) for r in self.race_reports],
            "numeric_reports": [dict(r) for r in self.numeric_reports],
            "recoveries": [dict(r) for r in self.recoveries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DriverReport":
        out = cls()
        for k, v in d.items():
            if k == "stage_elbo":
                v = dict(v)
            elif k in ("worker_comm", "race_reports", "numeric_reports",
                       "recoveries"):
                v = [dict(w) for w in v]
            setattr(out, k, v)
        return out

    def summary_lines(self) -> list[str]:
        """Human-readable report, one line per statistic."""
        lines = [
            "fields processed      %8d" % self.n_fields,
            "tasks executed        %8d" % self.n_tasks,
            "source updates        %8d" % self.n_source_updates,
            "wall time             %10.2f s" % self.wall_seconds,
            "throughput            %10.2f sources/s" % self.sources_per_second,
            "active pixel visits   %10.3g" % self.active_pixel_visits,
            "model GFLOPs          %10.2f" % (self.total_flops / 1e9),
            "sustained GFLOP/s     %10.3f" % (self.flop_rate / 1e9),
            "sched overhead        %9.1f%% of worker time"
            % (100.0 * self.scheduling_overhead_fraction),
            "dtree messages        %8d (%.2f per task)"
            % (self.messages, self.messages_per_task),
            "dtree parent hops     %8d" % self.hops,
        ]
        if self.spawn_bind_seconds:
            lines.append("pool spawn/bind       %10.2f s (overlaps the "
                         "seed stage)" % self.spawn_bind_seconds)
        if self.worker_comm:
            lines.append(
                "catalog RMA           %8d gets / %d puts (%.1f KB)"
                % (self.rma_gets, self.rma_puts, self.rma_bytes / 1024.0)
            )
            for rec in sorted(self.worker_comm, key=lambda r: r["worker"]):
                lines.append(
                    "  worker %-4d         %8d gets / %d puts, %d remote"
                    % (rec["worker"], rec["rma_gets"], rec["rma_puts"],
                       rec["rma_remote"])
                )
        if self.prefetch_hits or self.prefetch_misses:
            lines.append(
                "field prefetch        %8d hits / %d misses (%.2f s hidden)"
                % (self.prefetch_hits, self.prefetch_misses,
                   self.prefetch_seconds)
            )
        for stage, elbo in sorted(self.stage_elbo.items()):
            lines.append("ELBO after %-10s %12.1f" % (stage, elbo))
        if self.race_reports:
            lines.append("RACES DETECTED        %8d" % len(self.race_reports))
            for r in self.race_reports:
                lines.append(
                    "  %s on %s epoch %s: %s vs %s over %s"
                    % (r.get("kind"), r.get("window"), r.get("epoch"),
                       r.get("actor_a"), r.get("actor_b"), r.get("extent"))
                )
        if self.recoveries:
            lines.append("recoveries            %8d" % len(self.recoveries))
            for r in self.recoveries:
                if r.get("kind") == "worker_death":
                    lines.append(
                        "  worker %s died in %s; retried tasks %s"
                        % (r.get("worker"), r.get("stage"),
                           r.get("retried"))
                    )
                else:
                    lines.append(
                        "  %s in %s: %s tasks"
                        % (r.get("kind"), r.get("stage"), r.get("n_tasks"))
                    )
        if self.numeric_reports:
            lines.append("NUMERIC FINDINGS      %8d"
                         % len(self.numeric_reports))
            for r in self.numeric_reports:
                lines.append(
                    "  %s in %s/%s source=%s lane=%s actor=%s: %s"
                    % (r.get("kind"), r.get("stage"), r.get("term"),
                       r.get("source"), r.get("lane"), r.get("actor"),
                       r.get("detail"))
                )
        return lines
