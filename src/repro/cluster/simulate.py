"""Discrete-event simulation of a Celeste campaign run.

Each simulated process loads its first task's images (exposed time; later
loads are prefetched), then repeatedly asks the scheduler — the *actual*
:class:`repro.sched.Dtree` implementation — for work and executes it.  Wall
time decomposes into the paper's four components (Section VII):

1. *image loading* — first-task load time while worker threads are idle;
2. *load imbalance* — idle time after a process finishes its last task,
   waiting for the straggler;
3. *task processing* — the main work loop;
4. *other* — scheduling messages, PGAS traffic, output writing.

Weak scaling (Figure 4), strong scaling (Figure 5), and the Table I
sustained-FLOP-rate accounting are thin wrappers over one simulation core.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineConfig
from repro.cluster.workload import TaskPopulation, WorkloadConfig, sample_workload
from repro.perf.flops import FlopReport
from repro.sched.central import CentralQueue
from repro.sched.dtree import Dtree

__all__ = [
    "ComponentBreakdown",
    "SimResult",
    "simulate_run",
    "weak_scaling",
    "strong_scaling",
    "performance_run",
]


@dataclass
class ComponentBreakdown:
    """Mean seconds per process in each of the paper's runtime components."""

    image_loading: float
    task_processing: float
    load_imbalance: float
    other: float

    @property
    def total(self) -> float:
        return (self.image_loading + self.task_processing
                + self.load_imbalance + self.other)

    def as_dict(self) -> dict[str, float]:
        return {
            "task processing": self.task_processing,
            "image loading": self.image_loading,
            "load imbalance": self.load_imbalance,
            "other": self.other,
        }


@dataclass
class SimResult:
    """Outcome of one simulated campaign run."""

    machine: MachineConfig
    components: ComponentBreakdown
    wall_seconds: float
    total_visits: float
    n_tasks: int
    scheduler_stats: dict

    @property
    def tasks_per_process(self) -> float:
        return self.n_tasks / self.machine.n_processes

    def flop_report(self) -> FlopReport:
        """Table I accounting for this run."""
        return FlopReport(
            active_pixel_visits=self.total_visits,
            task_processing_seconds=self.components.task_processing,
            load_imbalance_seconds=self.components.load_imbalance,
            image_loading_seconds=self.components.image_loading,
        )


def simulate_run(
    machine: MachineConfig,
    workload: TaskPopulation | WorkloadConfig,
    scheduler: str = "dtree",
    batch_size: int = 1,
) -> SimResult:
    """Simulate one campaign run and decompose its wall time.

    ``scheduler`` selects ``"dtree"`` (the paper's) or ``"central"`` (the
    single-queue baseline, whose per-request cost grows with worker count).
    """
    if isinstance(workload, WorkloadConfig):
        workload = sample_workload(workload)
    n_procs = machine.n_processes
    n_tasks = workload.n_tasks
    if scheduler == "dtree":
        sched = Dtree(n_procs, n_tasks)
        hop_cost = machine.scheduler_hop_latency
    elif scheduler == "central":
        sched = CentralQueue(n_procs, n_tasks)
        # Every request serializes on one endpoint with ~0.5 ms service time
        # (message handling + queue pop); near task boundaries a requester
        # waits behind O(n_procs) peers, so the effective per-request cost
        # grows linearly with machine size — the pathology Dtree removes.
        hop_cost = 0.5e-3 * max(n_procs / 2.0, 1.0)
    else:
        raise ValueError("unknown scheduler %r" % (scheduler,))

    rate = machine.visits_per_second_per_process()
    load_bw = machine.effective_load_bandwidth()

    # Per-process accumulators.
    t_load = np.zeros(n_procs)
    t_proc = np.zeros(n_procs)
    t_other = np.full(n_procs, machine.fixed_process_overhead_seconds)
    finish = np.zeros(n_procs)
    first_task = np.full(n_procs, True)

    # Event heap: (time, proc). All processes start by asking for work.
    heap = [(0.0, p) for p in range(n_procs)]
    heapq.heapify(heap)
    done_tasks = 0
    prev_hops = 0

    while heap:
        now, p = heapq.heappop(heap)
        batch = sched.request(p, max_batch=batch_size)
        hops = sched.stats["hops"]
        sched_cost = hop_cost * (1 + (hops - prev_hops))
        prev_hops = hops
        t_other[p] += sched_cost
        if not batch:
            finish[p] = now + sched_cost
            continue
        t = now + sched_cost
        for tid in batch:
            if first_task[p]:
                # First task: the load is exposed (no prefetch possible yet).
                load = float(workload.bytes[tid]) / load_bw
                t_load[p] += load
                t += load
                first_task[p] = False
            duration = float(workload.visits[tid]) / rate
            t_proc[p] += duration
            t_other[p] += machine.task_overhead_seconds
            t += duration + machine.task_overhead_seconds
            done_tasks += 1
        heapq.heappush(heap, (t, p))

    assert done_tasks == n_tasks, "scheduler lost tasks"
    wall = float(finish.max())
    imbalance = wall - finish
    # The last process to finish contributes no imbalance, by definition.
    imbalance[np.argmax(finish)] = 0.0

    components = ComponentBreakdown(
        image_loading=float(t_load.mean()),
        task_processing=float(t_proc.mean()),
        load_imbalance=float(imbalance.mean()),
        other=float(t_other.mean()),
    )
    return SimResult(
        machine=machine,
        components=components,
        wall_seconds=wall,
        total_visits=workload.total_visits,
        n_tasks=n_tasks,
        scheduler_stats=dict(sched.stats),
    )


def weak_scaling(
    node_counts,
    tasks_per_process: int = 4,
    machine_kwargs: dict | None = None,
    workload_kwargs: dict | None = None,
) -> list[SimResult]:
    """Figure 4: runtime components with work proportional to machine size.

    The paper uses 68 tasks per node = 4 per process, which makes the load
    imbalance of the final task wave a visible component at scale.
    """
    machine_kwargs = machine_kwargs or {}
    workload_kwargs = workload_kwargs or {}
    out = []
    for n in node_counts:
        machine = MachineConfig(n_nodes=int(n), **machine_kwargs)
        wl = WorkloadConfig(
            n_tasks=machine.n_processes * tasks_per_process, **workload_kwargs
        )
        out.append(simulate_run(machine, wl))
    return out


def strong_scaling(
    node_counts,
    n_tasks: int = 557_056,
    machine_kwargs: dict | None = None,
    workload_kwargs: dict | None = None,
) -> list[SimResult]:
    """Figure 5: runtime components with the problem size held fixed."""
    machine_kwargs = machine_kwargs or {}
    workload_kwargs = workload_kwargs or {}
    wl_cfg = WorkloadConfig(n_tasks=n_tasks, **workload_kwargs)
    population = sample_workload(wl_cfg)
    out = []
    for n in node_counts:
        machine = MachineConfig(n_nodes=int(n), **machine_kwargs)
        out.append(simulate_run(machine, population))
    return out


def scaling_efficiency(results: list[SimResult]) -> list[float]:
    """Strong-scaling efficiency relative to the first entry:
    ``eff_i = (t_0 * n_0) / (t_i * n_i)``."""
    t0 = results[0].wall_seconds
    n0 = results[0].machine.n_nodes
    return [
        (t0 * n0) / (r.wall_seconds * r.machine.n_nodes) for r in results
    ]


def performance_run(
    n_nodes: int = 9600,
    n_tasks: int = 326_400,
    sigma_log: float = 0.18,
    bytes_per_task: float = 2.1e9,
    machine_kwargs: dict | None = None,
) -> tuple[SimResult, FlopReport]:
    """Table I: the standard configuration's sustained FLOP rates.

    The paper's run completed 326,400 tasks on 9,600 nodes in about seven
    minutes of task-processing time; the report divides total FLOPs by
    progressively larger wall scopes.  Defaults differ from the scaling
    runs: the performance campaign covered a deliberately uniform region
    (lower work dispersion) of deeply-covered sky — the paper notes single
    regions can require up to 5.5 GB of imagery — which is what makes the
    image-loading scope as expensive as Table I reports.
    """
    machine = MachineConfig(n_nodes=n_nodes, **(machine_kwargs or {}))
    # Processes synchronize after loading images in the paper's measurement
    # configuration; near-uniform loads model that barrier.
    wl = WorkloadConfig(
        n_tasks=n_tasks, sigma_log=sigma_log, bytes_per_task=bytes_per_task,
        io_sigma=0.02,
    )
    result = simulate_run(machine, wl)
    return result, result.flop_report()
