"""Machine model: Cori Phase II parameters (paper Section VI-A).

Rates are calibrated so the simulated full machine reproduces the paper's
headline numbers: 1,305,600 threads at 9,600 nodes sustaining ~1.5 PFLOP/s
peak during task processing, with each active-pixel visit costing 32,317
FLOPs (x1.375 overall).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    BURST_BUFFER_BANDWIDTH,
    FLOP_OVERHEAD_FACTOR,
    FLOPS_PER_ACTIVE_PIXEL_VISIT,
    PROCESSES_PER_NODE,
    THREADS_PER_PROCESS,
)

__all__ = ["MachineConfig"]


@dataclass
class MachineConfig:
    """Parameters of the simulated cluster.

    Attributes
    ----------
    n_nodes:
        Compute nodes in the job.
    processes_per_node, threads_per_process:
        The node configuration; 17 x 8 is the empirically best layout
        (Section VII-B).
    visits_per_thread_per_second:
        Peak active-pixel-visit throughput of one thread; 26,600/s
        corresponds to ~1.18 GFLOP/s/thread, matching the 1.54 PFLOP/s peak
        over 1.3 M threads.
    intra_task_efficiency:
        Fraction of peak sustained while a task runs.  Threads idle at task
        tails while "the last few light sources are optimized" (Section
        VII-B); 0.45 reproduces Table I's sustained/peak ratio.
    burst_buffer_bandwidth:
        Aggregate Burst Buffer bandwidth (bytes/s).
    per_process_load_bandwidth:
        Effective end-to-end image ingest rate of one process, including
        decompression and field preprocessing (bytes/s); calibrated from the
        paper's ~constant ~100 s image-loading component.
    scheduler_hop_latency:
        One-way latency charged per scheduler tree hop (seconds).
    task_overhead_seconds:
        Fixed per-task cost outside the objective (result write-back, PGAS
        traffic) charged to the "other" component.
    """

    n_nodes: int
    processes_per_node: int = PROCESSES_PER_NODE
    threads_per_process: int = THREADS_PER_PROCESS
    visits_per_thread_per_second: float = 26_600.0
    intra_task_efficiency: float = 0.45
    burst_buffer_bandwidth: float = BURST_BUFFER_BANDWIDTH
    per_process_load_bandwidth: float = 3.2e6
    scheduler_hop_latency: float = 50e-6
    task_overhead_seconds: float = 0.05
    #: Fixed per-process cost charged once per run (runtime startup, PGAS
    #: window setup, output finalization) — the bulk of the paper's small,
    #: node-count-independent "other" component.
    fixed_process_overhead_seconds: float = 5.0
    #: Sub-linearity of intra-task thread scaling: per-process throughput
    #: grows as ``threads^(1 - gamma)`` (normalized at the 8-thread
    #: calibration point).  More threads per process idle longer at task
    #: tails "while the last few light sources are optimized" (Section
    #: VII-B), which is what makes 8x17 the best node configuration.
    thread_scaling_gamma: float = 0.3

    @property
    def n_processes(self) -> int:
        return self.n_nodes * self.processes_per_node

    @property
    def n_threads(self) -> int:
        return self.n_processes * self.threads_per_process

    def visits_per_second_per_process(self) -> float:
        """Sustained visit throughput of one process while running a task.

        Sub-linear in the thread count (tail idleness grows with threads);
        normalized so the calibrated 8-thread configuration matches the
        Table I sustained rate exactly.
        """
        t = self.threads_per_process
        base = 8.0 * self.visits_per_thread_per_second * self.intra_task_efficiency
        return base * (t / 8.0) ** (1.0 - self.thread_scaling_gamma)

    def peak_flops(self) -> float:
        """Peak DP FLOP/s of the whole job during task processing."""
        return (
            self.n_threads
            * self.visits_per_thread_per_second
            * FLOPS_PER_ACTIVE_PIXEL_VISIT
            * FLOP_OVERHEAD_FACTOR
        )

    def effective_load_bandwidth(self) -> float:
        """Per-process image ingest bandwidth, respecting the shared Burst
        Buffer aggregate limit when the whole machine loads at once."""
        share = self.burst_buffer_bandwidth / max(self.n_processes, 1)
        return min(self.per_process_load_bandwidth, share)
