"""Cyclades batching: conflict-free assignment of source updates to threads.

"At each iteration, Cyclades samples light sources at random without
replacement and partitions the sample into connected components, according
to the conflict graph restricted to the sample.  Then, connected components
are distributed among threads; light sources that overlap in the sample are
all assigned to the same thread" (paper, Section IV-D).

Keeping a whole connected component on one thread also pins its per-source
objective evaluations to that thread, which is what makes the fused ELBO
kernel's *per-thread* workspace scratch effective: every Newton iteration
of every source in a thread's assignment borrows the same buffers
(:mod:`repro.core.kernel`), and the executor releases them when the
assignment completes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.conflict import ConflictGraph

__all__ = ["CycladesBatch", "cyclades_batches", "allocate_components"]


@dataclass
class CycladesBatch:
    """One round of conflict-free parallel work.

    ``thread_assignments[t]`` is the ordered list of source indices thread
    ``t`` will update this round; connected components are never split
    across threads.
    """

    thread_assignments: list[list[int]]
    components: list[list[int]]

    @property
    def n_sources(self) -> int:
        return sum(len(a) for a in self.thread_assignments)

    def max_thread_load(self) -> int:
        return max((len(a) for a in self.thread_assignments), default=0)


def allocate_components(
    components: list[list[int]], n_threads: int
) -> list[list[int]]:
    """Pack components onto threads, largest first (LPT greedy balancing)."""
    loads = [0] * n_threads
    out: list[list[int]] = [[] for _ in range(n_threads)]
    for comp in sorted(components, key=len, reverse=True):
        t = int(np.argmin(loads))
        out[t].extend(comp)
        loads[t] += len(comp)
    return out


def cyclades_batches(
    graph: ConflictGraph,
    n_threads: int,
    batch_size: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[CycladesBatch]:
    """Partition one full epoch (every source updated exactly once) into
    conflict-free batches.

    ``batch_size`` defaults to ``max(2 * n_threads, 8)`` — small enough that
    the sampled subgraph shatters into many components ("even if the
    conflict graph is connected, its restriction to a random sample of nodes
    typically has many connected components"), large enough to keep all
    threads busy.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    if rng is None:
        rng = np.random.default_rng()
    if batch_size is None:
        batch_size = max(2 * n_threads, 8)

    order = rng.permutation(graph.n)
    batches = []
    for start in range(0, graph.n, batch_size):
        sample = [int(i) for i in order[start:start + batch_size]]
        comps = graph.connected_components(subset=sample)
        assignments = allocate_components(comps, n_threads)
        batches.append(CycladesBatch(
            thread_assignments=assignments,
            components=comps,
        ))
    return batches
