"""Conflict graphs over light sources.

"Nodes are light sources and edges indicate a conflict.  Light sources are
in conflict if they overlap" (paper, Section IV-D).  Overlap is judged by
patch radii: two sources conflict when their active-pixel patches can share
pixels, which is exactly the condition under which concurrent updates would
race on the shared model-image state.

Patches are axis-aligned *boxes* (``source_patch`` floors/ceils a radius
around the center), so the right overlap test is Chebyshev (L-infinity)
distance, not Euclidean: two sources whose circles are disjoint can still
have overlapping boxes on the diagonal.  The ``pad`` term covers the
integer rounding: a patch's last covered pixel index is
``ceil(center + radius)`` and its first is ``floor(center - radius)``, so
two patches can share a pixel only while the per-axis center distance is
below ``r_i + r_j + 2`` — at ``r_i + r_j + 2`` and beyond they are
guaranteed pixel-disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConflictGraph", "build_conflict_graph", "UnionFind"]


class UnionFind:
    """Path-compressed union-find (used for connected components)."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


@dataclass
class ConflictGraph:
    """Adjacency over source indices."""

    n: int
    adjacency: list[set]

    def conflicts(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def connected_components(self, subset=None) -> list[list[int]]:
        """Connected components of the graph restricted to ``subset``
        (all nodes by default)."""
        nodes = list(range(self.n)) if subset is None else list(subset)
        index = {node: k for k, node in enumerate(nodes)}
        uf = UnionFind(len(nodes))
        node_set = set(nodes)
        for node in nodes:
            for other in self.adjacency[node]:  # det: ignore[DET102] -- union() is commutative/associative: the partition is visit-order independent
                if other in node_set and other > node:
                    uf.union(index[node], index[other])
        groups: dict[int, list[int]] = {}
        for node in nodes:
            groups.setdefault(uf.find(index[node]), []).append(node)
        return list(groups.values())  # det: ignore[DET102] -- insertion order is first-member order in the caller's node order: deterministic


def build_conflict_graph(
    positions: np.ndarray, radii, pad: float = 2.0
) -> ConflictGraph:
    """Build the conflict graph: sources conflict when their patch *boxes*
    can share pixels — Chebyshev distance below ``r_i + r_j + pad``, where
    ``pad`` covers the integer rounding of ``source_patch`` (see module
    docstring).  A conservative edge costs a little parallelism; a missing
    edge is a data race."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (n,))
    adjacency = [set() for _ in range(n)]
    if n > 1:
        # A sweep along x, not a k-d tree: this runs inside every task, and
        # SciPy stays off a node-worker's import graph (docs/scaling.md).
        # j can conflict with i only while |x_i - x_j| < r_i + r_max + pad
        # — a contiguous run of the x-sorted sources, taken a pixel wide
        # so rounding at its ends cannot lose a neighbor; the exact
        # Chebyshev test below decides.
        x = positions[:, 0]
        order = np.argsort(x, kind="stable")
        x_sorted = x[order]
        reach = radii + (float(radii.max()) + pad + 1.0)
        lo = np.searchsorted(x_sorted, x - reach, side="left")
        hi = np.searchsorted(x_sorted, x + reach, side="right")
        for i in range(n):
            near = order[lo[i]:hi[i]]
            cheb = np.abs(positions[near] - positions[i]).max(axis=1)
            hits = near[(cheb < radii[i] + radii[near] + pad) & (near != i)]
            adjacency[i].update(hits.tolist())
    return ConflictGraph(n=n, adjacency=adjacency)
