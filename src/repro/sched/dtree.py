"""Dtree: distributed dynamic scheduling over a tree of nodes.

Following Pamnany et al. (the paper's reference [17]): compute nodes are
organized into a tree whose height scales logarithmically with the node
count; work (a contiguous range of task ids) flows down the tree in batches.
Each node distributes a *static* first allotment to prime its children, then
grants shrinking dynamic batches on request; a node whose pool empties asks
its parent, so every request touches at most O(log N) nodes — the property
that lets the design scale to petascale machines while a centralized queue
serializes on one lock.

The implementation is usable both standalone (threaded, real locks) and
inside the discrete-event cluster simulator, which charges latency per hop
using the recorded statistics.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

__all__ = ["DtreeConfig", "Dtree"]


@dataclass(frozen=True)
class DtreeConfig:
    """The shape of the tree and of its grants.

    It shapes who computes what and when, never what is computed, and it
    is no driver knob: the driver runs the one shape
    ``DriverConfig.dtree``.  Every value a constructor accepts is one the
    scheduler can run.
    """

    #: Children per internal node (at least 2, or the tree never narrows
    #: to a root).
    fanout: int = 8
    #: Fraction of all work distributed as the static first allotment.
    initial_fraction: float = 0.25
    #: A node grants a child this fraction of its remaining pool per request.
    drain_fraction: float = 0.5
    #: Task ids granted by a request that names no ``max_batch``, and the
    #: smallest refill a node asks of its parent.
    min_batch: int = 1

    def __post_init__(self):
        for name, ok, want in (
            ("fanout", self.fanout >= 2, ">= 2"),
            ("initial_fraction", 0 <= self.initial_fraction <= 1,
             "in [0, 1]"),
            ("drain_fraction", 0 < self.drain_fraction <= 1, "in (0, 1]"),
            ("min_batch", self.min_batch >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError("DtreeConfig.%s must be %s, got %r"
                                 % (name, want, getattr(self, name)))


class _Node:
    """One tree node: a pool of task-id ranges plus topology links."""

    __slots__ = ("pool", "parent", "children", "lock", "depth", "n_leaves")

    def __init__(self, parent, depth):
        self.pool: deque = deque()      # of (lo, hi) half-open ranges
        self.parent = parent
        self.children: list["_Node"] = []
        self.lock = threading.Lock()
        self.depth = depth
        self.n_leaves = 1

    def remaining(self) -> int:
        return sum(hi - lo for lo, hi in self.pool)

    def take(self, count: int) -> list[tuple[int, int]]:
        """Pop up to ``count`` task ids off the pool (lock held by caller)."""
        out = []
        while count > 0 and self.pool:
            lo, hi = self.pool[0]
            grab = min(count, hi - lo)
            out.append((lo, lo + grab))
            count -= grab
            if lo + grab == hi:
                self.pool.popleft()
            else:
                self.pool[0] = (lo + grab, hi)
        return out

    def bank(self, ranges: list[tuple[int, int]]) -> None:
        for lo, hi in ranges:
            if hi > lo:
                self.pool.append((lo, hi))


class Dtree:
    """A tree scheduler over ``n_workers`` leaves distributing ``n_tasks``.

    ``request(worker_id)`` returns the next batch of task ids for that
    worker (empty list = no work anywhere: terminate).  ``stats`` counts
    messages and parent-hops, which the cluster simulator converts into
    scheduling-overhead time.
    """

    def __init__(self, n_workers: int, n_tasks: int,
                 config: DtreeConfig | None = None):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if n_tasks < 0:
            raise ValueError("n_tasks must be non-negative")
        self.config = config or DtreeConfig()
        self.n_workers = n_workers
        self.n_tasks = n_tasks

        # Build the tree: leaves in order, internal nodes with `fanout`.
        self.leaves = [_Node(None, 0) for _ in range(n_workers)]
        level = self.leaves
        depth = 1
        while len(level) > 1:
            parents = []
            for i in range(0, len(level), self.config.fanout):
                parent = _Node(None, depth)
                for child in level[i:i + self.config.fanout]:
                    child.parent = parent
                    parent.children.append(child)
                parent.n_leaves = sum(c.n_leaves for c in parent.children)
                parents.append(parent)
            level = parents
            depth += 1
        self.root = level[0]
        self.height = self.root.depth

        # Static first allotment: a slice of work pre-placed at every leaf.
        static_total = int(n_tasks * self.config.initial_fraction)
        per_leaf = static_total // n_workers
        cursor = 0
        if per_leaf > 0:
            for leaf in self.leaves:
                leaf.bank([(cursor, cursor + per_leaf)])
                cursor += per_leaf
        self.root.bank([(cursor, n_tasks)])

        self._stats_lock = threading.Lock()
        self.messages = 0
        self.hops = 0

    # -- scheduling ---------------------------------------------------------------

    def _grant_from(self, node: _Node, want: int) -> list[tuple[int, int]]:
        """Take up to ``want`` tasks from ``node``, refilling recursively
        from its parent when empty."""
        with node.lock:
            got = node.take(want)
        if got:
            return got
        parent = node.parent
        if parent is None:
            return []
        with self._stats_lock:
            self.messages += 1
            self.hops += 1
        # Refill proportionally to the requesting subtree's share of the
        # parent's leaves, damped by the drain fraction — so no subtree can
        # hoard the pool while siblings idle, and batches shrink
        # geometrically as the run drains (Dtree's end-game behavior).  The
        # request's own size caps what it is served, never what it pulls
        # down: a large ``max_batch`` must not drain a parent its siblings
        # still need.
        share = node.n_leaves / max(parent.n_leaves, 1)
        refill_want = max(
            int(parent.remaining() * share * self.config.drain_fraction),
            self.config.min_batch,
        )
        refill = self._grant_from(parent, refill_want)
        if not refill:
            return []
        # Serve the request out of the refill; bank the surplus locally.
        served: list[tuple[int, int]] = []
        need = want
        bank: list[tuple[int, int]] = []
        for lo, hi in refill:
            if need > 0:
                grab = min(need, hi - lo)
                served.append((lo, lo + grab))
                need -= grab
                if lo + grab < hi:
                    bank.append((lo + grab, hi))
            else:
                bank.append((lo, hi))
        if bank:
            with node.lock:
                node.bank(bank)
        return served

    def request(self, worker_id: int, max_batch: int | None = None) -> list[int]:
        """Next batch of task ids for a worker (empty when all work is done)."""
        if not 0 <= worker_id < self.n_workers:
            raise IndexError("bad worker id")
        want = max_batch if max_batch is not None else self.config.min_batch
        with self._stats_lock:
            self.messages += 1
        ranges = self._grant_from(self.leaves[worker_id], want)
        out: list[int] = []
        for lo, hi in ranges:
            out.extend(range(lo, hi))
        return out

    def reclaim(self, worker_id: int) -> int:
        """Return a dead worker's undispatched leaf pool to the root.

        Leaves only ever *receive* work (grants refill downward from
        parents), so ranges banked at a dead worker's leaf would otherwise
        strand: no surviving worker's request path visits a sibling leaf.
        Re-banking them at the root makes them reachable from every leaf
        again.  Returns the number of task ids reclaimed; already-granted
        (in-flight) tasks are the caller's to re-dispatch.
        """
        if not 0 <= worker_id < self.n_workers:
            raise IndexError("bad worker id")
        leaf = self.leaves[worker_id]
        with leaf.lock:
            ranges = [(lo, hi) for lo, hi in leaf.pool]
            leaf.pool.clear()
        moved = sum(hi - lo for lo, hi in ranges)
        if moved:
            with self.root.lock:
                self.root.bank(ranges)
            with self._stats_lock:
                self.messages += 1
                self.hops += self.height
        return moved

    def peek(self, worker_id: int, n: int) -> list[int]:
        """Up to ``n`` task ids this worker is likely to be granted next,
        without removing anything — the look-ahead hook the driver's field
        prefetcher keys I/O on (the paper's Burst Buffer pipeline).

        Walks the worker's leaf-to-root path, reading each pool in grant
        order.  Best-effort: a sibling may win a peeked task in the
        meantime, which costs a wasted prefetch, never correctness.
        """
        if not 0 <= worker_id < self.n_workers:
            raise IndexError("bad worker id")
        out: list[int] = []
        node = self.leaves[worker_id]
        while node is not None and len(out) < n:
            with node.lock:
                for lo, hi in node.pool:
                    out.extend(range(lo, min(hi, lo + n - len(out))))
                    if len(out) >= n:
                        break
            node = node.parent
        return out

    # -- introspection ---------------------------------------------------------------

    @property
    def stats(self) -> dict:
        return {
            "messages": self.messages,
            "hops": self.hops,
            "height": self.height,
        }
