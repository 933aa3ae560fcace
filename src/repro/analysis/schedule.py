"""Static schedule verifier: independent proof that a Cyclades plan is safe.

Execution relies on three properties:

1. **Edge completeness** — every pair of sources whose patch boxes share
   a pixel is an edge of the conflict graph.  A region's rolling
   lockstep (:mod:`repro.parallel.executor`) keeps no round barrier: two
   sources with no edge between them may share one ELBO call whatever
   their rounds, and read each other's stale pixels if their boxes meet.
2. **Pixel disjointness** — patch boxes of sources assigned to *different*
   threads within one batch never share a pixel, so concurrent fold-backs
   into the shared model image cannot lose updates (the PR-1 bug: diagonal
   neighbours whose Euclidean distance exceeded the radius sum but whose
   *rounded integer boxes* still overlapped).
3. **Component atomicity** — a conflict-connected component is never split
   across threads: all sources whose boxes (transitively) touch run on one
   thread, serially.

This module re-derives all three from nothing but source positions
and radii.  It deliberately shares no code with
:mod:`repro.parallel.conflict` — it rounds to integer pixel boxes the way
:func:`repro.survey.render.source_patch` does and intersects intervals,
rather than thresholding Chebyshev distances — so a bug in the conflict
graph cannot hide itself from its own verifier.

Entry points: :func:`verify_plan` (positions/radii + batches),
:func:`verify_batches` and :func:`verify_conflict_edges` (pre-built
boxes, used by the executor's pre-execution hook), and
:func:`audit_random_schedule` (a seeded end-to-end audit of the real
conflict graph and scheduler, run from ``python -m repro.analysis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PatchBox",
    "ScheduleViolation",
    "ScheduleError",
    "boxes_from_plan",
    "verify_batches",
    "verify_conflict_edges",
    "verify_plan",
    "audit_random_schedule",
]


@dataclass(frozen=True)
class PatchBox:
    """Half-open integer pixel box ``[x0, x1) x [y0, y1)`` on one image."""

    image: int
    x0: int
    x1: int
    y0: int
    y1: int

    def overlaps(self, other: "PatchBox") -> bool:
        if self.image != other.image:
            return False
        return (self.x0 < other.x1 and other.x0 < self.x1
                and self.y0 < other.y1 and other.y0 < self.y1)

    def area(self) -> int:
        return max(0, self.x1 - self.x0) * max(0, self.y1 - self.y0)


@dataclass(frozen=True)
class ScheduleViolation:
    """One failure of the schedule contract, with enough context to debug."""

    kind: str  # "overlap" | "split-component" | "duplicate" | "missing-edge"
    batch: int
    sources: tuple
    detail: str

    def render(self) -> str:
        return "batch %d: %s %s: %s" % (
            self.batch, self.kind, self.sources, self.detail)


class ScheduleError(RuntimeError):
    """Raised by the driver's pre-execution hook when a plan is unsafe."""

    def __init__(self, violations: list[ScheduleViolation]):
        self.violations = violations
        super().__init__(
            "unsafe schedule: %d violation(s)\n%s" % (
                len(violations),
                "\n".join("  " + v.render() for v in violations)))


def boxes_from_plan(positions, radii, n_images: int = 1) -> list[list[PatchBox]]:
    """Integer patch boxes for each source, one per image.

    Mirrors the rounding rule of :func:`repro.survey.render.source_patch`
    (``x0 = floor(px - r)``, ``x1 = ceil(px + r) + 1``, half-open) but
    *uncropped*: cropping to the image can only shrink a box, so verifying
    the uncropped boxes is conservative — a plan proven safe here is safe
    for every field size.
    """
    out: list[list[PatchBox]] = []
    for pos, r in zip(positions, radii):
        px, py = float(pos[0]), float(pos[1])
        r = float(r)
        x0, x1 = math.floor(px - r), math.ceil(px + r) + 1
        y0, y1 = math.floor(py - r), math.ceil(py + r) + 1
        out.append([PatchBox(image=i, x0=x0, x1=x1, y0=y0, y1=y1)
                    for i in range(n_images)])
    return out


def _boxes_touch(a: list[PatchBox], b: list[PatchBox]) -> bool:
    # Cross product, not zip: a source off one image has fewer boxes, so
    # positional pairing would silently misalign images.
    return any(ba.overlaps(bb) for ba in a for bb in b)


def verify_batches(boxes, batches) -> list[ScheduleViolation]:
    """Check a sequence of batches against per-source patch boxes.

    ``boxes`` maps source index -> list of :class:`PatchBox` (one per
    image).  ``batches`` is an iterable of batch plans; each plan is a
    sequence of per-thread source-index lists (the
    ``CycladesBatch.thread_assignments`` shape).  Returns all violations
    found (empty list == proven safe).
    """
    violations: list[ScheduleViolation] = []
    for b_idx, assignments in enumerate(batches):
        assignments = [list(a) for a in assignments]

        # Duplicates within a batch: a source updated twice concurrently is
        # a race with itself regardless of geometry.
        seen: dict[int, int] = {}
        for t, assignment in enumerate(assignments):
            for s in assignment:
                if s in seen:
                    violations.append(ScheduleViolation(
                        kind="duplicate", batch=b_idx, sources=(s,),
                        detail="appears on threads %d and %d" % (seen[s], t)))
                else:
                    seen[s] = t

        # Pixel disjointness across threads: every cross-thread pair must
        # have disjoint boxes on every image.
        flat = [(s, t) for t, assignment in enumerate(assignments)
                for s in assignment]
        for i in range(len(flat)):
            si, ti = flat[i]
            for j in range(i + 1, len(flat)):
                sj, tj = flat[j]
                if ti == tj:
                    continue
                if _boxes_touch(boxes[si], boxes[sj]):
                    violations.append(ScheduleViolation(
                        kind="overlap", batch=b_idx, sources=(si, sj),
                        detail="threads %d/%d write overlapping pixel boxes "
                               "%s and %s" % (ti, tj, boxes[si][0],
                                              boxes[sj][0])))

        # Component atomicity: BFS over the box-overlap relation restricted
        # to this batch's sample; each component must be single-thread.
        sample = sorted(seen)
        thread_of = seen
        adj = {s: [] for s in sample}
        for i in range(len(sample)):
            for j in range(i + 1, len(sample)):
                if _boxes_touch(boxes[sample[i]], boxes[sample[j]]):
                    adj[sample[i]].append(sample[j])
                    adj[sample[j]].append(sample[i])
        visited: set[int] = set()
        for root in sample:
            if root in visited:
                continue
            component = [root]
            visited.add(root)
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for other in adj[node]:
                    if other not in visited:
                        visited.add(other)
                        component.append(other)
                        frontier.append(other)
            threads = sorted({thread_of[s] for s in component})
            if len(threads) > 1:
                violations.append(ScheduleViolation(
                    kind="split-component", batch=b_idx,
                    sources=tuple(sorted(component)),
                    detail="connected component spans threads %s" % (
                        threads,)))
    return violations


def verify_conflict_edges(boxes, adjacency) -> list[ScheduleViolation]:
    """Check that every pair of sources whose patch boxes touch is an
    edge of the conflict graph (``adjacency``: one neighbour set per
    source).  A missing edge lets the two run together in a lockstep
    whatever their rounds.  Violations carry ``batch == -1``: the graph
    is not one batch's."""
    violations: list[ScheduleViolation] = []
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if j not in adjacency[i] and _boxes_touch(boxes[i], boxes[j]):
                violations.append(ScheduleViolation(
                    kind="missing-edge", batch=-1, sources=(i, j),
                    detail="pixel boxes %s and %s overlap with no conflict "
                           "edge" % (boxes[i][0], boxes[j][0])))
    return violations


def verify_plan(positions, radii, batches,
                n_images: int = 1) -> list[ScheduleViolation]:
    """End-to-end check from raw geometry: round boxes, then verify."""
    return verify_batches(boxes_from_plan(positions, radii, n_images),
                          batches)


def audit_random_schedule(seed: int = 0, n_sources: int = 200,
                          extent: float = 300.0, n_threads: int = 4,
                          n_rounds: int = 3) -> int:
    """Drive the *real* scheduler on random geometry and verify its output.

    Generates seeded random positions and radii, builds the production
    conflict graph and Cyclades batches (imported lazily so the checker
    logic above never depends on the code it audits), and verifies the
    graph's edges and every batch.  Returns the number of batches proven safe; raises
    :class:`ScheduleError` if any violation is found.
    """
    import numpy as np

    from repro.parallel.conflict import build_conflict_graph
    from repro.parallel.cyclades import cyclades_batches

    rng = np.random.default_rng(seed)
    n_checked = 0
    for round_idx in range(n_rounds):
        positions = rng.uniform(0.0, extent, size=(n_sources, 2))
        radii = rng.uniform(2.0, 9.0, size=n_sources)
        graph = build_conflict_graph(positions, radii)
        boxes = boxes_from_plan(positions, radii)
        batches = cyclades_batches(graph, n_threads=n_threads, rng=rng)
        plans = [b.thread_assignments for b in batches]
        violations = (verify_conflict_edges(boxes, graph.adjacency)
                      + verify_batches(boxes, plans))
        if violations:
            raise ScheduleError(violations)
        n_checked += len(plans)
    return n_checked
