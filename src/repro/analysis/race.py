"""Shadow-transport race detector: runtime overlap checking for one-sided
RMA and Cyclades patch writes.

The driver's correctness argument is *disjointness*: concurrently scheduled
tasks touch disjoint catalog rows (snapshot discipline), and concurrently
scheduled sources within a region touch disjoint pixels (Cyclades).  Those
arguments are proven statically where possible
(:mod:`repro.analysis.schedule`) — this module checks them dynamically, on
real executions, where static reasoning cannot reach (e.g. the actual
read/write sets of a task depend on its halo).

The pieces, in the style of
:class:`repro.pgas.transport.RecordingTransport`:

:class:`ShadowTransport`
    Wraps any transport; every ``get``/``put``/``accumulate`` is forwarded
    unchanged and also recorded as a :class:`ShadowAccess` tagged with the
    wrapper's current (actor, epoch) — set per task via :meth:`set_task`.

:class:`RaceDetector`
    Receives accesses (directly, or shipped from worker processes via
    :class:`AccessLog`) and reports any write/write or read/write overlap
    between *different actors in the same logical epoch*.  Different epochs
    never conflict: an epoch boundary is a synchronization point (a
    Cyclades batch barrier, a driver stage).

Enabled via ``ParallelRegionConfig.race_detect`` / ``REPRO_RACE_DETECT=1``;
findings surface in :class:`repro.perf.driver.DriverReport`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShadowAccess",
    "RaceReport",
    "RaceDetector",
    "AccessLog",
    "ShadowTransport",
]


@dataclass(frozen=True)
class ShadowAccess:
    """One recorded access: who touched which extent of which window, when.

    Extents are half-open: 1-D RMA ranges use ``x`` in *elements* with
    ``(y0, y1) == (0, 1)``; 2-D pixel writes use both axes.  All fields are
    primitives/tuples so accesses pickle cleanly out of worker processes.
    """

    window: tuple  # e.g. ("cat-work", rank) or ("model", image_index)
    op: str  # "get" | "put" | "accumulate"
    x0: int
    x1: int
    y0: int
    y1: int
    actor: tuple  # e.g. ("task", 12) or ("cyclades-thread", 3)
    epoch: tuple  # e.g. ("stage", 1) or ("pass", 0, "batch", 2)
    tag: tuple | None = None  # free-form context, e.g. ("source", 17)

    @property
    def is_write(self) -> bool:
        return self.op in ("put", "accumulate")

    def overlaps(self, other: "ShadowAccess") -> bool:
        return (self.x0 < other.x1 and other.x0 < self.x1
                and self.y0 < other.y1 and other.y0 < self.y1)


@dataclass(frozen=True)
class RaceReport:
    """One detected conflict between two concurrently scheduled accesses."""

    kind: str  # "write/write" | "read/write"
    window: tuple
    epoch: tuple
    actor_a: tuple
    actor_b: tuple
    extent: tuple  # overlapping half-open box (x0, x1, y0, y1)
    tag_a: tuple | None = None
    tag_b: tuple | None = None

    def describe(self) -> str:
        def _who(actor, tag):
            return "%s%s" % (actor, " %s" % (tag,) if tag else "")

        return "%s race on window %s in epoch %s: %s vs %s over %s" % (
            self.kind, self.window, self.epoch,
            _who(self.actor_a, self.tag_a), _who(self.actor_b, self.tag_b),
            self.extent,
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "window": list(self.window),
            "epoch": list(self.epoch),
            "actor_a": list(self.actor_a),
            "actor_b": list(self.actor_b),
            "extent": list(self.extent),
            "tag_a": list(self.tag_a) if self.tag_a else None,
            "tag_b": list(self.tag_b) if self.tag_b else None,
        }


def _conflict(a: ShadowAccess, b: ShadowAccess) -> RaceReport | None:
    """A conflict is two *different actors*, same epoch + window, touching
    overlapping extents, at least one writing."""
    if a.actor == b.actor or a.epoch != b.epoch or a.window != b.window:
        return None
    if not (a.is_write or b.is_write):
        return None
    if a.op == "accumulate" and b.op == "accumulate":
        # The window store serializes accumulate per rank as an atomic
        # read-modify-write (in process and, through the socket server,
        # across processes), so concurrent accumulates never lose
        # updates — the one overlapping access pattern MPI-3 defines as
        # correct without external synchronization.  The detector treats
        # them as benign, like the hardware does; a get or put overlapping
        # an accumulate is still reported.
        return None
    if not a.overlaps(b):
        return None
    kind = "write/write" if (a.is_write and b.is_write) else "read/write"
    # Canonical actor order so (a, b) and (b, a) dedup to one report.
    first, second = sorted((a, b), key=lambda acc: (acc.actor, acc.tag or ()))
    extent = (max(a.x0, b.x0), min(a.x1, b.x1),
              max(a.y0, b.y0), min(a.y1, b.y1))
    return RaceReport(
        kind=kind, window=a.window, epoch=a.epoch,
        actor_a=first.actor, actor_b=second.actor,
        extent=extent, tag_a=first.tag, tag_b=second.tag,
    )


class RaceDetector:
    """Collects accesses and reports conflicts (thread-safe).

    Accesses are grouped by (epoch, window): epoch boundaries are
    synchronization points, so only same-epoch accesses can race, and a
    finished epoch's accesses can never conflict with later ones —
    :meth:`seal_before` prunes them to bound memory on long runs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._accesses: dict[tuple, list[ShadowAccess]] = {}
        self._seen: set[tuple] = set()
        self.reports: list[RaceReport] = []

    def record(self, access: ShadowAccess) -> None:
        key = (access.epoch, access.window)
        with self._lock:
            peers = self._accesses.setdefault(key, [])
            for other in peers:
                report = _conflict(access, other)
                if report is None:
                    continue
                dedup = (report.kind, report.window, report.epoch,
                         report.actor_a, report.actor_b,
                         report.tag_a, report.tag_b)
                if dedup not in self._seen:
                    self._seen.add(dedup)
                    self.reports.append(report)
            peers.append(access)

    def ingest(self, accesses) -> None:
        """Feed accesses shipped from elsewhere (worker processes)."""
        for access in accesses:
            self.record(access)

    def absorb(self, reports) -> None:
        """Adopt pre-detected reports (e.g. from a region-local detector
        inside a worker process), deduplicated against our own."""
        with self._lock:
            for report in reports:
                dedup = (report.kind, report.window, report.epoch,
                         report.actor_a, report.actor_b,
                         report.tag_a, report.tag_b)
                if dedup not in self._seen:
                    self._seen.add(dedup)
                    self.reports.append(report)

    def seal_before(self, epoch: tuple) -> None:
        """Drop recorded accesses from epochs other than ``epoch`` (their
        conflicts, if any, are already in ``reports``)."""
        with self._lock:
            for key in [k for k in self._accesses if k[0] != epoch]:
                del self._accesses[key]

    @property
    def n_reports(self) -> int:
        with self._lock:
            return len(self.reports)


class AccessLog:
    """Per-process access sink: records now, drains for shipping later.

    Worker processes cannot see the parent's :class:`RaceDetector`; they
    record into an :class:`AccessLog` and the drained (picklable) accesses
    ride the existing result-queue messages back to the parent, which
    ingests them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._accesses: list[ShadowAccess] = []

    def record(self, access: ShadowAccess) -> None:
        with self._lock:
            self._accesses.append(access)

    def drain(self) -> list[ShadowAccess]:
        with self._lock:
            out = self._accesses
            self._accesses = []
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._accesses)


class ShadowTransport:
    """Transport wrapper that shadows every RMA operation into a sink.

    ``sink`` is anything with ``record(ShadowAccess)`` — a
    :class:`RaceDetector` (thread executor: detect inline) or an
    :class:`AccessLog` (process executor: collect, ship, detect in the
    parent).  ``window_name`` names the logical window this transport's
    ranks belong to (one wrapper per logical array, e.g. ``"cat-base"`` /
    ``"cat-work"``).

    The (actor, epoch) identity is set per unit of work via
    :meth:`set_task`; a wrapper is used by one logical worker at a time
    (each node-worker thread / worker process wraps its own view), matching
    how :class:`~repro.pgas.transport.RecordingTransport` views are used.
    """

    def __init__(self, inner, sink, window_name: str,
                 actor: tuple = ("?",), epoch: tuple = ()):
        self.inner = inner
        self.sink = sink
        self.window_name = window_name
        self.actor = actor
        self.epoch = epoch

    def set_task(self, actor: tuple, epoch: tuple) -> None:
        self.actor = actor
        self.epoch = epoch

    def _shadow(self, op: str, rank: int, start: int, count: int) -> None:
        self.sink.record(ShadowAccess(
            window=(self.window_name, int(rank)), op=op,
            x0=int(start), x1=int(start + count), y0=0, y1=1,
            actor=self.actor, epoch=self.epoch,
        ))

    def allocate(self, rank: int, n_elements: int) -> None:
        self.inner.allocate(rank, n_elements)

    def get(self, rank: int, start: int, count: int) -> np.ndarray:
        self._shadow("get", rank, start, count)
        return self.inner.get(rank, start, count)

    def put(self, rank: int, start: int, values) -> None:
        values = np.asarray(values, dtype=float)
        self._shadow("put", rank, start, values.size)
        self.inner.put(rank, start, values)

    def accumulate(self, rank: int, start: int, values) -> None:
        values = np.asarray(values, dtype=float)
        self._shadow("accumulate", rank, start, values.size)
        self.inner.accumulate(rank, start, values)
