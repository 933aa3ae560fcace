"""Instrumentation counters.

A tiny registry of named counters incremented by the inference code:
``active_pixel_visits`` (the paper's FLOP-accounting unit), Newton
iterations, objective evaluations (and ``kl_evaluations`` for KL-only
calls, both counted by the objective front end), RMA get/put
operations, and bytes loaded.  Thread-safe, since Cyclades runs source
updates concurrently.

**Batch occupancy.**  The batched objective front end
(:func:`repro.core.elbo.elbo_batch`) counts ``elbo_batch_calls``,
``elbo_batch_lanes`` (lanes swept, active or not), and
``elbo_batch_lanes_active``.  A lockstep solve keeps converged sources'
lanes in its compiled stacks until it repacks, so swept-but-inactive lanes
are real wasted pixel work; :func:`batch_occupancy` turns the counters
into the fraction of swept lanes that were live — 1.0 means no waste,
and a low value means the repack threshold is letting dead lanes ride
too long.

``elbo_batch_lanes / elbo_batch_calls`` is the width of a *call*: what
its lanes share (the chain, the prologue over every (lane, patch) pair,
the chain rule and the KL stack) runs once per call, and the pixels one
pass per pair.

**Region setup.**  ``contribution_renders`` counts the actual
:func:`repro.core.joint.expected_contribution` calls (region setup misses
and every fold-back of a source update), and ``contribution_reuses`` the
setup renders a seat's :class:`repro.core.joint.ContributionStore` served
instead.  Their sum is what region setup plus fold-back would render
without a store; the counts are exact on one seat and depend on how tasks
fall onto seats otherwise.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Counters", "GLOBAL_COUNTERS", "batch_occupancy", "counting"]


def batch_occupancy(snapshot: dict) -> float:
    """Fraction of swept evaluation-batch lanes that were active, from a
    counter snapshot; 1.0 when no batched evaluations ran (no waste)."""
    lanes = snapshot.get("elbo_batch_lanes", 0.0)
    if lanes <= 0.0:
        return 1.0
    return snapshot.get("elbo_batch_lanes_active", 0.0) / lanes


class Counters:
    """A concurrent bag of named integer counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._values[name] += amount

    def add_many(self, amounts: dict) -> None:
        """Increment several counters under one lock acquisition.

        The objective front end counts ``active_pixel_visits`` (the paper's
        FLOP unit) and the evaluation tally on every call — batching them
        keeps the hot path to a single lock round-trip and guarantees the
        counts can never be torn by a concurrent snapshot.
        """
        with self._lock:
            for name, amount in amounts.items():
                self._values[name] += amount

    def get(self, name: str) -> float:
        with self._lock:
            return self._values.get(name, 0.0)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._values)

    def reset(self, name: str | None = None) -> None:
        with self._lock:
            if name is None:
                self._values.clear()
            else:
                self._values.pop(name, None)

    def __repr__(self):
        return "Counters(%r)" % (self.snapshot(),)


#: Process-wide counters used by the inference engine by default.
GLOBAL_COUNTERS = Counters()


@contextmanager
def counting(counters: Counters | None = None):
    """Context manager yielding a fresh counter bag and merging it into the
    global registry on exit (so nested scopes can be measured separately)."""
    local = counters if counters is not None else Counters()
    try:
        yield local
    finally:
        if local is not GLOBAL_COUNTERS:
            for name, value in local.snapshot().items():
                GLOBAL_COUNTERS.add(name, value)
