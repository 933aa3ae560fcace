"""Instrumentation counters.

A tiny registry of named counters incremented by the inference code:
``active_pixel_visits`` (the paper's FLOP-accounting unit), Newton
iterations, objective evaluations (plus per-backend tallies and
``kl_evaluations`` for KL-only calls, all counted by the backend-neutral
front end so totals are identical whichever ELBO backend ran), RMA get/put
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

**Lanes per sweep.**  ``elbo_batch_lanes / elbo_batch_calls`` is the width
of a *call*.  The fused kernel stacks only lanes of equal patch shape, so
one call runs as one pixel sweep per shape group; it counts those as
``elbo_sweep_calls`` / ``elbo_sweep_lanes``, and their ratio is the width
the stacked NumPy sweeps actually ran at (about one on survey data, where
patch shapes rarely coincide).
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
        FLOP unit) and the evaluation tallies on every call, whichever ELBO
        backend ran — batching them keeps the hot path to a single lock
        round-trip and guarantees the counts can never be torn across
        backends by a concurrent snapshot.
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
