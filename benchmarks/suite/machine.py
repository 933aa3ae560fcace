"""The machine-speed probe the time metrics are calibrated against.

The box this benchmark runs on is shared: with nothing else running in
the sandbox, a fixed NumPy loop runs 5.3 to 9.1 ms per step from one
second to the next (no steal time is reported; the cores themselves slow
down), identical ``run_pipeline`` calls range over 40% within five
minutes, and the whole machine moves between regimes that last tens of
minutes (the same six-field survey: 4.7 s a call in one half hour, 6.0 s
in the next, +27% - more than any bound a benchmark may declare).  No
statistic of the calls alone survives that, so every run also times a
fixed reference kernel, in a window before the first call and after each
one, and reports

    time = median over calls of
           call x REFERENCE_CHUNK_S / mean chunk of the two windows around it

i.e. seconds at the speed of the reference box.  Measured over 297
back-to-back calls in three sessions, four at a time: the raw median
call spreads 14.0% (IQR/median, sessions pooled), the fastest call over
the fastest chunk 8.8%, the figure above 6.9%; over ten seeds of the four
workloads in four half hours the raw median call spreads 7-39% and the
figure above 4-14% (README.md has the table).  The raw wall clock is kept
next to it (``harness.wall_to_catalog_s``, ``harness.machine_slowdown``).

**The kernel below defines the unit of every time metric.**  Do not edit
it, its array, or its iteration count: a change here moves every
baseline and means nothing about the program.
"""

from __future__ import annotations

import time

import numpy as np

#: A reference chunk on the reference box in a quiet spell (2-core Xeon @
#: 2.1 GHz, Python 3.11, NumPy 2.4, one BLAS thread).
REFERENCE_CHUNK_S = 0.055

_ARRAY = np.random.default_rng(0).random((40, 40))
_ITERATIONS = 6000


def reference_chunk() -> float:
    """Seconds for one chunk of the reference kernel: small-array NumPy
    calls from a Python loop — the dispatch-bound mix the ELBO kernel
    is."""
    a = _ARRAY
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        b = np.exp(-a * a)
        total += float((b * a).sum())
        b @ a[:, :8]
    return time.perf_counter() - t0


class SpeedProbe:
    """Windows of reference chunks sampled across one run."""

    def __init__(self, chunks_per_window: int = 9):
        self.chunks_per_window = chunks_per_window
        #: Chunk times of each window, in sampling order.
        self.windows: list[list[float]] = []

    def sample(self, chunks: int | None = None) -> None:
        """Time one window of reference chunks (``chunks_per_window``,
        about half a second, unless ``chunks`` says otherwise)."""
        self.windows.append([reference_chunk() for _ in range(
            chunks or self.chunks_per_window)])

    def around(self) -> float:
        """Slowdown over the two latest windows - the ones before and
        after whatever ran between them: their mean chunk over the
        reference box's.  1.0 on the quiet reference box, 1.3 on a
        machine (or in a spell) that runs the kernel 30% slower."""
        chunks = self.windows[-2] + self.windows[-1]
        return sum(chunks) / len(chunks) / REFERENCE_CHUNK_S
