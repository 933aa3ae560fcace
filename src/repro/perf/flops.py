"""FLOP accounting from active pixel visits (paper Section VI-B).

The paper determines total FLOPs by counting active pixel visits and
multiplying by the SDE-measured 32,317 FLOPs/visit, then by 1.375 to account
for work outside the objective function (trust-region eigendecompositions,
Cholesky factorizations, ...).  Table I reports the resulting sustained
TFLOP/s under three accounting scopes that include progressively more wall
time: task processing only, plus load imbalance, plus image loading.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import FLOP_OVERHEAD_FACTOR, FLOPS_PER_ACTIVE_PIXEL_VISIT

__all__ = ["flops_from_visits", "flop_rate", "visit_rate", "FlopReport"]


def flops_from_visits(active_pixel_visits: float) -> float:
    """Total DP FLOPs implied by a count of active pixel visits.

    A *visit* is one evaluation of one source's contribution to one active
    pixel together with its derivatives.  The objective front end
    (:mod:`repro.core.elbo`) counts visits independently of how the kernel
    computes them, so FLOP totals stay comparable across kernel versions:
    a faster kernel shows up as a higher sustained rate over the *same*
    visit count, exactly how the paper accounts its hand-optimized
    kernels.  The KL terms of the objective are pixel-count-independent
    and contribute **zero** visits.
    """
    return active_pixel_visits * FLOPS_PER_ACTIVE_PIXEL_VISIT * FLOP_OVERHEAD_FACTOR


def flop_rate(active_pixel_visits: float, seconds: float) -> float:
    """Sustained FLOP/s over a wall-clock interval."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return flops_from_visits(active_pixel_visits) / seconds


def visit_rate(active_pixel_visits: float, seconds: float) -> float:
    """Active-pixel visits per second — the throughput unit benchmarks
    record (``BENCH_elbo_backend.json``)."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return active_pixel_visits / seconds


@dataclass(frozen=True)
class FlopReport:
    """Sustained FLOP rates under the paper's three accounting scopes.

    Each scope divides the same total FLOPs by a progressively larger share
    of the wall clock, mirroring Table I.
    """

    active_pixel_visits: float
    task_processing_seconds: float
    load_imbalance_seconds: float
    image_loading_seconds: float

    @property
    def total_flops(self) -> float:
        return flops_from_visits(self.active_pixel_visits)

    @property
    def rate_task_processing(self) -> float:
        """FLOP/s over task-processing time only (Table I column 1)."""
        return self.total_flops / self.task_processing_seconds

    @property
    def rate_with_imbalance(self) -> float:
        """FLOP/s including load-imbalance time (Table I column 2)."""
        return self.total_flops / (
            self.task_processing_seconds + self.load_imbalance_seconds
        )

    @property
    def rate_with_io(self) -> float:
        """FLOP/s including image-loading time too (Table I column 3)."""
        return self.total_flops / (
            self.task_processing_seconds
            + self.load_imbalance_seconds
            + self.image_loading_seconds
        )

    def as_table(self) -> dict[str, float]:
        """Table I rows, in TFLOP/s."""
        return {
            "task processing": self.rate_task_processing / 1e12,
            "+load imbalance": self.rate_with_imbalance / 1e12,
            "+image loading": self.rate_with_io / 1e12,
        }
