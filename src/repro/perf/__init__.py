"""Performance measurement: counters, FLOP accounting, and the driver report.

Reproduces the paper's measurement methodology (Section VI-B): FLOPs are
derived from *active pixel visits* — each visit performs 32,317 DP FLOPs (an
SDE-measured constant), and work outside the objective function scales the
total by 1.375x.
"""

from repro.perf.counters import (
    Counters,
    GLOBAL_COUNTERS,
    batch_occupancy,
    counting,
)
from repro.perf.flops import flops_from_visits, flop_rate, FlopReport
from repro.perf.driver import DriverReport

__all__ = [
    "batch_occupancy",
    "Counters",
    "GLOBAL_COUNTERS",
    "counting",
    "flops_from_visits",
    "flop_rate",
    "FlopReport",
    "DriverReport",
]
