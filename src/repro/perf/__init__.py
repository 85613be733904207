"""Performance substrate: simulated time, calibrated costs, statistics.

Everything in the repository that "measures" performance does so against the
:class:`~repro.perf.clock.SimClock` and charges costs taken from a single
:class:`~repro.perf.costs.CostModel` instance.  Keeping every nanosecond
constant in one module makes the calibration auditable: each constant carries
a comment naming the paper ratio it anchors.
"""

from repro.perf.clock import SimClock
from repro.perf.costs import CostModel, MachineSpec
from repro.perf.rand import DeterministicRng
from repro.perf.stats import RunStats, percentile, summarize

__all__ = [
    "SimClock",
    "CostModel",
    "MachineSpec",
    "DeterministicRng",
    "RunStats",
    "percentile",
    "summarize",
]
