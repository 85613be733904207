"""Deterministic fault injection and resilience (``repro.faults``).

§3.3 claims X-Containers inherit VM-grade resilience (Remus fault
tolerance, checkpoint/restore live migration); this package is how the
repository *tests* that claim instead of asserting it.  It provides:

* :mod:`~repro.faults.plan` — the seed-driven ``FaultPlan`` DSL and the
  compiled :class:`~repro.faults.plan.FaultEngine`;
* :mod:`~repro.faults.sites` — the one catalog of probe sites (fault,
  fault-lifecycle, sanitizer and trace events) the substrates fire
  through their ``probe=None`` attribute;
* :mod:`~repro.faults.retry` — bounded retry/backoff policies the
  frontends adopt so injected faults are survivable;
* :mod:`~repro.faults.chaos` / :mod:`~repro.faults.scenarios` — named
  failure scenarios with recovery invariants; the catalog is a plain
  ordered tuple, looked up with :func:`get_scenario` and listed with
  :func:`scenario_names`;
* :mod:`~repro.faults.report` — the ``repro chaos`` run report.

Only the light pieces are imported eagerly (substrates import site names
and retry policies from here); the catalog is built on its first lookup,
so importing this package does not import :mod:`repro.fuzz`.
"""

from repro.faults.plan import (
    Every,
    Fault,
    FaultEngine,
    FaultPlan,
    FaultSpec,
    Nth,
    Probability,
    SiteCounters,
    TimeWindow,
)
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.faults.scenarios import get_scenario, scenario_names

__all__ = [
    "Every",
    "Fault",
    "FaultEngine",
    "FaultPlan",
    "FaultSpec",
    "Nth",
    "Probability",
    "RetryExhausted",
    "RetryPolicy",
    "SiteCounters",
    "TimeWindow",
    "get_scenario",
    "scenario_names",
]
