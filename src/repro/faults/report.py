"""Chaos run reports — deterministic, replayable, diffable.

``run_scenarios(seed)`` executes the shipped catalog under one run seed
and returns a :class:`ChaosReport` whose :meth:`ChaosReport.render` is
byte-identical for the same seed + plan (the acceptance bar for
``repro chaos --seed S``): fixed column widths, stable ordering, integer
counters only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.chaos import ChaosHarness, ScenarioResult
from repro.faults.scenarios import get_scenario, scenario_names
from repro.faults.sites import CORE_SUBSTRATES

_RULE = "-" * 72


@dataclass(frozen=True)
class ChaosReport:
    """All scenario results for one run seed."""

    seed: int | str
    results: tuple[ScenarioResult, ...]

    @property
    def all_recovered(self) -> bool:
        return all(result.ok for result in self.results)

    def substrates_injected(self) -> tuple[str, ...]:
        covered: set[str] = set()
        for result in self.results:
            covered.update(result.injected_substrates)
        return tuple(sorted(covered))

    def core_coverage_ok(self) -> bool:
        """Did the run inject ≥1 fault into every core substrate?"""
        return set(CORE_SUBSTRATES) <= set(self.substrates_injected())

    def totals(self) -> tuple[int, int, int, int]:
        return (
            sum(r.injected for r in self.results),
            sum(r.retried for r in self.results),
            sum(r.recovered for r in self.results),
            sum(r.fatal for r in self.results),
        )

    def as_dict(self) -> dict:
        """JSON-ready view (``repro chaos --format json``) — same data
        as :meth:`render`, deterministically ordered."""
        injected, retried, recovered, fatal = self.totals()
        return {
            "seed": self.seed,
            "scenarios": [
                {
                    "name": r.name,
                    "outcome": r.outcome,
                    "injected": r.injected,
                    "retried": r.retried,
                    "recovered": r.recovered,
                    "fatal": r.fatal,
                    "injected_sites": list(r.injected_sites),
                    "injected_substrates": list(r.injected_substrates),
                    "details": {k: str(v) for k, v in r.details},
                    "invariants": list(r.invariants),
                    "failure": r.failure,
                }
                for r in self.results
            ],
            "totals": {
                "injected": injected,
                "retried": retried,
                "recovered": recovered,
                "fatal": fatal,
            },
            "substrates_injected": list(self.substrates_injected()),
            "all_recovered": self.all_recovered,
            "core_coverage_ok": self.core_coverage_ok(),
        }

    def render(self) -> str:
        lines = [
            f"chaos run  seed={self.seed}  scenarios={len(self.results)}",
            _RULE,
            f"{'scenario':<28}{'outcome':<20}"
            f"{'inj':>6}{'rty':>6}{'rec':>6}{'fat':>6}",
            _RULE,
        ]
        for result in self.results:
            lines.append(
                f"{result.name:<28}{result.outcome:<20}"
                f"{result.injected:>6}{result.retried:>6}"
                f"{result.recovered:>6}{result.fatal:>6}"
            )
            for key, value in result.details:
                lines.append(f"    {key} = {value}")
            for invariant in result.invariants:
                lines.append(f"    [{invariant[:2].strip()}] {invariant[5:]}")
            if result.failure:
                lines.append(f"    !! {result.failure}")
        lines.append(_RULE)
        injected, retried, recovered, fatal = self.totals()
        lines.append(
            f"totals: injected={injected} retried={retried} "
            f"recovered={recovered} fatal={fatal}"
        )
        lines.append("substrates injected:")
        covered = set(self.substrates_injected())
        for substrate in sorted(covered | set(CORE_SUBSTRATES)):
            mark = "x" if substrate in covered else " "
            core = " (core)" if substrate in CORE_SUBSTRATES else ""
            lines.append(f"  [{mark}] {substrate}{core}")
        verdict = (
            "ALL RECOVERED"
            if self.all_recovered
            else "FAILURES: "
            + ", ".join(r.name for r in self.results if not r.ok)
        )
        coverage = (
            "core substrate coverage: complete"
            if self.core_coverage_ok()
            else "core substrate coverage: INCOMPLETE"
        )
        lines.append(verdict)
        lines.append(coverage)
        return "\n".join(lines) + "\n"


def run_scenarios(
    seed: int | str = 0, names: list[str] | None = None
) -> ChaosReport:
    """Run the named scenarios (default: the whole catalog) under ``seed``."""
    harness = ChaosHarness(seed)
    selected = names if names is not None else scenario_names()
    results = tuple(
        harness.run(get_scenario(name)) for name in selected
    )
    return ChaosReport(seed=seed, results=results)
