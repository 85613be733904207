"""The chaos scenario harness.

A :class:`Scenario` names a failure story (backend death under memcached
load, migration under a dirty-page storm, NGINX at 5 % packet loss...),
carries a default :class:`~repro.faults.plan.FaultPlan` factory, and a
body that drives real substrate objects while asserting *recovery
invariants* — properties that must hold even while faults are landing.

Runs are deterministic end to end: the harness derives each scenario's
plan seed from the run seed and the scenario name, the body draws any
randomness it needs from a :class:`~repro.perf.rand.DeterministicRng`
fork, and the clock is simulated — so two runs with the same seed
produce byte-identical :class:`ScenarioResult` sequences, making every
chaos failure replayable with ``repro chaos --seed S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.faults.plan import FaultEngine, FaultPlan, SiteCounters
from repro.faults.retry import RetryExhausted
from repro.perf.clock import SimClock
from repro.perf.rand import DeterministicRng

if TYPE_CHECKING:
    from repro.fuzz.steps import Step
    from repro.obs.probe import Probe


class InvariantViolation(AssertionError):
    """A recovery invariant failed while (or after) faults were injected."""


@dataclass
class ScenarioContext:
    """What a scenario body gets to work with."""

    clock: SimClock
    engine: FaultEngine
    rng: DeterministicRng
    #: The probe the body hands every substrate it constructs: routes to
    #: :attr:`engine` (and a sanitizer suite under ``repro sanitize``).
    probe: Probe
    #: Invariants checked so far (descriptions, pass/fail recorded).
    invariants: list[str] = field(default_factory=list)

    def check(self, condition: bool, invariant: str) -> None:
        """Assert a recovery invariant; failures abort the scenario."""
        if not condition:
            self.invariants.append(f"FAIL {invariant}")
            raise InvariantViolation(invariant)
        self.invariants.append(f"ok   {invariant}")


@dataclass(frozen=True)
class Scenario:
    """One named failure story with its default fault plan."""

    name: str
    description: str
    #: Substrates this scenario guarantees ≥1 injection into (with its
    #: default plan) — the acceptance-coverage ledger.
    substrates: tuple[str, ...]
    #: Builds the default plan for a given seed.
    default_plan: Callable[[int | str], FaultPlan]
    #: Drives the substrates; returns deterministic result details.
    body: Callable[[ScenarioContext], dict]

    @classmethod
    def from_steps(
        cls,
        name: str,
        description: str,
        steps: Iterable[Step],
        substrates: Iterable[str] = (),
        world_seed: int | str = 0,
    ) -> "Scenario":
        """Build a scenario from a serialized fuzzer step sequence.

        The declarative constructor over the same :class:`Step` type the
        stateful fuzzer (:mod:`repro.fuzz`) emits: the body replays the
        steps through a :class:`~repro.fuzz.world.FuzzWorld` wired to the
        scenario context's clock and probe, checking
        the full fuzz invariant set after every step.  Promoted shrunk
        failures become first-class catalog entries this way — register
        the result with :func:`repro.faults.registry.register`.

        The default plan is empty: faults enter through ``inject_fault``
        steps, which :meth:`~repro.faults.plan.FaultEngine.arm` specs on
        the context's engine so injections land in the chaos report like
        any hand-written scenario's.
        """
        step_tuple = tuple(steps)

        def body(ctx: ScenarioContext) -> dict:
            from repro.fuzz.replay import run_steps_in_context

            return run_steps_in_context(ctx, step_tuple, world_seed)

        return cls(
            name=name,
            description=description,
            substrates=tuple(substrates),
            default_plan=lambda seed: FaultPlan((), seed),
            body=body,
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run (deterministic for a given seed)."""

    name: str
    outcome: str  # "recovered" | "fatal" | "invariant-violated"
    injected: int
    retried: int
    recovered: int
    fatal: int
    #: Sites that actually saw an injection.
    injected_sites: tuple[str, ...]
    #: Substrates those sites belong to.
    injected_substrates: tuple[str, ...]
    #: Scenario-specific counters (ints/strings only — kept render-stable).
    details: tuple[tuple[str, object], ...]
    invariants: tuple[str, ...]
    failure: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "recovered"


class ChaosHarness:
    """Runs scenarios deterministically under a run seed."""

    def __init__(self, seed: int | str = 0) -> None:
        self.seed = seed

    def scenario_seed(self, scenario: Scenario) -> str:
        return f"{self.seed}:{scenario.name}"

    def run(
        self,
        scenario: Scenario,
        plan: FaultPlan | None = None,
        sanitizers: Any = None,
    ) -> ScenarioResult:
        """Run one scenario under its (or an explicit) fault plan."""
        from repro.obs.probe import Probe

        seed = self.scenario_seed(scenario)
        if plan is None:
            plan = scenario.default_plan(seed)
        clock = SimClock()
        engine = plan.compile(clock)
        context = ScenarioContext(
            clock=clock,
            engine=engine,
            rng=DeterministicRng(seed).fork("body"),
            probe=Probe(engine, sanitizers),
        )
        failure = ""
        details: dict = {}
        try:
            details = scenario.body(context) or {}
            outcome = "recovered"
        except InvariantViolation as exc:
            outcome = "invariant-violated"
            failure = str(exc)
        except RetryExhausted as exc:
            outcome = "fatal"
            failure = str(exc)
        except Exception as exc:  # noqa: BLE001 — chaos must not hang the run
            outcome = "fatal"
            failure = f"{type(exc).__name__}: {exc}"
        totals: SiteCounters = engine.totals()
        if outcome == "recovered" and totals.fatal > 0:
            # A substrate recorded an unrecovered fault even though the
            # body completed — e.g. a swallowed reset.  Not a recovery.
            outcome = "fatal"
            failure = f"{totals.fatal} unrecovered fault(s) in counters"
        return ScenarioResult(
            name=scenario.name,
            outcome=outcome,
            injected=totals.injected,
            retried=totals.retried,
            recovered=totals.recovered,
            fatal=totals.fatal,
            injected_sites=engine.injected_sites(),
            injected_substrates=tuple(sorted(engine.injected_substrates())),
            details=tuple(sorted(details.items())),
            invariants=tuple(context.invariants),
            failure=failure,
        )
