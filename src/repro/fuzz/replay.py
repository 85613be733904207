"""Deterministic replay of serialized step sequences.

The other half of the shrink contract: a failing sequence the machine
found is only a *repro* if a fresh world re-executes it byte-identically
— same trace, same invariant, same failure step.  :func:`replay_steps`
is that fresh-world execution; :func:`run_steps_in_context` is the same
thing wired into a chaos :class:`~repro.faults.chaos.ScenarioContext`,
which is how :meth:`Scenario.from_steps` promotions run under
``repro chaos`` and the sanitize harness.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.faults.chaos import InvariantViolation
from repro.fuzz.steps import Step
from repro.fuzz.world import INVARIANTS, FuzzWorld


def replay_steps(
    steps: Iterable[Step],
    world_seed: int | str = 0,
    defect: str | None = None,
) -> str:
    """Replay on a fresh world; returns the full deterministic trace.

    Invariant violations do NOT raise — the violation is part of the
    trace (that is the point of replaying a failure), so byte-comparing
    two replays covers the failing case too.
    """
    world = FuzzWorld(seed=world_seed, defect=defect)
    outcome = "clean"
    try:
        for one in steps:
            world.apply(one)
        world.finalize()
    except InvariantViolation as violation:
        outcome = f"invariant-violated: {violation}"
    return world.render_trace(outcome)


def run_steps_in_context(
    ctx: Any, steps: Iterable[Step], world_seed: int | str = 0
) -> dict[str, int]:
    """Execute steps inside a chaos scenario context.

    The world borrows the context's clock and probe (its fault engine
    and sanitizer suite), so armed faults and injections show up in the
    scenario's report exactly like a hand-written body's.  Invariant violations
    propagate (they are :class:`InvariantViolation`, which the harness
    maps to the ``invariant-violated`` outcome); on success every fuzz
    invariant is recorded on the context's ledger.
    """
    world = FuzzWorld(seed=world_seed, probe=ctx.probe, clock=ctx.clock)
    for one in steps:
        world.apply(one)
    summary = world.finalize()
    for invariant in INVARIANTS:
        ctx.check(True, invariant.split(":", 1)[0])
    return summary
