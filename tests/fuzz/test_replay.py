"""Replay (repro.fuzz.replay) and the Scenario.from_steps promotion path.

Byte-identity of fresh-world replays, the chaos-context execution that
promoted scenarios use, and the shipped promoted catalog entry.
"""

import pytest

from repro.faults.chaos import ChaosHarness, Scenario
from repro.faults.scenarios import get_scenario
from repro.fuzz.replay import replay_steps, run_steps_in_context
from repro.fuzz.steps import step
from repro.fuzz.world import INVARIANTS

SEQUENCE = (
    step("spawn", memory_mb=128, lightvm=True),
    step("inject_fault", name="notify-drop", mode="every", n=2, limit=2),
    step("net_burst", count=6, size=1500, batched=False),
    step("clear_faults", name="all"),
    step("blk_burst", start=0, count=3, batched=True, pattern=5),
    step("fleet_spawn", count=1),
    step("fleet_post", index=0, units=2),
    step("fleet_drain"),
)


class TestReplaySteps:
    def test_replay_is_byte_identical(self):
        first = replay_steps(SEQUENCE, world_seed=9)
        second = replay_steps(SEQUENCE, world_seed=9)
        assert first == second
        assert "\noutcome: clean\n" in first

    def test_replay_trace_lists_every_step(self):
        trace = replay_steps(SEQUENCE, world_seed=9)
        for index in range(1, len(SEQUENCE) + 1):
            assert f"\n{index:03d} " in trace

    def test_failing_replay_renders_violation_not_raises(self):
        trace = replay_steps(
            (step("blk_burst", start=1, count=1, batched=False, pattern=0),),
            world_seed=7,
            defect="blk-lost-write",
        )
        assert "outcome: invariant-violated" in trace
        assert "*** INVARIANT VIOLATED" in trace

    def test_world_seed_changes_the_trace_header(self):
        assert "seed=1 " in replay_steps((), world_seed=1)
        assert "seed=2 " in replay_steps((), world_seed=2)


class TestFromStepsPromotion:
    def _promoted(self):
        return Scenario.from_steps(
            name="promoted-under-test",
            description="fuzz sequence promoted in a test",
            steps=SEQUENCE,
            substrates=("xen.events",),
            world_seed=9,
        )

    def test_promoted_scenario_recovers_under_harness(self):
        result = ChaosHarness(4).run(self._promoted())
        assert result.outcome == "recovered", result.failure
        # Every fuzz invariant lands on the scenario's ledger.
        assert len(result.invariants) == len(INVARIANTS)
        assert all(line.startswith("ok") for line in result.invariants)

    def test_promoted_scenario_reports_injections(self):
        result = ChaosHarness(4).run(self._promoted())
        assert result.injected > 0
        assert "xen.events" in result.injected_substrates

    def test_context_execution_returns_int_summary(self):
        harness = ChaosHarness(4)
        scenario = self._promoted()
        captured = {}

        def body(ctx):
            captured.update(run_steps_in_context(ctx, SEQUENCE, 9))
            return {}

        harness.run(
            Scenario(
                name="ctx-probe",
                description="",
                substrates=(),
                specs=scenario.specs,
                body=body,
            )
        )
        assert captured["net_requests"] == 6
        assert all(isinstance(v, int) for v in captured.values())


class TestShippedPromotedScenario:
    """The catalog's fuzz-notify-drop-burst entry (ISSUE 10 promotion)."""

    @pytest.mark.parametrize("seed", (0, 42, 20260806))
    def test_recovers_on_fixed_seeds(self, seed):
        result = ChaosHarness(seed).run(get_scenario("fuzz-notify-drop-burst"))
        assert result.outcome == "recovered", result.failure

    def test_injects_into_declared_substrate(self):
        result = ChaosHarness(42).run(get_scenario("fuzz-notify-drop-burst"))
        assert result.injected >= 2  # Every(2) x limit=2 over 6 kicks
        assert "xen.events" in result.injected_substrates
