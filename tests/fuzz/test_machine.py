"""The Hypothesis rule machine and run_fuzz (repro.fuzz.machine).

CI's acceptance bar lives here: clean bounded runs on the three fixed
seeds, deterministic self-finding of both seeded defects, and the
shrunk-counterexample → JSON → byte-identical-replay contract.
"""

import pytest

pytest.importorskip("hypothesis")

from repro.fuzz.machine import (  # noqa: E402
    StackMachine,
    build_machine,
    machine_rules,
    run_fuzz,
)
from repro.fuzz.replay import replay_steps  # noqa: E402
from repro.fuzz.steps import OPS, loads  # noqa: E402
from repro.fuzz.world import INVARIANTS  # noqa: E402

FIXED_SEEDS = (0, 42, 20260806)


class TestCoverageFloors:
    def test_one_rule_per_op(self):
        assert machine_rules() == tuple(sorted(OPS))

    def test_acceptance_floors(self):
        # ISSUE 10: at least 8 rule kinds and 5 invariant families.
        assert len(OPS) >= 8
        assert len(INVARIANTS) >= 5

    def test_rules_are_hypothesis_rules(self):
        # Every op has a bound rule on the machine class.
        for op in OPS:
            method = getattr(StackMachine, op)
            assert hasattr(method, "hypothesis_stateful_rule"), op


class TestCleanRuns:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_fixed_seed_runs_clean(self, seed):
        report = run_fuzz(seed=seed, max_examples=5, steps=15)
        assert report.ok, report.failure
        assert report.rules == len(OPS)
        assert report.invariants == len(INVARIANTS)

    def test_string_seed_accepted(self):
        report = run_fuzz(seed="nightly", max_examples=2, steps=8)
        assert report.ok


class TestDefectSelfFinding:
    def test_blk_lost_write_is_found_shrunk_and_replayable(self):
        report = run_fuzz(
            seed=7, max_examples=20, steps=20, defect="blk-lost-write"
        )
        assert not report.ok
        assert "blk-committed-bytes" in report.failure
        assert report.shrunk_steps >= 1
        assert report.replay_identical
        # The shrunk sequence round-trips through the JSON envelope.
        world_seed, steps = loads(report.steps_json)
        assert world_seed == 7
        assert len(steps) == report.shrunk_steps
        # And the minimal repro ends in the write that loses bytes.
        assert steps[-1].op == "blk_burst"

    def test_fleet_skew_is_found_and_shrunk(self):
        report = run_fuzz(
            seed=5, max_examples=20, steps=20, defect="fleet-skew"
        )
        assert not report.ok
        assert "engine-identity" in report.failure
        assert report.replay_identical
        _, steps = loads(report.steps_json)
        assert {one.op for one in steps} >= {"fleet_spawn", "fleet_post"}

    def test_same_seed_finds_the_same_counterexample(self, fuzz_search):
        # Two independent searches: the session's shared one and a fresh
        # one.
        first = fuzz_search(
            seed=7, max_examples=15, steps=15, defect="blk-lost-write"
        )
        second = run_fuzz(
            seed=7, max_examples=15, steps=15, defect="blk-lost-write"
        )
        assert first.steps_json == second.steps_json
        assert first.replay_trace == second.replay_trace

    def test_reported_replay_trace_matches_fresh_replay(self, fuzz_search):
        report = fuzz_search(
            seed=7, max_examples=15, steps=15, defect="blk-lost-write"
        )
        _, steps = loads(report.steps_json)
        fresh = replay_steps(steps, world_seed=7, defect="blk-lost-write")
        assert fresh == report.replay_trace


class TestBuildMachine:
    def test_unknown_defect_rejected(self):
        with pytest.raises(ValueError, match="unknown defect"):
            build_machine(defect="nonesuch")

    def test_world_seed_is_pinned_on_the_subclass(self):
        machine = build_machine(world_seed="pin")()
        assert machine.world.seed == "pin"
        machine.teardown()


class TestReportSurface:
    def test_clean_report_renders_and_serializes(self):
        report = run_fuzz(seed=0, max_examples=2, steps=8)
        text = report.render()
        assert "result: clean" in text
        assert report.as_dict()["ok"] is True

    def test_failure_report_includes_steps_json(self, fuzz_search):
        report = fuzz_search(
            seed=7, max_examples=15, steps=15, defect="blk-lost-write"
        )
        text = report.render()
        assert "FAILED" in text
        assert '"version": 1' in text
        assert report.as_dict()["ok"] is False
