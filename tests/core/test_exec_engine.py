"""The hybrid discrete-event execution core (`repro.core.engine`).

The load-bearing contract is byte-identity: a hybrid run and a stepped
run of the same schedule must agree on the full engine snapshot AND on
the exported telemetry text — pinned here by unit cases and by a
Hypothesis property over random fleet schedules, with and without
SCHED_WAKE fault plans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    DEFAULT_SPIN,
    MAX_REDELIVERIES,
    REDELIVER_TICKS,
    ExecutionEngine,
    build_worker,
)
from repro.faults import sites
from repro.faults.plan import Every, FaultEngine, FaultPlan, FaultSpec, Nth
from repro.obs import Probe, prometheus_text
from repro.obs.registry import Registry
from repro.sanitize.suite import SanitizerSuite


def _pair(**kwargs):
    return (
        ExecutionEngine(hybrid=True, **kwargs),
        ExecutionEngine(hybrid=False, **kwargs),
    )


def _assert_identical(a: ExecutionEngine, b: ExecutionEngine) -> None:
    assert a.snapshot() == b.snapshot()
    ra, rb = Registry(), Registry()
    a.bind_telemetry(ra)
    b.bind_telemetry(rb)
    assert prometheus_text(ra) == prometheus_text(rb)


class TestWorker:
    def test_boot_parks_in_idle_loop(self):
        engine = ExecutionEngine()
        dom = engine.spawn("a")
        assert dom.parked
        assert dom.cpu.halted
        assert dom.completed == 0
        assert engine.n_parked == 1

    def test_work_units_complete_and_repark(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        engine.post_work(dom.domid, 3, at_ns=0.0)
        engine.run_until(2e6)
        assert dom.completed == 3
        assert dom.parked
        assert dom.pending_units == 0

    def test_completed_total_accumulates_across_wakes(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        engine.post_work(dom.domid, 2, at_ns=0.0)
        engine.post_work(dom.domid, 5, at_ns=4e6)
        engine.run_until(10e6)
        assert dom.completed == 7

    def test_spin_scales_burst_length(self):
        short = build_worker(spin=2)
        long = build_worker(spin=40)
        assert len(short.code) == len(long.code)
        a = ExecutionEngine(spin=2)
        b = ExecutionEngine(spin=40)
        a.spawn()
        b.spawn()
        a.post_work(0, 4, at_ns=0.0)
        b.post_work(0, 4, at_ns=0.0)
        a.run_until(1e6)
        b.run_until(1e6)
        assert b.stats.instructions > a.stats.instructions
        assert a.domain(0).completed == b.domain(0).completed == 4


class TestWakeProtocol:
    def test_spurious_wake_reparks_cheaply(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        before = engine.stats.instructions
        engine.post_kick(dom.domid)
        engine.run_until(2e6)
        assert engine.stats.spurious_wakes == 1
        assert dom.parked
        # hlt resume + mailbox load + compare + branch back to hlt.
        assert engine.stats.instructions - before < 10

    def test_kicks_coalesce_into_one_burst(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        # Two posts land on the same tick: the first delivery drains
        # both payloads, the second wake is spurious.
        engine.post_work(dom.domid, 2, at_ns=0.5e6)
        engine.post_work(dom.domid, 3, at_ns=0.5e6)
        engine.run_until(2e6)
        assert dom.completed == 5
        assert engine.stats.wake_events == 2
        assert engine.stats.spurious_wakes == 1
        assert engine.stats.bursts == 2

    def test_dead_domain_swallows_kicks(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        engine.post_work(dom.domid, 2, at_ns=0.0)
        engine.retire(dom.domid)
        engine.run_until(2e6)
        assert engine.stats.dead_wakes == 1
        assert engine.n_parked == 0

    def test_fastforward_counts_idle_gap_only(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        engine.post_work(dom.domid, 1, at_ns=99e6)
        engine.run_until(200e6)
        # Parked from ~0 to the 100 ms delivery tick.
        assert engine.stats.fastforward_ns >= 99e6
        assert engine.stats.fastforward_ns <= 100e6
        assert dom.clock.now_ns >= 100e6

    def test_late_spawn_does_not_backdate_fastforward(self):
        engine = ExecutionEngine()
        engine.spawn()
        engine.post_work(0, 1, at_ns=0.0)
        engine.run_until(50e6)
        late = engine.spawn()
        engine.post_work(late.domid, 1, at_ns=50e6)
        before = engine.stats.fastforward_ns
        engine.run_until(52e6)
        # The late domain was born at t=50ms; its first wake closes a
        # 1-tick gap, not a 51 ms one.
        assert engine.stats.fastforward_ns - before <= 2 * engine.tick_ns

    def test_run_until_rejects_off_grid_times(self):
        engine = ExecutionEngine()
        engine.spawn()
        try:
            engine.run_until(1.5e6)
        except ValueError as exc:
            assert "tick grid" in str(exc)
        else:
            raise AssertionError("off-grid run_until must be rejected")


class TestExternalWakeSources:
    def test_event_channel_send_wakes_bound_domain(self):
        from repro.perf.costs import CostModel
        from repro.xen.events import EventChannelTable

        engine = ExecutionEngine()
        dom = engine.spawn()
        table = EventChannelTable(CostModel(), engine.clock)
        engine.attach_events(table)
        port = table.bind(lambda: None)
        engine.bind_port(port, dom.domid)
        dom.pending_units = 0
        assert table.send(port)
        engine.run_until(2e6)
        assert engine.stats.wake_events == 1

    def test_timer_wake_from_toolstack(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        engine.on_timer(dom.domid, 7e6)
        engine.run_until(10e6)
        assert engine.stats.wake_events == 1
        assert dom.clock.now_ns >= 8e6

    def test_ring_reap_wakes_frontend_domain(self):
        engine = ExecutionEngine()
        dom = engine.spawn()
        waker = engine.ring_waker(dom.domid)
        waker.on_ring_reap(3)
        engine.run_until(2e6)
        assert engine.stats.wake_events == 1


class TestFaults:
    def _engine(self, hybrid, specs):
        plan = FaultPlan(tuple(specs))
        return ExecutionEngine(
            hybrid=hybrid, probe=Probe(FaultEngine(plan))
        )

    def test_dropped_kick_strands_units_until_watchdog(self):
        specs = [FaultSpec(sites.SCHED_WAKE, "drop", Nth(1))]
        engine = self._engine(True, specs)
        dom = engine.spawn()
        engine.post_work(dom.domid, 2, at_ns=0.0)
        engine.run_until(2e6)
        # Kick lost: the published units are stranded in the ring.
        assert dom.completed == 0
        assert dom.pending_units == 2
        assert engine.stats.drops == 1
        engine.run_to_quiescence()
        # The bounded watchdog re-kicked and the work completed.
        assert dom.completed == 2
        assert engine.stats.redeliveries == 1
        assert engine.now_ns <= (REDELIVER_TICKS + 2) * engine.tick_ns

    def test_delay_defers_delivery(self):
        specs = [FaultSpec(sites.SCHED_WAKE, "delay", Nth(1), param=5e6)]
        engine = self._engine(True, specs)
        dom = engine.spawn()
        engine.post_work(dom.domid, 1, at_ns=0.0)
        engine.run_until(4e6)
        assert dom.completed == 0
        engine.run_until(8e6)
        assert dom.completed == 1
        assert engine.stats.delays == 1

    def test_persistent_drops_abandon_after_bound(self):
        specs = [FaultSpec(sites.SCHED_WAKE, "drop", Every(1))]
        engine = self._engine(True, specs)
        dom = engine.spawn()
        engine.post_work(dom.domid, 1, at_ns=0.0)
        engine.run_to_quiescence()
        assert dom.completed == 0
        assert engine.stats.abandoned == 1
        assert engine.stats.drops == MAX_REDELIVERIES
        assert engine.probe.faults.totals().fatal == 1

    def test_recovery_is_recorded(self):
        specs = [FaultSpec(sites.SCHED_WAKE, "drop", Nth(1))]
        engine = self._engine(True, specs)
        dom = engine.spawn()
        engine.post_work(dom.domid, 1, at_ns=0.0)
        engine.run_to_quiescence()
        totals = engine.probe.faults.totals()
        assert totals.retried == 1
        assert totals.recovered == 1
        assert totals.fatal == 0
        assert dom.completed == 1


class TestSanitizerMirroring:
    def test_clean_run_has_no_findings(self):
        suite = SanitizerSuite()
        engine = ExecutionEngine(probe=Probe(sanitizers=suite))
        for _ in range(3):
            engine.spawn()
        for domid in range(3):
            engine.post_work(domid, 2, at_ns=domid * 1e6)
        engine.run_to_quiescence()
        for domid in range(3):
            engine.retire(domid)
        assert suite.findings == []

    def test_dropped_kick_is_visible_to_the_checker(self):
        suite = SanitizerSuite()
        plan = FaultPlan((FaultSpec(sites.SCHED_WAKE, "drop", Nth(1)),))
        engine = ExecutionEngine(probe=Probe(FaultEngine(plan), suite))
        dom = engine.spawn()
        engine.post_work(dom.domid, 1, at_ns=0.0)
        engine.run_to_quiescence()
        engine.retire(dom.domid)
        # The watchdog recovered the lost kick, so quiesce stays clean.
        assert suite.findings == []


# ---------------------------------------------------------------------------
# Byte-identity: hybrid vs stepped oracle
# ---------------------------------------------------------------------------

schedule_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),    # domain
        st.integers(min_value=1, max_value=6),    # units
        st.integers(min_value=0, max_value=40),   # post tick
    ),
    min_size=1,
    max_size=30,
)


class TestByteIdentity:
    def test_identity_simple_fleet(self):
        engines = _pair()
        for engine in engines:
            for _ in range(4):
                engine.spawn()
            for domid in range(4):
                engine.post_work(domid, 1 + domid, at_ns=domid * 3e6)
            engine.run_until(50e6)
        _assert_identical(*engines)

    def test_identity_with_retire_and_kicks(self):
        engines = _pair()
        for engine in engines:
            for _ in range(3):
                engine.spawn()
            engine.post_work(0, 2, at_ns=1e6)
            engine.post_work(1, 3, at_ns=1e6)
            engine.retire(1)
            engine.post_kick(2, at_ns=5e6)
            engine.run_until(20e6)
        _assert_identical(*engines)

    @settings(max_examples=40, deadline=None)
    @given(schedule=schedule_strategy)
    def test_identity_random_schedules(self, schedule):
        engines = _pair()
        for engine in engines:
            for _ in range(6):
                engine.spawn()
            for domid, units, tick in schedule:
                engine.post_work(domid, units, at_ns=tick * 1e6)
            engine.run_until(60e6)
            engine.run_to_quiescence()
        _assert_identical(*engines)
        assert engines[0].total_completed() == sum(
            units for _, units, _ in schedule
        )

    @settings(max_examples=25, deadline=None)
    @given(
        schedule=schedule_strategy,
        drop_every=st.integers(min_value=2, max_value=9),
        delay_nth=st.integers(min_value=1, max_value=12),
    )
    def test_identity_under_fault_plans(
        self, schedule, drop_every, delay_nth
    ):
        def build(hybrid):
            plan = FaultPlan((
                FaultSpec(
                    sites.SCHED_WAKE, "drop", Every(drop_every), limit=6
                ),
                FaultSpec(
                    sites.SCHED_WAKE, "delay", Nth(delay_nth), param=4e6
                ),
            ))
            engine = ExecutionEngine(
                hybrid=hybrid, probe=Probe(FaultEngine(plan))
            )
            for _ in range(6):
                engine.spawn()
            for domid, units, tick in schedule:
                engine.post_work(domid, units, at_ns=tick * 1e6)
            engine.run_until(60e6)
            engine.run_to_quiescence()
            return engine

        a, b = build(True), build(False)
        _assert_identical(a, b)
        # Fault accounting is part of the identity contract too.
        assert a.probe.faults.totals() == b.probe.faults.totals()

    def test_hybrid_skips_polls_stepped_pays_them(self):
        engines = _pair()
        for engine in engines:
            for _ in range(5):
                engine.spawn()
            engine.post_work(0, 1, at_ns=500e6)
            engine.run_until(1000e6)
        hybrid, stepped = engines
        _assert_identical(hybrid, stepped)
        # 1000 ticks x 5 domains for the oracle; one delivery for hybrid.
        assert stepped.stats.polls == 5000
        assert hybrid.stats.polls == 1
