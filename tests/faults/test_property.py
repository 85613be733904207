"""Property tests: seeded fuzzing of fault plans (schemathesis-style).

The central property the subsystem promises: for any seeded fault plan
whose fault rate stays below the retry budget, every scenario terminates
``recovered`` — and identically so when replayed with the same seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import sites
from repro.faults.plan import Every, FaultPlan, FaultSpec, Probability
from repro.faults.retry import RetryPolicy
from repro.faults.report import run_scenarios
from repro.obs import Probe

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestCatalogProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=SEEDS)
    def test_every_scenario_recovers_for_any_seed(self, seed):
        report = run_scenarios(seed)
        failures = [
            f"{r.name}: {r.outcome} ({r.failure})"
            for r in report.results
            if not r.ok
        ]
        assert not failures, failures

    @settings(max_examples=5, deadline=None)
    @given(seed=SEEDS)
    def test_replay_is_byte_identical(self, seed):
        assert run_scenarios(seed).render() == run_scenarios(seed).render()


class TestSubBudgetLossProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=SEEDS,
        loss=st.floats(min_value=0.001, max_value=0.10),
        requests=st.integers(min_value=10, max_value=300),
    )
    def test_netstack_survives_any_sub_budget_loss_rate(
        self, seed, loss, requests
    ):
        """Loss probability ≪ the retransmission budget ⇒ no resets."""
        from repro.guest.netstack import NetDevice, NetStack

        engine = FaultPlan(
            (FaultSpec(sites.NET_PACKET, "drop", Probability(loss)),),
            seed,
        ).compile()
        stack = NetStack(
            device=NetDevice.NETFRONT,
            probe=Probe(engine),
            retry=RetryPolicy(max_attempts=10),
        )
        for _ in range(requests):
            stack.request_response_cost_ns(120, 1100)
        assert stack.stats.requests == requests
        assert engine.totals().fatal == 0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=SEEDS,
        period=st.integers(min_value=3, max_value=50),
        limit=st.integers(min_value=1, max_value=8),
    )
    def test_netfront_survives_any_kill_schedule_below_budget(
        self, seed, period, limit
    ):
        """Kills spaced ≥3 occurrences apart never exhaust the retry
        budget: each transmit absorbs at most one death + reconnect."""
        from repro.xen.drivers import SplitNetDriver
        from repro.xen.events import EventChannelTable
        from repro.xen.hypervisor import DomainKind, XenHypervisor

        engine = FaultPlan(
            (
                FaultSpec(
                    sites.NET_BACKEND, "kill", Every(period), limit=limit
                ),
            ),
            seed,
        ).compile()
        xen = XenHypervisor()
        guest = xen.create_domain("g")
        backend = xen.create_domain("b", DomainKind.DRIVER)
        events = EventChannelTable(xen.costs, xen.clock)
        driver = SplitNetDriver(
            guest, backend, xen.grants, events, xen.costs, xen.clock,
            probe=Probe(engine),
        )
        for _ in range(60):
            driver.transmit(1000)
        assert driver.stats.requests == 60
        assert driver.stats.backend_deaths == driver.stats.backend_restarts
        assert engine.totals().fatal == 0
        counters = engine.counters[sites.NET_BACKEND]
        assert counters.recovered == counters.injected
