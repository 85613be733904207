"""IPVS scheduler, live server churn, and accounting conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.ipvs import HEAP_SLACK, IPVS, IpvsMode, ServerState
from repro.guest.modules import ModuleLoadError, ModuleRegistry
from repro.platforms.x_container import XContainerPlatform


def make_ipvs(scheduler="wrr", mode=IpvsMode.NAT, backends=3):
    kernel = XContainerPlatform().make_kernel()
    kernel.modules.load("ip_vs")
    kernel.modules.load("ip_vs_rr")
    ipvs = IPVS(kernel.modules, mode, scheduler=scheduler)
    for i in range(backends):
        ipvs.add_server(f"10.0.0.{i + 2}", 80)
    return ipvs


class TestSchedulers:
    def test_wrr_round_robin_order(self):
        ipvs = make_ipvs("wrr")
        hosts = [ipvs.schedule().host for _ in range(6)]
        assert hosts == ["10.0.0.2", "10.0.0.3", "10.0.0.4"] * 2

    def test_wrr_respects_weights(self):
        ipvs = make_ipvs("wrr", backends=0)
        ipvs.add_server("10.0.0.2", 80, weight=2)
        ipvs.add_server("10.0.0.3", 80, weight=1)
        hosts = [ipvs.schedule().host for _ in range(6)]
        assert hosts.count("10.0.0.2") == 4
        assert hosts.count("10.0.0.3") == 2

    def test_wlc_picks_least_connected(self):
        ipvs = make_ipvs("wlc")
        first = ipvs.open_connection()
        second = ipvs.open_connection()
        third = ipvs.open_connection()
        # Three idle servers -> insertion-order tie-breaks.
        assert [s.host for s in (first, second, third)] == [
            "10.0.0.2", "10.0.0.3", "10.0.0.4",
        ]
        ipvs.close_connection(second)
        # 10.0.0.3 now has the fewest active connections.
        assert ipvs.open_connection().host == "10.0.0.3"

    def test_wlc_weight_scales_capacity(self):
        ipvs = make_ipvs("wlc", backends=0)
        ipvs.add_server("10.0.0.2", 80, weight=3)
        ipvs.add_server("10.0.0.3", 80, weight=1)
        conns = [ipvs.open_connection().host for _ in range(8)]
        assert conns.count("10.0.0.2") == 6
        assert conns.count("10.0.0.3") == 2

    def test_unknown_scheduler_rejected(self):
        kernel = XContainerPlatform().make_kernel()
        kernel.modules.load("ip_vs")
        kernel.modules.load("ip_vs_rr")
        with pytest.raises(ValueError, match="scheduler"):
            IPVS(kernel.modules, IpvsMode.NAT, scheduler="lblc")

    def test_weight_must_be_positive(self):
        ipvs = make_ipvs()
        with pytest.raises(ValueError, match="weight"):
            ipvs.add_server("10.0.0.9", 80, weight=0)


class TestLiveChurn:
    def test_added_server_receives_new_connections(self):
        ipvs = make_ipvs("wlc")
        for _ in range(6):
            ipvs.open_connection()
        newcomer = ipvs.add_server("10.0.0.9", 80)
        assert ipvs.open_connection() is newcomer
        assert ipvs.stats.servers_added == 4

    def test_drain_stops_new_work_immediately(self):
        ipvs = make_ipvs("wlc")
        victim = ipvs.open_connection()
        assert ipvs.remove_server(victim.host, victim.port) == 0
        assert victim.state is ServerState.DRAINING
        assert ipvs.stats.drains_started == 1
        for _ in range(12):
            assert ipvs.open_connection() is not victim
        # Still on the books until the last connection closes.
        assert ipvs.stats.servers_removed == 0

    def test_drain_finalizes_on_last_close(self):
        ipvs = make_ipvs("wlc")
        victim = ipvs.open_connection()
        ipvs.remove_server(victim.host, victim.port)
        ipvs.close_connection(victim)
        assert victim.state is ServerState.REMOVED
        assert ipvs.stats.servers_removed == 1
        assert ipvs.stats.conns_failed == 0
        assert victim not in ipvs.servers

    def test_drain_idle_server_removes_at_once(self):
        ipvs = make_ipvs("wlc")
        assert ipvs.remove_server("10.0.0.4", 80) == 0
        assert ipvs.stats.servers_removed == 1
        assert ipvs.stats.drains_started == 0

    def test_forced_removal_fails_connections(self):
        ipvs = make_ipvs("wlc")
        victim = ipvs.open_connection()
        failed = ipvs.remove_server(victim.host, victim.port, drain=False)
        assert failed == 1
        assert ipvs.stats.conns_failed == 1
        assert victim.state is ServerState.REMOVED

    def test_kill_fails_connections_and_keeps_books(self):
        ipvs = make_ipvs("wlc")
        conns = [ipvs.open_connection() for _ in range(6)]
        victim = conns[0]
        failed = ipvs.kill_server(victim.host, victim.port)
        assert failed == 2  # wlc spread 6 conns over 3 servers
        assert victim.state is ServerState.DEAD
        assert victim in ipvs.servers  # stays for accounting
        assert ipvs.stats.backend_deaths == 1
        for _ in range(12):
            assert ipvs.open_connection() is not victim

    def test_kill_is_idempotent(self):
        ipvs = make_ipvs("wlc")
        ipvs.kill_server("10.0.0.2", 80)
        assert ipvs.kill_server("10.0.0.2", 80) == 0
        assert ipvs.stats.backend_deaths == 1

    def test_dead_server_not_removable(self):
        ipvs = make_ipvs("wlc")
        ipvs.kill_server("10.0.0.2", 80)
        with pytest.raises(ValueError, match="dead"):
            ipvs.remove_server("10.0.0.2", 80)

    def test_unknown_server_raises(self):
        ipvs = make_ipvs()
        with pytest.raises(KeyError):
            ipvs.remove_server("10.9.9.9", 80)

    def test_close_without_connection_raises(self):
        ipvs = make_ipvs()
        server = ipvs.servers[0]
        with pytest.raises(ValueError, match="no active connections"):
            ipvs.close_connection(server)

    def test_no_schedulable_servers_raises(self):
        ipvs = make_ipvs("wlc", backends=1)
        ipvs.kill_server("10.0.0.2", 80)
        with pytest.raises(RuntimeError, match="no schedulable"):
            ipvs.schedule()


class TestConservation:
    def test_books_balance_through_full_churn(self):
        ipvs = make_ipvs("wlc", backends=4)
        conns = [ipvs.open_connection() for _ in range(16)]
        # A death, a drained removal, a forced removal, an addition.
        ipvs.kill_server("10.0.0.2", 80)
        drained = next(s for s in ipvs.servers
                       if s.host == "10.0.0.3")
        ipvs.remove_server("10.0.0.3", 80, drain=True)
        ipvs.remove_server("10.0.0.4", 80, drain=False)
        ipvs.add_server("10.0.0.9", 80)
        for server in conns:
            if server.active_conns > 0:
                ipvs.close_connection(server)
        for _ in range(8):
            ipvs.open_connection()
        assert drained.state is ServerState.REMOVED
        assert ipvs.conservation_ok()
        stats = ipvs.stats
        assert stats.conns_opened == (
            stats.conns_closed + stats.conns_failed
            + ipvs.active_connections()
        )
        assert stats.scheduled == ipvs.total_served()

    def test_wrr_serving_is_conserved(self):
        ipvs = make_ipvs("wrr")
        for _ in range(50):
            ipvs.schedule()
        assert ipvs.conservation_ok()


#: One director operation: (kind, index into the candidates, weight, drain).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "open", "open", "open", "open", "close",
                         "close", "close", "remove", "kill"]),
        st.integers(0, 1_000),
        st.integers(1, 4),
        st.booleans(),
    ),
    max_size=120,
)


def oracle_wlc(ipvs):
    """The linear wlc scan: ``min`` over the list order."""
    candidates = [s for s in ipvs.servers if s.schedulable]
    return min(candidates, key=lambda s: (s.active_conns + 1) / s.weight)


def oracle_wrr_expansion(ipvs):
    expanded = []
    for server in ipvs.servers:
        if server.schedulable:
            expanded.extend([server] * server.weight)
    return expanded


class TestIndexedScheduling:
    """The indexed schedulers pick exactly what the linear scans over the
    server list pick, through adds (weights 1-4, so ties such as 1/3 vs
    2/6 occur), connection churn, drains, removals and deaths."""

    @pytest.mark.parametrize("scheduler", ["wlc", "wrr"])
    @settings(max_examples=150, deadline=None)
    @given(ops=OPS)
    def test_picks_match_linear_scan(self, scheduler, ops):
        ipvs = make_ipvs(scheduler, backends=0)
        hosts = 0
        conns = []  # one entry per open connection
        oracle_next = 0
        for kind, index, weight, drain in ops:
            on_books = [
                s for s in ipvs.servers if s.state is not ServerState.DEAD
            ]
            if kind == "add":
                hosts += 1
                ipvs.add_server(f"10.1.{hosts // 250}.{hosts % 250}", 80,
                                weight=weight)
            elif kind == "open":
                if not ipvs.active_servers:
                    with pytest.raises(RuntimeError, match="no schedulable"):
                        ipvs.open_connection()
                    continue
                if scheduler == "wlc":
                    expected = oracle_wlc(ipvs)
                else:
                    expanded = oracle_wrr_expansion(ipvs)
                    expected = expanded[oracle_next % len(expanded)]
                    oracle_next += 1
                server = ipvs.open_connection()
                assert server is expected
                conns.append(server)
            elif kind == "close":
                live = [s for s in conns if s.active_conns > 0]
                if live:
                    server = live[index % len(live)]
                    ipvs.close_connection(server)
                    conns.remove(server)
            elif kind == "remove" and on_books:
                server = on_books[index % len(on_books)]
                ipvs.remove_server(server.host, server.port, drain=drain)
            elif kind == "kill" and on_books:
                server = on_books[index % len(on_books)]
                ipvs.kill_server(server.host, server.port)
            assert ipvs.active_servers == [
                s for s in ipvs.servers if s.state is ServerState.ACTIVE
            ]
            assert len(ipvs._heap) <= HEAP_SLACK * len(ipvs.active_servers)
            assert ipvs.conservation_ok()

    def test_heap_stays_bounded_over_load_waves(self):
        """Closes push lower keys and leave the higher ones stale below
        the top, where lazy deletion never reaches them: only the
        rebuild keeps the heap bounded."""
        ipvs = make_ipvs("wlc", backends=3)
        for _ in range(5):
            conns = [ipvs.open_connection() for _ in range(200)]
            for server in conns:
                ipvs.close_connection(server)
                assert len(ipvs._heap) <= HEAP_SLACK * 3
        assert ipvs.conservation_ok()


class TestModes:
    def test_nat_costs_more_than_dr(self):
        nat = make_ipvs(mode=IpvsMode.NAT)
        dr = make_ipvs(mode=IpvsMode.DIRECT_ROUTING)
        assert nat.director_cost_ns(450, 14000) > dr.director_cost_ns(
            450, 14000
        )

    def test_requires_ip_vs_module(self):
        registry = ModuleRegistry()  # nothing loaded
        with pytest.raises(ModuleLoadError):
            IPVS(registry, IpvsMode.NAT)
