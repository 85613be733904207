"""Per-substrate injection hooks.

For every substrate: the catalog entry is honest, the disabled hook
(``probe=None``) is behaviour-identical to the pre-fault code, and each
supported fault kind does what its docstring says.
"""

import pytest

from repro.faults import sites
from repro.faults.plan import Every, FaultPlan, FaultSpec, Nth
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.obs import Probe
from repro.perf.clock import SimClock
from repro.xen.hypervisor import DomainKind, XenHypervisor


def engine(*specs, clock=None, seed=0):
    return FaultPlan(tuple(specs), seed).compile(clock)


def probe(*specs, clock=None, seed=0):
    return Probe(engine(*specs, clock=clock, seed=seed))


class TestCatalog:
    def test_every_site_has_substrate_and_kinds(self):
        for name, info in sites.SITES.items():
            assert info.name == name
            assert name.startswith(info.substrate + ".")
            # Fault sites name their kinds; every other site a subscriber.
            assert info.kinds or info.sanitizer or info.trace or info.record

    def test_core_substrates_are_known(self):
        known = {info.substrate for info in sites.SITES.values()}
        assert set(sites.CORE_SUBSTRATES) <= known

    def test_substrate_of_falls_back_on_prefix(self):
        assert sites.substrate_of(sites.VCPU) == "xen.scheduler"
        assert sites.substrate_of("a.b.c") == "a.b"


class TestEventChannels:
    def make(self, probe=None):
        from repro.xen.events import EventChannelTable

        clock = SimClock()
        table = EventChannelTable(clock=clock, probe=probe)
        hits = []
        port = table.bind(lambda: hits.append(1))
        return table, clock, port, hits

    def test_disabled_hook_is_noop(self):
        enabled, _, port_e, _ = self.make(probe=None)
        assert enabled.send(port_e) is True
        assert enabled.notifications_dropped == 0

    def test_drop_loses_the_notify(self):
        table, _, port, hits = self.make(
            probe(FaultSpec(sites.EVENT_NOTIFY, "drop", Nth(1)))
        )
        assert table.send(port) is False
        assert not table.evtchn_upcall_pending
        table.drain(via_hypercall=False)
        assert hits == []
        assert table.notifications_dropped == 1

    def test_delay_charges_param_then_delivers(self):
        table, clock, port, hits = self.make(
            probe(
                FaultSpec(sites.EVENT_NOTIFY, "delay", Nth(1), param=500.0)
            )
        )
        before = clock.now_ns
        assert table.send(port) is True
        assert clock.now_ns - before == 500.0
        table.drain(via_hypercall=False)
        assert hits == [1]


class TestGrantTable:
    def test_map_fail_is_transient_and_typed(self):
        from repro.xen.grant_table import GrantMapError

        xen = XenHypervisor(
            probe=probe(FaultSpec(sites.GRANT_MAP, "fail", Nth(1)))
        )
        ref = xen.grants.grant_access(1, 0x1000)
        with pytest.raises(GrantMapError):
            xen.grants.map_grant(ref, 2)
        # Second attempt (occurrence 2) succeeds; state is clean.
        assert xen.grants.map_grant(ref, 2).mapped_by == 2
        assert xen.grants.map_failures == 1

    def test_copy_fail_and_success_accounting(self):
        from repro.xen.grant_table import GrantCopyError

        xen = XenHypervisor(
            probe=probe(FaultSpec(sites.GRANT_COPY, "fail", Nth(1)))
        )
        ref = xen.grants.grant_access(1, 0x1000)
        with pytest.raises(GrantCopyError):
            xen.grants.copy_grant(ref, 1, 4096)
        assert xen.grants.copy_grant(ref, 1, 4096) == 4096
        assert xen.grants.copy_failures == 1 and xen.grants.copies == 1


class TestNetDriver:
    def make(self, probe=None, retry=None):
        from repro.xen.drivers import SplitNetDriver
        from repro.xen.events import EventChannelTable

        xen = XenHypervisor()
        guest = xen.create_domain("g")
        backend = xen.create_domain("b", DomainKind.DRIVER)
        events = EventChannelTable(xen.costs, xen.clock)
        driver = SplitNetDriver(
            guest, backend, xen.grants, events, xen.costs, xen.clock,
            probe=probe, retry=retry,
        )
        return driver

    def test_disabled_hook_same_cost(self):
        plain = self.make()
        hooked = self.make(probe=None)
        assert plain.transmit(1000) == hooked.transmit(1000)

    def test_kill_triggers_reconnect_and_success(self):
        driver = self.make(
            probe=probe(FaultSpec(sites.NET_BACKEND, "kill", Nth(1)))
        )
        driver.transmit(1000)
        assert driver.stats.backend_deaths == 1
        assert driver.stats.backend_restarts == 1
        assert driver.stats.requests == 1
        assert driver.backend_alive

    def test_persistent_kill_exhausts_retry(self):
        driver = self.make(
            probe=probe(FaultSpec(sites.NET_BACKEND, "kill", Every(1))),
            retry=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RetryExhausted):
            driver.transmit(1000)
        assert driver.stats.requests == 0

    def test_ring_stall_charges_extra(self):
        stalled = self.make(
            probe=probe(
                FaultSpec(sites.NET_RING, "stall", Nth(1), param=4.0)
            )
        )
        plain = self.make()
        assert stalled.transmit(1000) > plain.transmit(1000)
        assert stalled.stats.ring_full_stalls == 1


class TestBlkDriver:
    def make(self, probe=None, retry=None):
        from repro.xen.blkdev import BlockStore, SplitBlockDriver

        return SplitBlockDriver(
            BlockStore(64), clock=SimClock(), probe=probe, retry=retry
        )

    def test_kill_never_tears_a_write(self):
        from repro.xen.blkdev import SECTOR_SIZE

        driver = self.make(
            probe=probe(FaultSpec(sites.BLK_BACKEND, "kill", Nth(1)))
        )
        driver.write(0, b"\xaa" * SECTOR_SIZE * 4)
        assert driver.stats.backend_deaths == 1
        assert driver.stats.writes == 1
        assert driver.read(0, 4) == b"\xaa" * SECTOR_SIZE * 4

    def test_stall_charges_latency(self):
        driver = self.make(
            probe=probe(
                FaultSpec(sites.BLK_BACKEND, "stall", Nth(1), param=10.0)
            )
        )
        plain = self.make()
        from repro.xen.blkdev import SECTOR_SIZE

        driver.write(0, b"\x01" * SECTOR_SIZE)
        plain.write(0, b"\x01" * SECTOR_SIZE)
        assert driver.clock.now_ns > plain.clock.now_ns
        assert driver.stats.ring_stalls == 1


class TestToolstack:
    def test_timeout_retries_and_never_leaks_memory(self):
        from repro.xen.toolstack import Toolstack

        xen = XenHypervisor()
        toolstack = Toolstack(
            xen, probe=probe(FaultSpec(sites.TOOLSTACK_SPAWN, "timeout", Nth(1)))
        )
        baseline = xen.used_memory_mb
        creation = toolstack.create("xc0", memory_mb=256, full_vm_boot=False)
        assert creation.domain.name == "xc0"
        assert toolstack.spawn_timeouts == 1
        assert xen.used_memory_mb == baseline + 256

    def test_persistent_timeout_exhausts_cleanly(self):
        from repro.faults.retry import RetryExhausted
        from repro.xen.toolstack import Toolstack

        xen = XenHypervisor()
        toolstack = Toolstack(
            xen,
            probe=probe(FaultSpec(sites.TOOLSTACK_SPAWN, "timeout", Every(1))),
        )
        baseline = xen.used_memory_mb
        with pytest.raises(RetryExhausted):
            toolstack.create("xc0", memory_mb=256)
        # Every half-created domain was torn down.
        assert xen.used_memory_mb == baseline
        assert len(xen.domains) == 1


class TestScheduler:
    def test_stall_parks_one_vcpu_for_one_interval(self):
        from repro.xen.scheduler import CreditScheduler

        scheduler = CreditScheduler(
            4, probe=probe(FaultSpec(sites.VCPU, "stall", Nth(1)))
        )
        for domid in (1, 2):
            scheduler.add_vcpu(domid)
        shares = scheduler.schedule_interval(10e6)
        assert scheduler.stall_events == 1
        assert len(shares) == 1  # the victim missed the interval
        shares = scheduler.schedule_interval(10e6)
        assert len(shares) == 2  # healed next interval

    def test_storm_inflates_switch_overhead(self):
        from repro.xen.scheduler import CreditScheduler

        stormy = CreditScheduler(
            2,
            probe=probe(
                FaultSpec(sites.VCPU, "storm", Nth(1), param=10.0)
            ),
        )
        calm = CreditScheduler(2)
        for s in (stormy, calm):
            for domid in (1, 2, 3, 4):
                s.add_vcpu(domid)
        stormy_shares = stormy.schedule_interval(10e6)
        calm_shares = calm.schedule_interval(10e6)
        assert stormy.storm_events == 1
        assert sum(stormy_shares.values()) < sum(calm_shares.values())


class TestNetstack:
    def make(self, probe=None, retry=None):
        from repro.guest.netstack import NetDevice, NetStack

        kwargs = {"device": NetDevice.NETFRONT}
        if probe is not None:
            kwargs["probe"] = probe
        if retry is not None:
            kwargs["retry"] = retry
        return NetStack(**kwargs)

    def test_disabled_hook_same_cost(self):
        assert self.make().request_response_cost_ns(
            100, 1000
        ) == self.make(probe=None).request_response_cost_ns(100, 1000)

    def test_drop_costs_a_retransmission(self):
        lossy = self.make(
            probe=probe(FaultSpec(sites.NET_PACKET, "drop", Nth(1)))
        )
        clean = self.make()
        assert lossy.request_response_cost_ns(
            100, 1000
        ) > clean.request_response_cost_ns(100, 1000)
        assert lossy.stats.retransmits == 1

    def test_unbounded_loss_resets_the_connection(self):
        from repro.guest.netstack import NetstackTimeout

        lossy = self.make(
            probe=probe(FaultSpec(sites.NET_PACKET, "drop", Every(1))),
            retry=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(NetstackTimeout):
            lossy.request_response_cost_ns(100, 1000)

    def test_duplicate_and_reorder_cost_but_recover(self):
        stack = self.make(
            probe=probe(
                FaultSpec(sites.NET_PACKET, "duplicate", Nth(1)),
                FaultSpec(sites.NET_PACKET, "reorder", Nth(2)),
            )
        )
        stack.request_response_cost_ns(100, 1000)
        stack.request_response_cost_ns(100, 1000)
        assert stack.stats.duplicates == 1
        assert stack.stats.reorders == 1


class TestAbom:
    def test_contention_forces_retrap_retry(self):
        from repro.arch import Assembler, Reg
        from repro.core import CountingServices, XContainer

        eng = engine(FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(1)))
        xc = XContainer(CountingServices(), probe=Probe(eng))
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 3)
        asm.label("loop")
        asm.syscall_site(39, style="mov_eax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        stats = xc.abom_stats
        assert stats.cmpxchg_contentions == 1
        assert stats.total_patches == 1  # second trap won the CAS
        assert stats.unrecognized_sites == 0
        assert eng.counters[sites.ABOM_CMPXCHG].recovered == 1

    def test_9byte_phase2_loss_keeps_phase1_state_correct(self):
        from repro.arch import Assembler, Reg
        from repro.core import CountingServices, XContainer

        eng = engine(FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(2)))
        xc = XContainer(CountingServices(), probe=Probe(eng))
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 4)
        asm.label("loop")
        site = asm.syscall_site(15, style="mov_rax")
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        stats = xc.abom_stats
        # Phase 1 (occurrence 1) won; phase 2 (occurrence 2) lost — the
        # site still counts patched and the trailing syscall is skipped
        # by the LibOS return-address check.
        assert stats.patches_9byte == 1
        assert stats.patch_failures == 1
        assert xc.memory.read(site.syscall_addr, 2) == b"\x0f\x05"
        assert xc.libos_stats.lightweight_syscalls == 3
        assert xc.libos_stats.return_address_skips >= 3
