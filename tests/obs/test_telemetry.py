"""``XContainer.telemetry()``: the one stats surface over every substrate.

Each bound metric must read exactly what its substrate struct holds, and
one snapshot must carry every layer's counters.
"""

import pytest

from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices
from repro.obs import wire
from repro.workloads.unixbench import build_syscall_bench
from repro.xen.blkdev import BlockStore, SplitBlockDriver
from repro.xen.drivers import SplitNetDriver
from repro.xen.events import EventChannelTable
from repro.xen.hypervisor import DomainKind, XenHypervisor


def make_net_driver(probe=None):
    xen = XenHypervisor()
    guest = xen.create_domain("guest")
    backend = xen.create_domain("backend", DomainKind.DRIVER)
    events = EventChannelTable(xen.costs, xen.clock)
    return SplitNetDriver(
        guest, backend, xen.grants, events, xen.costs, xen.clock,
        probe=probe,
    )


class TestContainerTelemetry:
    def test_icache_metrics_match_the_cpu_struct(self):
        xc = XContainer(CountingServices())
        xc.run(build_syscall_bench(10))
        tel = xc.telemetry()
        stats = xc.cpu.icache_stats
        assert stats.hits > 0 and stats.invalidations > 0
        assert tel.value("arch_icache_hits_total") == stats.hits
        assert tel.value("arch_icache_misses_total") == stats.misses
        assert tel.value("arch_icache_invalidations_total") == (
            stats.invalidations
        )

    def test_telemetry_disabled_raises(self):
        xc = XContainer(CountingServices(), telemetry=False)
        with pytest.raises(RuntimeError, match="telemetry disabled"):
            xc.telemetry()

    def test_ring_metrics_match_every_driver_field(self):
        xc = XContainer(CountingServices())
        net = make_net_driver()
        net.transmit_batch([100, 200, 300])
        net.transmit(50)
        xc.attach_io_driver("eth0", net)
        blk = SplitBlockDriver(BlockStore(64))
        blk.write(0, b"s" * 512)
        blk.read(0)
        xc.attach_io_driver("xvda", blk)
        tel = xc.telemetry()
        for name, driver, fields in (
            ("eth0", net, wire.NET_RING_FIELDS),
            ("xvda", blk, wire.BLK_RING_FIELDS),
        ):
            stats = driver.stats.as_dict()
            assert set(fields) == set(stats)
            for field, metric in fields.items():
                assert tel.value(metric, driver=name) == stats[field], field

    def test_driver_attached_after_telemetry_is_wired(self):
        xc = XContainer(CountingServices())
        tel = xc.telemetry()  # built before any driver exists
        net = make_net_driver()
        net.transmit_batch([10, 20])
        xc.attach_io_driver("late0", net)
        assert tel.value("xen_ring_batches_total", driver="late0") == 1

    def test_one_snapshot_reports_every_surface(self):
        """The acceptance query: one structure, all the counters."""
        from repro.faults import sites
        from repro.faults.plan import FaultPlan, FaultSpec, Nth

        from repro.obs import Probe

        probe = Probe(
            FaultPlan(
                (FaultSpec(sites.NET_BACKEND, "kill", Nth(1)),), seed=3
            ).compile()
        )
        xc = XContainer(CountingServices(), probe=probe)
        xc.run(build_syscall_bench(5))
        net = make_net_driver(probe)
        net.transmit(100)
        xc.attach_io_driver("eth0", net)
        tel = xc.telemetry()
        tel.histogram("net_http_request_latency_ns").observe(500.0)
        snap = tel.snapshot()
        counters = snap["counters"]

        def have(prefix):
            return any(key.startswith(prefix) for key in counters)

        assert have("arch_icache_hits_total")
        assert have("core_xkernel_syscalls_trapped_total")
        assert have("xen_ring_batches_total")
        assert have("faults_injected_total")
        assert "net_http_request_latency_ns{domain=xc0}" in (
            snap["histograms"]
        )


class TestSharedDecodeMetric:
    def test_shared_hits_bind_on_request_only(self):
        from repro.arch.cpu import SHARED_BLOCKS
        from repro.obs.registry import Registry

        SHARED_BLOCKS.clear()  # a cold cache: no flush mid-test
        first = XContainer(CountingServices(), name="first")
        first.run(build_syscall_bench(10))
        second = XContainer(CountingServices(), name="second")
        second.run(build_syscall_bench(10))
        stats = second.cpu.icache_stats
        assert stats.shared_hits == stats.misses > 0
        # The container's own export leaves the host-side count out.
        with pytest.raises(KeyError):
            second.telemetry().value("arch_icache_shared_hits_total")
        registry = Registry(domain="second")
        wire.wire_shared_decode(registry, second.cpu, index=0)
        assert registry.value("arch_icache_shared_hits_total", cpu=0) == (
            stats.shared_hits
        )
