"""Sanitized end-to-end runs: chaos catalog and fig workloads.

``sanitize_chaos`` replays the shipped chaos catalog with a fresh
:class:`~repro.sanitize.suite.SanitizerSuite` wired into every scenario's
substrates — the acceptance bar is that injected faults the retry paths
recover from leave the sanitizers *clean* (a dropped kick that gets
re-kicked is a counter, not a finding).

``sanitize_workloads`` drives the fig3 request profiles (NGINX,
memcached, Redis) and a fig8-style scale-out pass through the real Xen
substrates — split net/block rings, grant copy windows, event channels,
domain create/destroy, and a two-vCPU container with ABOM patching live
text — all under the full suite.  The fig experiment modules themselves
are closed analytic models; their workload profiles are sanitized here
at the substrate level, where the shared-memory protocols actually run.
"""

from __future__ import annotations

from repro.obs.probe import Probe
from repro.sanitize.fixtures import run_fixtures
from repro.sanitize.report import SanitizeReport, SanitizeUnit
from repro.sanitize.suite import SanitizerSuite


def sanitize_chaos(
    seed: int | str = 0, names: list[str] | None = None
) -> list[SanitizeUnit]:
    """Run the chaos catalog under ``seed`` with all sanitizers attached."""
    from repro.faults.chaos import ChaosHarness
    from repro.faults.registry import get_scenario, scenario_names

    harness = ChaosHarness(seed)
    selected = names if names is not None else scenario_names()
    units = []
    for name in selected:
        suite = SanitizerSuite()
        result = harness.run(get_scenario(name), sanitizers=suite)
        suite.finish()
        units.append(
            SanitizeUnit(
                name=f"chaos:{name}",
                outcome=result.outcome,
                stats=suite.stats(),
                findings=tuple(suite.findings),
            )
        )
    return units


def _profile_unit(name: str, bytes_in: int, bytes_out: int) -> SanitizeUnit:
    """One fig3 profile through the real split-driver substrates."""
    from repro.perf.clock import SimClock
    from repro.xen.blkdev import SECTOR_SIZE, BlockStore, SplitBlockDriver
    from repro.xen.drivers import SplitNetDriver
    from repro.xen.events import EventChannelTable
    from repro.xen.hypervisor import DomainKind, XenHypervisor

    suite = SanitizerSuite()
    probe = Probe(sanitizers=suite)
    clock = SimClock()
    xen = XenHypervisor(clock=clock, probe=probe)
    guest = xen.create_domain(f"{name}-xc")
    backend = xen.create_domain("driver", DomainKind.DRIVER)
    events = EventChannelTable(xen.costs, clock, probe=probe)
    net = SplitNetDriver(
        guest, backend, xen.grants, events, xen.costs, clock, probe=probe
    )
    blk = SplitBlockDriver(BlockStore(4096), xen.costs, clock, probe=probe)
    payload = bytes_in + bytes_out
    # Request trains through the net ring (batched, one kick per train).
    for _ in range(20):
        net.transmit_batch([payload] * 16)
    # Access-log style block writes, then a read-back pass.
    blk.write_many(
        [(sector, b"\x5a" * SECTOR_SIZE) for sector in range(0, 64, 4)]
    )
    blk.read_many([(sector, 1) for sector in range(0, 64, 4)])
    # A grant copy window (GNTTABOP_copy batch) opened and closed cleanly.
    ref = xen.grants.grant_access(guest.domid, 0xD000)
    xen.grants.map_grant(ref, backend.domid)
    xen.grants.copy_grant_batch(ref, backend.domid, [bytes_out] * 8)
    xen.grants.unmap_grant(ref, backend.domid)
    xen.grants.end_access(ref)
    net.close()
    xen.destroy_domain(guest.domid)
    xen.destroy_domain(backend.domid)
    suite.finish()
    return SanitizeUnit(
        name=f"workload:{name}",
        outcome="completed",
        stats=suite.stats(),
        findings=tuple(suite.findings),
    )


def _scaleout_unit() -> SanitizeUnit:
    """fig8-style pass: container burst + two vCPUs on ABOM-patched text."""
    from repro.arch import Assembler, Reg
    from repro.core import CountingServices, XContainer
    from repro.xen.hypervisor import XenHypervisor
    from repro.xen.toolstack import Toolstack

    suite = SanitizerSuite()
    probe = Probe(sanitizers=suite)
    # Domain burst: create and tear down like the 400-container sweep.
    xen = XenHypervisor(probe=probe)
    toolstack = Toolstack(xen)
    created = [
        toolstack.create(f"xc{index}", memory_mb=256, full_vm_boot=False)
        for index in range(8)
    ]
    for creation in created:
        toolstack.destroy(creation.domain.domid)
    # Two vCPUs executing the SAME text while ABOM patches it live: the
    # cmpxchg/page-generation protocol must keep the race detector clean.
    xc = XContainer(CountingServices(results={}), vcpus=2, probe=probe)
    cpu1 = xc.add_vcpu()
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 6)
    asm.label("loop")
    asm.syscall_site(39, style="mov_eax")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    binary = asm.build()
    xc.load(binary)
    xc.run_concurrent([(xc.cpu, binary.entry), (cpu1, binary.entry)])
    suite.finish()
    return SanitizeUnit(
        name="workload:scaleout",
        outcome="completed",
        stats=suite.stats(),
        findings=tuple(suite.findings),
    )


def sanitize_workloads(seed: int | str = 0) -> list[SanitizeUnit]:
    """fig3 request profiles + fig8 scale-out, all sanitizers attached."""
    from repro.workloads.profiles import MEMCACHED, NGINX, REDIS

    units = [
        _profile_unit("nginx", NGINX.bytes_in, NGINX.bytes_out),
        _profile_unit("memcached", MEMCACHED.bytes_in, MEMCACHED.bytes_out),
        _profile_unit("redis", REDIS.bytes_in, REDIS.bytes_out),
        _scaleout_unit(),
    ]
    return units


def run_sanitize(
    seed: int | str = 0,
    target: str = "all",
    names: list[str] | None = None,
) -> SanitizeReport:
    """Build the report for ``repro sanitize``.

    ``target`` selects what to sanitize: ``chaos``, ``workloads``,
    ``fixtures`` (the seeded-race units, which SHOULD have findings), or
    ``all`` (chaos + workloads — the clean-run CI gate).
    """
    units: list[SanitizeUnit] = []
    if target in ("chaos", "all"):
        units.extend(sanitize_chaos(seed, names))
    if target in ("workloads", "all"):
        units.extend(sanitize_workloads(seed))
    if target == "fixtures":
        units.extend(run_fixtures())
    if not units:
        raise ValueError(
            f"unknown sanitize target {target!r} "
            "(expected chaos, workloads, fixtures, or all)"
        )
    return SanitizeReport(seed=seed, units=tuple(units))
