"""Seeded-race fixtures: known-bad protocol usages each checker must flag.

Each fixture drives *real* substrates into one deliberate violation and
returns a :class:`~repro.sanitize.report.SanitizeUnit` whose findings
must be non-empty and byte-identical across reruns (the acceptance bar).
They double as living documentation of what each checker means by a
violation — and as the regression net proving a refactor didn't silence
a checker.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.probe import Probe
from repro.sanitize.report import SanitizeUnit
from repro.sanitize.suite import SanitizerSuite


def kickless_producer() -> SanitizeUnit:
    """A frontend publishes a descriptor train but never kicks.

    Models the classic lost-wakeup bug: the producer advances the ring
    index, skips the event-channel notification (believing the consumer
    is awake), and the consumer goes to sleep with work in the ring.
    """
    suite = SanitizerSuite()
    ring = suite.ring_register("net:buggy", 256, 16, producer="dom1")
    suite.ring_batch_start(ring)
    for _ in range(8):
        suite.ring_publish(ring)
    # The bug: no ring_kick before the consumer quiesces.
    suite.ring_quiesce(ring)
    suite.finish()
    return _unit("kickless-producer", suite)


def double_unmap() -> SanitizeUnit:
    """A backend unmaps the same grant reference twice.

    Drives the real :class:`~repro.xen.grant_table.GrantTable`: the
    second unmap raises (the table is defensive), but the sanitizer
    still records the protocol misuse the exception papered over.
    """
    from repro.xen.grant_table import GrantError
    from repro.xen.hypervisor import XenHypervisor

    suite = SanitizerSuite()
    xen = XenHypervisor(probe=Probe(sanitizers=suite))
    guest = xen.create_domain("guest")
    backend = xen.create_domain("backend")
    ref = xen.grants.grant_access(guest.domid, 0xE000)
    xen.grants.map_grant(ref, backend.domid)
    xen.grants.unmap_grant(ref, backend.domid)
    try:
        xen.grants.unmap_grant(ref, backend.domid)  # the bug
    except GrantError:
        pass
    suite.finish()
    return _unit("double-unmap", suite)


def unsynchronized_text_patch() -> SanitizeUnit:
    """A rogue patcher stores to text another vCPU executes — no LOCK.

    ABOM's ``cmpxchg`` path synchronizes on the page-generation channel
    and stays clean; this fixture bypasses it with a plain store (WP
    disabled, like a buggy in-place patcher), which the happens-before
    detector flags as a write/exec race.
    """
    from repro.arch import Assembler, Reg
    from repro.core import CountingServices, XContainer

    suite = SanitizerSuite()
    xc = XContainer(
        CountingServices(results={}), probe=Probe(sanitizers=suite)
    )
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 4)
    asm.label("loop")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    binary = asm.build()
    xc.run(binary)
    # The bug: a different actor patches the just-executed text with a
    # plain store instead of the LOCK cmpxchg protocol.
    suite.current_actor = "rogue-patcher"
    xc.memory.wp_enabled = False
    try:
        xc.memory.write(binary.entry, b"\x90")
    finally:
        xc.memory.wp_enabled = True
    suite.finish()
    return _unit("unsynchronized-text-patch", suite)


FIXTURES: dict[str, Callable[[], SanitizeUnit]] = {
    "kickless-producer": kickless_producer,
    "double-unmap": double_unmap,
    "unsynchronized-text-patch": unsynchronized_text_patch,
}


def run_fixtures() -> list[SanitizeUnit]:
    """All fixtures, in catalog order."""
    return [FIXTURES[name]() for name in FIXTURES]


def _unit(name: str, suite: SanitizerSuite) -> SanitizeUnit:
    findings = tuple(suite.findings)
    outcome = "finding" if findings else "clean"
    return SanitizeUnit(
        name=name,
        outcome=outcome,
        stats=suite.stats(),
        findings=findings,
    )
