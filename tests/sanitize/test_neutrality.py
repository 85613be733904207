"""Property: sanitizers are observation-only.

Attaching the full suite may add findings and counters, but must never
change a single simulated number: registers, memory bytes, clocks, stats
— all byte-identical with sanitizers on or off.  Hypothesis generates
random programs and descriptor trains; each runs both ways and the
results are compared exactly (same discipline as the telemetry
neutrality property in ``tests/obs/test_property.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.assembler import Assembler
from repro.arch.registers import Reg
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices
from repro.obs import Probe
from repro.sanitize import SanitizerSuite

OPS = st.lists(
    st.sampled_from(("inc", "dec", "sys_eax", "sys_rax")),
    min_size=1,
    max_size=10,
)


def build_program(ops, iters):
    asm = Assembler(base=0x400000)
    asm.mov_imm32(Reg.RBX, iters)
    asm.mov_imm32(Reg.RCX, 0)
    asm.label("loop")
    for index, op in enumerate(ops):
        if op == "inc":
            asm.inc(Reg.RCX)
        elif op == "dec":
            asm.dec(Reg.RCX)
        elif op == "sys_eax":
            asm.syscall_site(39, style="mov_eax", symbol=f"s{index}")
        else:
            asm.syscall_site(15, style="mov_rax", symbol=f"s{index}")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build("prop")


class TestSanitizerNeutrality:
    @settings(max_examples=20, deadline=None)
    @given(ops=OPS, iters=st.integers(min_value=1, max_value=4))
    def test_random_programs_unchanged_by_sanitizers(self, ops, iters):
        binary = build_program(ops, iters)

        def run(sanitized):
            suite = SanitizerSuite() if sanitized else None
            probe = Probe(sanitizers=suite) if sanitized else None
            xc = XContainer(CountingServices(), probe=probe)
            result = xc.run(binary)
            if sanitized:
                suite.finish()
                # Patched text is ordered through the LOCK channel, so
                # single-vCPU ABOM must never trip the detector.
                assert suite.findings == []
            return (
                result.instructions,
                result.elapsed_ns,
                result.exit_rax,
                xc.clock.now_ns,
                xc.cpu.regs.read64(Reg.RBX),
                xc.cpu.regs.read64(Reg.RCX),
                bytes(xc.memory.read(binary.base, len(binary.code))),
                xc.libos_stats.forwarded_syscalls,
                xc.libos_stats.lightweight_syscalls,
            )

        assert run(sanitized=True) == run(sanitized=False)

    @settings(max_examples=10, deadline=None)
    @given(
        trains=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=4096),
                min_size=1,
                max_size=20,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_ring_trains_unchanged_by_sanitizers(self, trains):
        from repro.perf.clock import SimClock
        from repro.xen.drivers import SplitNetDriver
        from repro.xen.events import EventChannelTable
        from repro.xen.hypervisor import DomainKind, XenHypervisor

        def run(sanitized):
            suite = SanitizerSuite() if sanitized else None
            probe = Probe(sanitizers=suite) if sanitized else None
            clock = SimClock()
            xen = XenHypervisor(clock=clock, probe=probe)
            guest = xen.create_domain("guest")
            backend = xen.create_domain("backend", DomainKind.DRIVER)
            events = EventChannelTable(xen.costs, clock, probe=probe)
            net = SplitNetDriver(
                guest, backend, xen.grants, events, xen.costs, clock,
                probe=probe,
            )
            costs = [net.transmit_batch(train) for train in trains]
            net.close()
            if sanitized:
                suite.finish()
                assert suite.findings == []
            return (
                tuple(costs),
                clock.now_ns,
                net.stats.requests,
                net.stats.bytes_moved,
                net.stats.kicks_saved,
            )

        assert run(sanitized=True) == run(sanitized=False)

    def test_clocks_identical_across_reruns(self):
        """Vector clocks themselves are deterministic state."""

        def clocks():
            unit_suites = []
            from repro.sanitize.harness import sanitize_chaos

            for unit in sanitize_chaos(seed=7, names=["event-storm-blkdev"]):
                unit_suites.append(unit)
            return [u.stats for u in unit_suites]

        assert clocks() == clocks()
