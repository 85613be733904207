"""The flat instant-event ring: recording, bounds, rendering, and what
``XContainer.attach_tracer`` routes into it."""

import warnings

import pytest

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer
from repro.obs import TraceEvent, Tracer
from repro.perf.clock import SimClock


class TestTracer:
    def test_emit_records_timestamp(self):
        clock = SimClock()
        tracer = Tracer(clock)
        clock.advance(100.0)
        tracer.emit("cat", "event", x=1)
        (event,) = tracer.events()
        assert event.ts_ns == 100.0
        assert event.detail == {"x": 1}

    def test_filtering(self):
        tracer = Tracer(SimClock())
        tracer.emit("a", "one")
        tracer.emit("b", "two")
        tracer.emit("a", "two")
        assert tracer.count("a") == 2
        assert len(tracer.events(name="two")) == 2
        assert len(tracer.events(category="a", name="two")) == 1

    def test_ring_buffer_drops_oldest_and_warns_once(self):
        tracer = Tracer(SimClock(), capacity=2)
        tracer.emit("c", "e0")
        tracer.emit("c", "e1")
        with pytest.warns(RuntimeWarning, match="ring overflowed"):
            tracer.emit("c", "e2")
        # Further overflow is counted but does not warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracer.emit("c", "e3")
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3"]

    def test_clear_rearms_the_overflow_warning(self):
        tracer = Tracer(SimClock(), capacity=1)
        tracer.emit("c", "e0")
        with pytest.warns(RuntimeWarning):
            tracer.emit("c", "e1")
        tracer.clear()
        tracer.emit("c", "e0")
        with pytest.warns(RuntimeWarning):
            tracer.emit("c", "e1")

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(SimClock(), capacity=0)

    def test_render_hexifies_addresses(self):
        event = TraceEvent(1000.0, "abom", "patch", {"site": 0x400005})
        assert "0x400005" in event.render()

    def test_clear(self):
        tracer = Tracer(SimClock())
        tracer.emit("c", "e")
        tracer.clear()
        assert tracer.count() == 0

    def test_render_limit_keeps_newest(self):
        tracer = Tracer(SimClock())
        for index in range(3):
            tracer.emit("c", f"e{index}")
        assert [line.split()[-1] for line in
                tracer.render(2).splitlines()] == ["e1", "e2"]
        assert len(tracer.render(10).splitlines()) == 3
        assert tracer.render(0) == ""
        with pytest.raises(ValueError):
            tracer.render(-1)


class TestContainerTracing:
    def test_syscall_lifecycle_visible(self):
        xc = XContainer(CountingServices())
        tracer = Tracer(xc.clock)
        xc.attach_tracer(tracer)
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 5)
        asm.label("loop")
        asm.syscall_site(39)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        assert len(tracer.events("syscall", "forwarded")) == 1
        assert len(tracer.events("syscall", "lightweight")) == 4
        assert len(tracer.events("abom", "patch")) == 1
        # The patch event records the site address.
        (patch,) = tracer.events("abom", "patch")
        assert patch.detail["site"] > 0x400000

    def test_fault_lifecycle_visible_through_attach_tracer(self):
        """Chaos runs are capturable: ``xc.attach_tracer`` wires the
        fault engine's injected/retried/recovered events in too."""
        from repro.faults import sites
        from repro.faults.plan import FaultPlan, FaultSpec, Nth

        engine = FaultPlan(
            (FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(1)),), 0
        ).compile()
        xc = XContainer(CountingServices(), faults=engine)
        tracer = Tracer(xc.clock)
        xc.attach_tracer(tracer)
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 3)
        asm.label("loop")
        asm.syscall_site(39)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        assert len(tracer.events("fault", "injected")) == 1
        assert len(tracer.events("fault", "retried")) == 1
        assert len(tracer.events("fault", "recovered")) == 1
        (injected,) = tracer.events("fault", "injected")
        assert injected.detail["site"] == sites.ABOM_CMPXCHG

    def test_unrecognized_sites_traced(self):
        xc = XContainer(CountingServices())
        tracer = Tracer(xc.clock)
        xc.attach_tracer(tracer)
        asm = Assembler()
        asm.syscall_site(39, style="cancellable")
        asm.hlt()
        xc.run(asm.build())
        assert len(tracer.events("abom", "unrecognized")) == 1
