"""The probe: one hook per substrate, routed through the site catalog."""

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer
from repro.faults import sites
from repro.faults.plan import FaultPlan, FaultSpec, Nth
from repro.obs import Probe, Tracer
from repro.perf.clock import SimClock
from repro.sanitize import SanitizerSuite


def engine(*specs):
    return FaultPlan(tuple(specs), 0).compile()


class TestRouting:
    def test_bare_probe_hears_nothing(self):
        probe = Probe()
        for site in sites.SITES:
            assert probe.fire(site, site="x") is None

    def test_unknown_site_is_silent(self):
        probe = Probe(engine(), SanitizerSuite(), Tracer(SimClock()))
        assert probe.fire("no.such.site", port=1) is None

    def test_fault_site_returns_the_engine_fault(self):
        eng = engine(FaultSpec(sites.EVENT_NOTIFY, "drop", Nth(2)))
        probe = Probe(eng)
        assert probe.fire(sites.EVENT_NOTIFY, port=3) is None
        fault = probe.fire(sites.EVENT_NOTIFY, port=3)
        assert (fault.site, fault.kind, fault.occurrence) == (
            sites.EVENT_NOTIFY, "drop", 2
        )
        assert eng.counters[sites.EVENT_NOTIFY].occurrences == 2

    def test_lifecycle_sites_count_on_the_named_fault_site(self):
        eng = engine()
        probe = Probe(eng)
        probe.fire(sites.RETRIED, site=sites.GRANT_MAP, error="E")
        probe.fire(sites.RECOVERED, site=sites.GRANT_MAP, attempts=2)
        probe.fire(sites.FATAL, site=sites.VCPU)
        grant = eng.counters[sites.GRANT_MAP]
        assert (grant.retried, grant.recovered, grant.fatal) == (1, 1, 0)
        assert eng.counters[sites.VCPU].fatal == 1

    def test_sanitizer_event_calls_the_named_method(self):
        suite = SanitizerSuite()
        probe = Probe(sanitizers=suite)
        probe.fire(sites.EVENT_SEND, port=5)
        probe.fire(sites.EVENT_DROP, port=5)
        stats = dict(suite.stats())
        assert stats["event_sends"] == 1 and stats["event_drops"] == 1

    def test_ring_events_are_keyed_by_the_producer_object(self):
        suite = SanitizerSuite()
        probe = Probe(sanitizers=suite)
        first, second = object(), object()
        for ring in (first, second):
            probe.fire(
                sites.RING_REGISTER, ring=ring, name="net:g1b2", size=4,
                slot_bytes=16,
            )
        probe.fire(sites.RING_PUBLISH, ring=second)
        probe.fire(sites.RING_QUIESCE, ring=second)
        suite.finish()
        (finding,) = suite.findings
        assert finding.kind == "ring-lost-wakeup"
        assert finding.message.startswith("net:g1b2#2:")

    def test_trace_event_keeps_category_name_and_detail(self):
        tracer = Tracer(SimClock())
        Probe(tracer=tracer).fire(sites.ABOM_PATCH, site=0x401000)
        (event,) = tracer.events()
        assert (event.category, event.name, event.detail) == (
            "abom", "patch", {"site": 0x401000}
        )

    def test_fault_events_reach_the_tracer_only_with_an_engine(self):
        tracer = Tracer(SimClock())
        Probe(tracer=tracer).fire(sites.RETRIED, site=sites.VCPU)
        assert tracer.events() == []
        eng = engine(FaultSpec(sites.VCPU, "stall", Nth(1)))
        probe = Probe(eng, tracer=tracer)
        probe.fire(sites.VCPU, runnable=2)
        probe.fire(sites.RECOVERED, site=sites.VCPU, name="shadowed")
        injected, recovered = tracer.events("fault")
        assert injected.detail == {
            "site": sites.VCPU, "kind": "stall", "runnable": 2,
        }
        assert (recovered.name, recovered.detail) == (
            "recovered", {"site": sites.VCPU}
        )


class TestContainerEvents:
    def test_every_subscriber_attaches_with_one_probe(self):
        eng = engine(FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(1)))
        suite = SanitizerSuite()
        tracer = Tracer(SimClock())
        xc = XContainer(
            CountingServices(), clock=tracer.clock,
            probe=Probe(eng, suite, tracer),
        )
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 3)
        asm.label("loop")
        asm.syscall_site(39)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        forwarded = tracer.events("syscall", "forwarded")
        assert list(forwarded[0].detail) == ["rip", "nr"]
        assert [e.name for e in tracer.events("fault")] == [
            "injected", "retried", "recovered",
        ]
        assert eng.counters[sites.ABOM_CMPXCHG].recovered == 1
        assert dict(suite.stats())["race_accesses_checked"] > 0
        assert suite.findings == []

    def test_added_vcpus_share_the_probe(self):
        probe = Probe(tracer=Tracer(SimClock()))
        xc = XContainer(CountingServices(), probe=probe)
        cpu = xc.add_vcpu()
        assert cpu.probe is probe and xc.cpu.probe is probe
        assert cpu.actor == "xc0/vcpu1"


def test_every_catalog_site_routes_to_its_subscribers():
    probe = Probe(engine(), SanitizerSuite(), Tracer(SimClock()))
    for site, info in sites.SITES.items():
        expected = (
            bool(info.kinds) + bool(info.record) + bool(info.sanitizer)
            + bool(info.trace and not info.record)
        )
        assert len(probe._routes[site]) == expected, site


class TestRouteTable:
    def test_routes_follow_the_catalog_for_every_subscriber_mix(self):
        """Each site routes, in order, to fault injection, the fault
        lifecycle, the sanitizer and the tracer its catalog entry
        names, for every combination of attached subscribers."""
        for mask in range(8):
            faults = engine() if mask & 1 else None
            suite = SanitizerSuite() if mask & 2 else None
            tracer = Tracer(SimClock()) if mask & 4 else None
            probe = Probe(faults, suite, tracer)
            expected = {}
            for name, info in sites.SITES.items():
                kinds = []
                if faults is not None and info.kinds:
                    kinds.append("inject")
                if faults is not None and info.record and info.trace:
                    kinds.append("record")
                if suite is not None and info.sanitizer is not None:
                    kinds.append("sanitizer")
                if tracer is not None and info.trace and not info.record:
                    kinds.append("tracer")
                if kinds:
                    expected[name] = kinds
            actual = {
                name: [
                    {"_inject": "inject", "_record": "record"}.get(
                        handler.func.__name__,
                        "tracer" if handler.args[0].__class__.__name__
                        == "partial" else "sanitizer",
                    )
                    for handler in handlers
                ]
                for name, handlers in probe._routes.items()
            }
            assert actual == expected
