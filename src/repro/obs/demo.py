"""A deterministic end-to-end workload exercising every telemetry source.

``repro metrics`` and ``repro trace`` need *something* to measure; this
module runs a miniature X-Container day — a syscall loop on the
interpreter (icache + ABOM + hypercalls), batched transmits through a
split net driver with one injected backend kill (ring + grant + event +
fault counters), and a functional HTTP run (latency histogram + spans) —
all on one simulated clock and one registry.  Same seed + same arguments
⇒ byte-identical exports; the golden-file tests pin exactly that.
"""

from __future__ import annotations

from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices
from repro.faults import sites
from repro.faults.plan import FaultPlan, FaultSpec, Nth
from repro.obs import wire
from repro.obs.facade import Telemetry
from repro.obs.probe import Probe
from repro.perf.clock import SimClock
from repro.workloads.unixbench import build_syscall_bench
from repro.workloads.wrk_functional import FunctionalWrk
from repro.xen.drivers import SplitNetDriver
from repro.xen.hypervisor import DomainKind, XenHypervisor

#: Descriptor trains pushed through the net ring (the second descriptor
#: of the first train trips the injected backend kill, so the run shows
#: a full death → retry → reconnect → recovery cycle).
DEMO_TRAINS = ((1500, 1500, 9000), (1500,) * 8, (64, 256, 1024, 4096))


def run_demo(
    seed: int = 1234,
    requests: int = 8,
    syscall_iters: int = 25,
) -> Telemetry:
    """Run the demo workload; returns the populated :class:`Telemetry`.

    Deterministic in ``(seed, requests, syscall_iters)`` — the fault plan
    seed is the only randomness source, and it only feeds probability
    triggers (the demo plan uses none, so ``seed`` is future-proofing).
    """
    clock = SimClock()
    probe = Probe(
        FaultPlan(
            (FaultSpec(sites.NET_BACKEND, "kill", Nth(2)),), seed=seed
        ).compile(clock)
    )

    xc = XContainer(CountingServices(), clock=clock, name="demo", probe=probe)
    tel = xc.telemetry()

    # Interpreter + ABOM + hypercalls: a real machine-code syscall loop.
    with tel.span("demo.syscall_bench", iters=syscall_iters):
        xc.run(build_syscall_bench(syscall_iters))

    # Xen I/O path: batched transmits over a split net driver, with the
    # grant table and event channels wired in, and one backend kill.
    hv = XenHypervisor(costs=xc.costs, clock=clock)
    guest = hv.create_domain("demo-guest")
    backend = hv.create_domain("demo-backend", DomainKind.DRIVER)
    events = hv.event_channels()
    driver = SplitNetDriver(
        guest,
        backend,
        hv.grants,
        events,
        costs=xc.costs,
        clock=clock,
        probe=probe,
    )
    xc.attach_io_driver("net0", driver)
    wire.wire_grants(tel.registry, hv.grants)
    wire.wire_events(tel.registry, events)
    wire.wire_hypercall_table(tel.registry, hv.hypercalls)
    for train in DEMO_TRAINS:
        with tel.span("netfront.tx", descriptors=len(train)):
            driver.transmit_batch(train)

    # Functional HTTP stack on the same clock: latency histogram + spans.
    wrk = FunctionalWrk(
        clock=clock, telemetry=tel.child(component="http")
    )
    with tel.span("demo.http_run", requests=requests):
        wrk.run(requests=requests)

    return tel
