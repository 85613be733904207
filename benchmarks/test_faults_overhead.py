"""Bench: the fault-injection hooks are free when injection is off.

Fault sites reach the substrates through their one ``probe`` attribute
(:class:`repro.obs.probe.Probe`), which adds one guard (``self.probe is
not None``) to each hot path.  Two claims pinned here:

* the guard costs <2% of the cheapest hot path it sits on (the netfront
  transmit — everything else is more expensive per occurrence);
* with injection disabled the *simulated* results are not merely close
  but byte-identical: same per-op costs, same clock, same stats, whether
  ``probe`` is ``None`` or routes to an armed engine whose plan never
  matches.

The wall-time comparison uses min-of-rounds on both sides so scheduler
noise cannot fail the build, and over-counts the guards 2x for slack
(the happy transmit path evaluates exactly one).
"""

import time

from repro.faults import sites
from repro.faults.plan import FaultPlan, FaultSpec, Nth
from repro.guest.netstack import NetDevice, NetStack
from repro.obs import Probe
from repro.xen.drivers import SplitNetDriver
from repro.xen.events import EventChannelTable
from repro.xen.hypervisor import DomainKind, XenHypervisor

#: Guards charged per transmit in the cost model below; the real happy
#: path evaluates one (see ``SplitNetDriver._transmit_once``).
GUARDS_PER_OP = 2

TRANSMITS = 2000


def _min_time(fn, rounds=7):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _driver(probe=None):
    xen = XenHypervisor()
    guest = xen.create_domain("guest")
    backend = xen.create_domain("backend", DomainKind.DRIVER)
    events = EventChannelTable(xen.costs, xen.clock)
    return xen, SplitNetDriver(
        guest, backend, xen.grants, events, xen.costs, xen.clock,
        probe=probe,
    )


def _never_matching_probe():
    """Probe to an armed engine whose only spec targets a site the
    driver never fires — the strictest 'enabled but idle' configuration."""
    return Probe(
        FaultPlan(
            (FaultSpec(sites.TOOLSTACK_SPAWN, "timeout", Nth(1)),), 0
        ).compile()
    )


def test_disabled_hook_guard_cost_under_two_percent(benchmark, record_rate):
    _, driver = _driver()

    def transmits():
        for _ in range(TRANSMITS):
            driver.transmit(1000)
        return TRANSMITS

    ops = benchmark(transmits)
    transmit_s = _min_time(transmits)

    def guards():
        for _ in range(TRANSMITS * GUARDS_PER_OP):
            if driver.probe is not None:
                pass

    def loop_only():
        for _ in range(TRANSMITS * GUARDS_PER_OP):
            pass

    guard_s = max(0.0, _min_time(guards) - _min_time(loop_only))
    overhead = guard_s / transmit_s
    assert overhead < 0.02, (
        f"disabled fault hooks cost {overhead:.2%} of the transmit path"
    )
    record_rate(
        benchmark, ops, disabled_hook_overhead=round(overhead, 5)
    )


def test_disabled_hooks_leave_driver_results_identical():
    xen_off, off = _driver(probe=None)
    xen_idle, idle = _driver(probe=_never_matching_probe())
    for nbytes in (0, 1, 64, 1500, 65536):
        assert off.transmit(nbytes) == idle.transmit(nbytes)
    assert xen_off.clock.now_ns == xen_idle.clock.now_ns
    assert off.stats == idle.stats
    assert idle.probe.faults.totals().injected == 0


def test_disabled_hooks_leave_netstack_results_identical():
    off = NetStack(device=NetDevice.NETFRONT)
    idle = NetStack(
        device=NetDevice.NETFRONT, probe=_never_matching_probe()
    )
    for _ in range(50):
        assert off.request_response_cost_ns(
            120, 1100
        ) == idle.request_response_cost_ns(120, 1100)
    assert off.stats == idle.stats
