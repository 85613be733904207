"""Wake-event protocol threaded through the Xen substrates.

Every blocking point a guest can park behind — an event-channel wait, a
split-driver ring, a toolstack timer — carries an optional ``waker``
hook (default ``None``: a single attribute test, zero cost).  When an
:class:`~repro.core.engine.ExecutionEngine` is attached, those hooks
become wake kicks on the central event queue, which is what lets a
parked domain fast-forward to exactly the moment its I/O completes.
"""

from repro.core.engine import ExecutionEngine
from repro.faults.plan import Every, FaultEngine, FaultPlan, FaultSpec
from repro.faults import sites
from repro.obs import Probe
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.xen.blkdev import SECTOR_SIZE, BlockStore, SplitBlockDriver
from repro.xen.drivers import SplitNetDriver
from repro.xen.events import EventChannelTable
from repro.xen.hypervisor import DomainKind, XenHypervisor
from repro.xen.toolstack import Toolstack


class _RecordingWaker:
    """Captures every wake-hook call a substrate makes."""

    def __init__(self):
        self.events = []
        self.reaps = []
        self.timers = []

    def on_event(self, port):
        self.events.append(port)

    def on_ring_reap(self, count):
        self.reaps.append(count)

    def on_timer(self, domid, t_ns):
        self.timers.append((domid, t_ns))


class TestEventChannelWaker:
    def test_landed_send_fires_waker(self):
        table = EventChannelTable(CostModel(), SimClock())
        waker = _RecordingWaker()
        table.waker = waker
        port = table.bind(lambda: None)
        assert table.send(port)
        assert waker.events == [port]

    def test_dropped_send_does_not_wake(self):
        plan = FaultPlan(
            (FaultSpec(sites.EVENT_NOTIFY, "drop", Every(1)),)
        )
        table = EventChannelTable(
            CostModel(), SimClock(), probe=Probe(FaultEngine(plan))
        )
        waker = _RecordingWaker()
        table.waker = waker
        port = table.bind(lambda: None)
        assert not table.send(port)
        # A lost notify must not produce a phantom wake.
        assert waker.events == []

    def test_no_waker_is_the_default(self):
        table = EventChannelTable(CostModel(), SimClock())
        assert table.waker is None
        port = table.bind(lambda: None)
        assert table.send(port)


class TestRingWakers:
    def _net(self):
        clock = SimClock()
        xen = XenHypervisor(clock=clock)
        guest = xen.create_domain("guest")
        backend = xen.create_domain("driver", DomainKind.DRIVER)
        events = EventChannelTable(xen.costs, clock)
        return SplitNetDriver(
            guest, backend, xen.grants, events, xen.costs, clock
        )

    def test_net_reap_wakes_once_per_batch(self):
        driver = self._net()
        waker = _RecordingWaker()
        driver.waker = waker
        driver.transmit(1500)
        driver.transmit_batch((100, 200, 300))
        assert waker.reaps == [1, 3]

    def test_blk_read_and_write_reaps(self):
        driver = SplitBlockDriver(
            BlockStore(128), CostModel(), SimClock()
        )
        waker = _RecordingWaker()
        driver.waker = waker
        driver.write(0, b"\xAA" * SECTOR_SIZE)
        driver.write_many(
            [(1, b"\xBB" * SECTOR_SIZE), (2, b"\xCC" * SECTOR_SIZE)]
        )
        driver.read(0)
        driver.read_many([(1, 1), (2, 1)])
        assert waker.reaps == [1, 2, 1, 2]


class TestToolstackWaker:
    def test_boot_completion_is_a_timer_wake(self):
        xen = XenHypervisor(clock=SimClock())
        stack = Toolstack(xen)
        waker = _RecordingWaker()
        stack.waker = waker
        creation = stack.create("dom-a", full_vm_boot=False)
        assert len(waker.timers) == 1
        domid, t_ns = waker.timers[0]
        assert domid == creation.domain.domid
        assert t_ns == xen.clock.now_ns


class TestEngineIntegration:
    """The hooks end-to-end: substrate activity wakes parked domains."""

    def test_net_reap_fast_forwards_the_frontend_domain(self):
        engine = ExecutionEngine()
        dom = engine.spawn("frontend")
        driver = self._driver_on(engine)
        driver.waker = engine.ring_waker(dom.domid)
        # The domain parks; a ring reap at t~0 kicks it awake on the
        # next tick even with no mailbox work (spurious wake).
        driver.transmit(1500)
        engine.run_until(2e6)
        assert engine.stats.wake_events == 1
        assert engine.stats.spurious_wakes == 1
        assert dom.parked

    def test_event_table_attach_routes_ports_to_domains(self):
        engine = ExecutionEngine()
        a = engine.spawn("a")
        b = engine.spawn("b")
        table = EventChannelTable(CostModel(), engine.clock)
        engine.attach_events(table)
        port_a = table.bind(lambda: None)
        port_b = table.bind(lambda: None)
        engine.bind_port(port_a, a.domid)
        engine.bind_port(port_b, b.domid)
        engine.post_work(a.domid, 2, at_ns=0.0)
        table.send(port_a)
        table.send(port_b)
        engine.run_until(4e6)
        # Three kicks total: post + two sends; a's pair coalesces.
        assert engine.stats.wake_events == 3
        assert a.completed == 2
        assert b.completed == 0

    def test_toolstack_timer_wakes_engine_domain(self):
        engine = ExecutionEngine()
        dom = engine.spawn("await-boot")
        xen = XenHypervisor(clock=SimClock())
        stack = Toolstack(xen)

        class _Adapter:
            def on_timer(self, _domid, t_ns):
                engine.on_timer(dom.domid, t_ns)

        stack.waker = _Adapter()
        stack.create("dom-b", full_vm_boot=False)
        engine.run_to_quiescence()
        assert engine.stats.wake_events == 1
        assert dom.clock.now_ns > 0

    def _driver_on(self, engine):
        xen = XenHypervisor(clock=engine.clock)
        guest = xen.create_domain("guest")
        backend = xen.create_domain("driver", DomainKind.DRIVER)
        events = EventChannelTable(xen.costs, engine.clock)
        return SplitNetDriver(
            guest, backend, xen.grants, events, xen.costs, engine.clock
        )
