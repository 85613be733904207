"""The ``xl`` toolstack — domain creation and its cost (§4.5).

    "the overhead of Xen's 'xl' toolstack brings the total instantiation
     time up to 3 seconds.  LightVM has proposed a solution to reduce the
     overhead of the toolstack to 4ms, which can be also applied to
     X-Containers."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import sites
from repro.faults.retry import RetryPolicy
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel
from repro.xen.hypervisor import Domain, DomainKind, XenHypervisor


class SpawnTimeout(RuntimeError):
    """``xl create`` timed out; the half-built domain was torn down."""


@dataclass
class DomainCreation:
    domain: Domain
    toolstack_ms: float
    boot_ms: float

    @property
    def total_ms(self) -> float:
        return self.toolstack_ms + self.boot_ms


class Toolstack:
    """Creates and destroys domains through the hypervisor."""

    def __init__(
        self,
        xen: XenHypervisor,
        lightvm_mode: bool = False,
        probe=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.xen = xen
        #: LightVM's streamlined toolstack (no xenstore transactions, no
        #: device-model handshakes).
        self.lightvm_mode = lightvm_mode
        #: Optional :class:`repro.obs.probe.Probe`.
        self.probe = probe
        #: Spawn retries back off in the millisecond range — xl restarts
        #: the whole create transaction, not a single hypercall.
        self.retry = retry or RetryPolicy(
            max_attempts=4, base_backoff_ns=1e6, max_backoff_ns=1e8
        )
        self.creations: list[DomainCreation] = []
        self.spawn_timeouts = 0
        #: Optional wake hub (:class:`repro.core.engine.ExecutionEngine`):
        #: boot completion is a timer wake for the new domain, so a
        #: fleet waiting on spawns fast-forwards to each boot's end.
        self.waker = None

    @property
    def costs(self) -> CostModel:
        return self.xen.costs

    @property
    def clock(self) -> SimClock:
        return self.xen.clock

    def create(
        self,
        name: str,
        vcpus: int = 1,
        memory_mb: int = 512,
        kind: DomainKind = DomainKind.DOMU,
        full_vm_boot: bool = True,
    ) -> DomainCreation:
        """Create a domain; ``full_vm_boot=False`` is the X-LibOS +
        bootloader path (180 ms instead of a full distro boot).

        Injected spawn timeouts tear the half-created domain down (no
        leaked memory accounting) and are retried under :attr:`retry`.
        """
        return self.retry.run(
            lambda: self._create_once(
                name, vcpus, memory_mb, kind, full_vm_boot
            ),
            retriable=(SpawnTimeout,),
            clock=self.clock,
            probe=self.probe,
            site=sites.TOOLSTACK_SPAWN,
        )

    def _create_once(
        self,
        name: str,
        vcpus: int,
        memory_mb: int,
        kind: DomainKind,
        full_vm_boot: bool,
    ) -> DomainCreation:
        domain = self.xen.create_domain(name, kind, vcpus, memory_mb)
        if self.probe is not None:
            fault = self.probe.fire(sites.TOOLSTACK_SPAWN, domain=name)
            if fault is not None and fault.kind == "timeout":
                self.spawn_timeouts += 1
                self.xen.destroy_domain(domain.domid)
                # Charge the wasted wait before xl gives up on the stuck
                # xenstore/device handshake.
                wait_ns = fault.param or self.costs.xl_toolstack_ms * 1e6
                self.clock.advance(wait_ns)
                raise SpawnTimeout(f"xl create {name!r} timed out")
        toolstack_ms = (
            self.costs.lightvm_toolstack_ms
            if self.lightvm_mode
            else self.costs.xl_toolstack_ms
        )
        boot_ms = (
            self.costs.vm_boot_ms if full_vm_boot else self.costs.xlibos_boot_ms
        )
        creation = DomainCreation(domain, toolstack_ms, boot_ms)
        self.clock.advance(creation.total_ms * 1e6)
        self.creations.append(creation)
        if self.waker is not None:
            self.waker.on_timer(domain.domid, self.clock.now_ns)
        return creation

    def destroy(self, domid: int) -> None:
        self.xen.destroy_domain(domid)
