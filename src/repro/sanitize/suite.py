"""The sanitizer suite: one subscriber the substrates' probes call.

``SanitizerSuite`` owns the three checkers and presents the narrow
``on_*``/``ring_*`` surface a :class:`repro.obs.probe.Probe` calls for
each sanitizer event of :mod:`repro.faults.sites`.  With ``probe=None``
every hook site is a single attribute test — the <2% budget.

Actor attribution: cross-vCPU attribution needs to know *who* is
executing when a memory observer fires.  The execution drivers
(``XContainer.run_concurrent`` et al.) keep :attr:`current_actor`
up to date; hooks with better knowledge (a driver that knows which
domain is frontend and which is backend) pass explicit actors instead.

Synchronization-edge catalog (what advances the vector clocks):

===========================  =======================================
edge                          channel
===========================  =======================================
event send / delivery         ``("evt", port)``
ring kick / reap              ``("ring", name)`` (producer → consumer)
ring reap / next train        ``("ringc", name)`` (consumer → producer)
grant / map,  unmap / end     ``("gnt", ref)``
LOCK cmpxchg and block decode ``("page", page_index)``
===========================  =======================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.safety import Finding
from repro.sanitize.grants import GrantSanitizer
from repro.sanitize.protocol import ProtocolChecker
from repro.sanitize.race import RaceDetector

if TYPE_CHECKING:
    from repro.arch.memory import PagedMemory
    from repro.obs.registry import Registry


class SanitizerSuite:
    """Deterministic cross-vCPU sanitizers over the simulated stack."""

    def __init__(
        self, race: bool = True, grants: bool = True, rings: bool = True
    ) -> None:
        self.race: RaceDetector | None = RaceDetector() if race else None
        self.grants: GrantSanitizer | None = GrantSanitizer() if grants else None
        self.rings: ProtocolChecker | None = ProtocolChecker() if rings else None
        #: Whoever the execution driver says is running right now.
        self.current_actor = "main"
        self._memories: list[tuple[PagedMemory, object, object]] = []
        #: Ring key (the producer object a substrate fires with, or the
        #: name itself) -> (uniquified name, producer, consumer).
        self._rings: dict[object, tuple[str, str, str]] = {}

    # ------------------------------------------------------------------
    # Memory attachment (race detector substrate)
    # ------------------------------------------------------------------
    def attach_memory(self, memory: PagedMemory) -> None:
        """Observe plain and LOCK-prefixed stores through ``memory``."""

        def on_write(addr: int, size: int) -> None:
            if memory.in_locked_op:
                return  # the lock observer reports this store
            race = self.race
            if race is not None:
                race.write(self.current_actor, addr, size)

        def on_lock(addr: int, size: int) -> None:
            race = self.race
            if race is not None:
                race.locked_write(self.current_actor, addr, size)

        memory.add_write_observer(on_write)
        memory.add_lock_observer(on_lock)
        self._memories.append((memory, on_write, on_lock))

    def detach(self) -> None:
        """Remove every observer this suite registered."""
        for memory, on_write, on_lock in self._memories:
            memory.remove_write_observer(on_write)  # type: ignore[arg-type]
            memory.remove_lock_observer(on_lock)  # type: ignore[arg-type]
        self._memories.clear()

    # ------------------------------------------------------------------
    # CPU hooks
    # ------------------------------------------------------------------
    def on_exec(self, actor: str, addr: int, size: int) -> None:
        """Basic-block decode of ``[addr, addr+size)`` by ``actor``."""
        if self.race is not None:
            self.race.exec_access(actor, addr, size)

    # ------------------------------------------------------------------
    # Event-channel hooks
    # ------------------------------------------------------------------
    def on_event_send(self, port: int) -> None:
        if self.rings is not None:
            self.rings.on_event_send(port)
        if self.race is not None:
            self.race.release(self.current_actor, ("evt", port))

    def on_event_drop(self, port: int) -> None:
        if self.rings is not None:
            self.rings.on_event_drop(port)

    def on_event_deliver(self, port: int) -> None:
        if self.rings is not None:
            self.rings.on_event_deliver(port)
        if self.race is not None:
            self.race.acquire(self.current_actor, ("evt", port))

    # ------------------------------------------------------------------
    # Ring hooks (split drivers)
    # ------------------------------------------------------------------
    #: Shadow descriptor pages live in their own region of the simulated
    #: address space, one page per ring — two rings can legitimately
    #: grant the same guest-physical frame (each guest's 0xF000), so the
    #: race detector must not alias their slots.
    _SHADOW_RING_BASE = 0xF000_0000

    def ring_register(
        self, name: str, size: int, slot_bytes: int, ring: object = None,
        producer: str = "", consumer: str = "",
    ) -> str:
        """Register a ring; returns the (uniquified) ring name.  Later
        events name it by ``ring`` (default: that name)."""
        if self.rings is not None:
            base, n = name, 2
            while self.rings.ring(name) is not None:
                name = f"{base}#{n}"
                n += 1
            page = self._SHADOW_RING_BASE + 0x1000 * len(self.rings.rings())
            self.rings.ring_register(name, size, page, slot_bytes)
            if self.race is not None:
                self.race.track_page(page)
        self._rings[name if ring is None else ring] = (name, producer, consumer)
        return name

    def ring_batch_start(self, ring: object) -> None:
        name, producer, _ = self._rings[ring]
        if self.race is not None:
            self.race.acquire(producer, ("ringc", name))

    def ring_publish(self, ring: object) -> None:
        name, producer, _ = self._rings[ring]
        rings = self.rings
        if rings is not None:
            index = rings.ring_publish(name)
            state = rings.ring(name)
            if self.race is not None and state is not None:
                self.race.write(
                    producer, state.slot_addr(index), state.slot_bytes,
                    track=True,
                )

    def ring_kick(self, ring: object) -> None:
        name, producer, _ = self._rings[ring]
        if self.rings is not None:
            self.rings.ring_kick(name)
        if self.race is not None:
            self.race.release(producer, ("ring", name))

    def ring_kick_lost(self, ring: object) -> None:
        if self.rings is not None:
            self.rings.ring_kick_lost(self._rings[ring][0])

    def ring_abort(self, ring: object, pushed: int) -> None:
        if self.rings is not None:
            self.rings.ring_abort(self._rings[ring][0], pushed)

    def ring_reap(self, ring: object, count: int) -> None:
        name, _, consumer = self._rings[ring]
        rings = self.rings
        race = self.race
        if race is not None:
            race.acquire(consumer, ("ring", name))
        if rings is not None:
            state = rings.ring(name)
            if state is not None and race is not None:
                for i in range(count):
                    race.read(
                        consumer,
                        state.slot_addr(state.cons + i),
                        state.slot_bytes,
                    )
            rings.ring_consume(name, count)
        if race is not None:
            race.release(consumer, ("ringc", name))

    def ring_stall_drain(self, ring: object) -> None:
        """Producer hit a full ring; backend drains it synchronously."""
        name, producer, consumer = self._rings[ring]
        race = self.race
        if race is not None:
            race.release(producer, ("ring", name))
            race.acquire(consumer, ("ring", name))
        if self.rings is not None:
            self.rings.ring_drain(name)
        if race is not None:
            race.release(consumer, ("ringc", name))
            race.acquire(producer, ("ringc", name))

    def ring_quiesce(self, ring: object) -> None:
        if self.rings is not None:
            self.rings.ring_quiesce(self._rings[ring][0])

    # ------------------------------------------------------------------
    # Grant hooks
    # ------------------------------------------------------------------
    def on_grant(self, ref: int, owner: int, page: int) -> None:
        if self.grants is not None:
            self.grants.on_grant(ref, owner, page)
        if self.race is not None:
            self.race.release(f"dom{owner}", ("gnt", ref))

    def on_map_attempt(self, ref: int) -> None:
        if self.grants is not None:
            self.grants.on_map_attempt(ref)

    def on_map(self, ref: int, mapper: int) -> None:
        if self.grants is not None:
            self.grants.on_map(ref, mapper)
        if self.race is not None:
            self.race.acquire(f"dom{mapper}", ("gnt", ref))

    def on_unmap_attempt(self, ref: int, mapper: int) -> None:
        if self.grants is not None:
            self.grants.on_unmap_attempt(ref, mapper)

    def on_unmap(self, ref: int, mapper: int) -> None:
        if self.grants is not None:
            self.grants.on_unmap(ref)
        if self.race is not None:
            self.race.release(f"dom{mapper}", ("gnt", ref))

    def on_copy(self, ref: int) -> None:
        if self.grants is not None:
            self.grants.on_copy(ref)

    def on_end(self, ref: int, owner: int) -> None:
        """``owner < 0`` means the real table no longer knows the ref
        (the double-end case) — no synchronization edge to draw."""
        if self.race is not None and owner >= 0:
            self.race.acquire(f"dom{owner}", ("gnt", ref))
        if self.grants is not None:
            self.grants.on_end(ref)

    def on_domain_destroy(self, domid: int) -> None:
        if self.grants is not None:
            self.grants.on_domain_destroy(domid)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-run checks: lost wakeups at final quiescence."""
        if self.rings is not None:
            self.rings.quiesce_all()

    @property
    def findings(self) -> list[Finding]:
        """All findings, deterministically ordered."""
        out: list[Finding] = []
        if self.race is not None:
            out.extend(self.race.findings)
        if self.grants is not None:
            out.extend(self.grants.findings)
        if self.rings is not None:
            out.extend(self.rings.findings)
        return sorted(out, key=lambda f: (f.kind, f.site, f.message))

    def stats(self) -> tuple[tuple[str, int], ...]:
        """Deterministic (name, value) counter pairs for reports."""
        pairs: list[tuple[str, int]] = []
        race = self.race
        if race is not None:
            pairs += [
                ("race_accesses_checked", race.accesses_checked),
                ("race_sync_edges", race.sync_edges),
                ("race_findings", len(race.findings)),
            ]
        grants = self.grants
        if grants is not None:
            pairs += [
                ("grant_grants", grants.grants_issued),
                ("grant_maps", grants.maps),
                ("grant_unmaps", grants.unmaps),
                ("grant_copies", grants.copies),
                ("grant_ends", grants.ends),
                ("grant_findings", len(grants.findings)),
            ]
        rings = self.rings
        if rings is not None:
            pairs += [
                ("ring_publishes", rings.publishes),
                ("ring_consumes", rings.consumes),
                ("event_sends", rings.event_sends),
                ("event_drops", rings.event_drops),
                ("event_deliveries", rings.event_deliveries),
                ("ring_findings", len(rings.findings)),
            ]
        return tuple(pairs)

    def bind_telemetry(self, registry: Registry) -> None:
        from repro.obs.wire import wire_sanitizers

        wire_sanitizers(registry, self)
