"""The probe-site catalog: every hook point a substrate fires.

Each site has a stable dotted name (``"<package>.<module>.<operation>"``)
and one :class:`SiteInfo` naming the subscribers that hear it: fault
sites (``kinds``) consult the :class:`~repro.faults.plan.FaultEngine`,
lifecycle sites (``record``) count a fault's retry, recovery or fatal
end, sanitizer events call a :class:`~repro.sanitize.suite.SanitizerSuite`
method, and trace events (``trace``) record on the ``Tracer``.  A
substrate fires them through its one ``probe`` attribute
(:class:`repro.obs.probe.Probe`); unset, each site is a single attribute
test — zero simulated cost and no measurable wall cost
(``benchmarks/test_{faults,sanitize}_overhead.py``).

The catalog is the contract between :mod:`repro.faults.plan` (which
validates fault specs against it), the substrates (which fire the
sites), the probe (which routes them), and :mod:`repro.faults.report`
(which groups counters by substrate).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SiteInfo:
    """One probe site: where it lives and which subscribers hear it."""

    name: str
    substrate: str
    #: Fault kinds a plan may inject here (empty: not a fault site).
    kinds: tuple[str, ...]
    description: str
    #: :class:`~repro.sanitize.suite.SanitizerSuite` method it calls.
    sanitizer: str | None = None
    #: ``(category, name)`` it records on the ``Tracer``.
    trace: tuple[str, str] | None = None
    #: :class:`~repro.faults.plan.FaultEngine` lifecycle method it calls.
    record: str | None = None


#: Every probe site by name, in definition order.
SITES: dict[str, SiteInfo] = {}


def _site(
    name: str,
    description: str = "",
    kinds: tuple[str, ...] = (),
    sanitizer: str | None = None,
    trace: tuple[str, str] | None = None,
    record: str | None = None,
) -> str:
    """Catalog one site (its substrate is the name's module prefix)."""
    substrate = name.rsplit(".", 1)[0]
    SITES[name] = SiteInfo(
        name, substrate, kinds, description, sanitizer, trace, record
    )
    return name


# ---------------------------------------------------------------------------
# Fault sites (docs/fault_injection.md details each kind)
# ---------------------------------------------------------------------------

EVENT_NOTIFY = _site("xen.events.notify", "drop loses the notify (caller "
                     "re-kicks); delay charges param ns", ("drop", "delay"))
GRANT_MAP = _site("xen.grant_table.map", "fail raises a transient "
                  "GrantMapError", ("fail",))
GRANT_COPY = _site("xen.grant_table.copy", "fail raises a transient "
                   "GrantCopyError", ("fail",))
NET_RING = _site("xen.drivers.ring", "stall charges param x the "
                 "ring-service latency", ("stall",))
NET_BACKEND = _site("xen.drivers.backend", "kill makes netfront reconnect "
                    "(re-grant, re-map, re-bind)", ("kill",))
BLK_BACKEND = _site("xen.blkdev.backend", "kill fails the request before "
                    "any sector is touched; stall charges ring latency",
                    ("kill", "stall"))
TOOLSTACK_SPAWN = _site("xen.toolstack.spawn", "timeout tears the domain "
                        "down and raises SpawnTimeout", ("timeout",))
NET_PACKET = _site("guest.netstack.packet", "drop forces a retransmit; "
                   "duplicate/reorder add processing cost",
                   ("drop", "duplicate", "reorder"))
VCPU = _site("xen.scheduler.vcpu", "stall parks a vCPU for an interval; "
             "storm multiplies switch overhead by param", ("stall", "storm"))
ABOM_CMPXCHG = _site("core.abom.cmpxchg", "contend loses the patch CAS to "
                     "a phantom racing vCPU", ("contend",))
REMUS_ACK = _site("xen.remus.ack", "fail loses the ack; the epoch's output "
                  "stays buffered", ("fail",))
MIGRATION_ROUND = _site("xen.migration.round", "dirty re-dirties param "
                        "pages; abort aborts cleanly", ("dirty", "abort"))
SCHED_WAKE = _site("core.engine.wake", "drop loses the wake kick until the "
                   "watchdog re-kick; delay defers it", ("drop", "delay"))

# ---------------------------------------------------------------------------
# Fault lifecycle, sanitizer and trace events
# ---------------------------------------------------------------------------

#: A fault's retry / recovery / fatal end (``detail["site"]`` names it).
RETRIED = _site("faults.retry.retried", record="record_retry",
                trace=("fault", "retried"))
RECOVERED = _site("faults.retry.recovered", record="record_recovered",
                  trace=("fault", "recovered"))
FATAL = _site("faults.retry.fatal", record="record_fatal",
              trace=("fault", "fatal"))

CPU_EXEC = _site("arch.cpu.exec", sanitizer="on_exec")
EVENT_SEND = _site("xen.events.send", sanitizer="on_event_send")
EVENT_DROP = _site("xen.events.drop", sanitizer="on_event_drop")
EVENT_DELIVER = _site("xen.events.deliver", sanitizer="on_event_deliver")
GRANT_ISSUE = _site("xen.grant_table.grant", sanitizer="on_grant")
GRANT_MAP_ATTEMPT = _site("xen.grant_table.map_attempt",
                          sanitizer="on_map_attempt")
GRANT_MAPPED = _site("xen.grant_table.mapped", sanitizer="on_map")
GRANT_COPY_ATTEMPT = _site("xen.grant_table.copy_attempt",
                           sanitizer="on_copy")
GRANT_UNMAP_ATTEMPT = _site("xen.grant_table.unmap_attempt",
                            sanitizer="on_unmap_attempt")
GRANT_UNMAPPED = _site("xen.grant_table.unmapped", sanitizer="on_unmap")
GRANT_END = _site("xen.grant_table.end", sanitizer="on_end")
DOMAIN_DESTROY = _site("xen.hypervisor.destroy",
                       sanitizer="on_domain_destroy")

#: Shared-ring protocol events.  Every ring producer (netfront, blkfront,
#: the engine's wake rings) fires them with ``ring=<its own object>``;
#: they are filed under the split drivers, the protocol's home.
RING_REGISTER = _site("xen.drivers.ring_register", sanitizer="ring_register")
RING_BATCH = _site("xen.drivers.ring_batch", sanitizer="ring_batch_start")
RING_PUBLISH = _site("xen.drivers.ring_publish", sanitizer="ring_publish")
RING_STALL = _site("xen.drivers.ring_stall", sanitizer="ring_stall_drain")
RING_KICK = _site("xen.drivers.ring_kick", sanitizer="ring_kick")
RING_KICK_LOST = _site("xen.drivers.ring_kick_lost",
                       sanitizer="ring_kick_lost")
RING_ABORT = _site("xen.drivers.ring_abort", sanitizer="ring_abort")
RING_REAP = _site("xen.drivers.ring_reap", sanitizer="ring_reap")
RING_QUIESCE = _site("xen.drivers.ring_quiesce", sanitizer="ring_quiesce")

SYSCALL_FORWARDED = _site("core.xkernel.forward",
                          trace=("syscall", "forwarded"))
SYSCALL_LIGHTWEIGHT = _site("core.xlibos.lightweight",
                            trace=("syscall", "lightweight"))
ABOM_PATCH = _site("core.abom.patch", trace=("abom", "patch"))
ABOM_UNRECOGNIZED = _site("core.abom.unrecognized",
                          trace=("abom", "unrecognized"))
TRACE_COMPILE = _site("arch.tracecache.compile",
                      trace=("trace_compile", "compile"))

#: The substrates the acceptance criteria require chaos coverage for.
CORE_SUBSTRATES = (
    "xen.events",
    "xen.grant_table",
    "xen.drivers",
    "guest.netstack",
    "xen.scheduler",
    "core.abom",
    "core.engine",
)


def substrate_of(site: str) -> str:
    """Substrate a site name belongs to (``"xen.events.notify"`` →
    ``"xen.events"``)."""
    return site.rsplit(".", 1)[0]


def validate(site: str, kind: str) -> None:
    """Reject unknown fault sites and kinds a site does not support."""
    info = SITES.get(site)
    if info is None or not info.kinds:
        known = ", ".join(sorted(n for n, i in SITES.items() if i.kinds))
        raise ValueError(f"unknown fault site {site!r} (known: {known})")
    if kind not in info.kinds:
        raise ValueError(
            f"site {site!r} does not support kind {kind!r} "
            f"(supported: {', '.join(info.kinds)})"
        )


# ---------------------------------------------------------------------------
# Drift check: every catalog entry must match a live probe site
# ---------------------------------------------------------------------------

def _constant_names() -> dict[str, str]:
    """Site name → the UPPER_CASE constant it is exported as."""
    return {
        value: name
        for name, value in globals().items()
        if name.isupper() and isinstance(value, str) and value in SITES
    }


def verify_hooks() -> list[str]:
    """Cross-check the catalog against the substrates' source.

    A :class:`SiteInfo` whose substrate module no longer references its
    constant (or no longer calls ``.fire(`` at all) is a *dead* catalog
    entry: plans naming it would validate but inject nothing, and its
    subscribers would never hear it.  Returns the list of drift
    descriptions (empty = catalog is live); import of this module fails
    loudly on drift so the rot can't land silently.
    """
    from pathlib import Path

    src_root = Path(__file__).resolve().parents[1]
    constants = _constant_names()
    problems: list[str] = []
    for name in sorted(SITES):
        info = SITES[name]
        module_path = src_root / (info.substrate.replace(".", "/") + ".py")
        if not module_path.is_file():
            problems.append(
                f"{name}: substrate module {module_path.name} is missing"
            )
            continue
        source = module_path.read_text(encoding="utf-8")
        constant = constants.get(name)
        if constant is None:
            problems.append(f"{name}: no exported site constant")
            continue
        if f"sites.{constant}" not in source:
            problems.append(
                f"{name}: {info.substrate} never references sites.{constant}"
            )
        elif ".fire(" not in source and ".run(" not in source:
            problems.append(
                f"{name}: {info.substrate} references the constant but "
                "never fires or retries through it"
            )
    return problems


_drift = verify_hooks()
if _drift:
    raise RuntimeError(
        "probe-site catalog drifted from the substrates:\n  "
        + "\n  ".join(_drift)
    )
del _drift
