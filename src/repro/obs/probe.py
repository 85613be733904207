"""The probe: the one hook a substrate carries (``probe=None``: a site
costs one attribute test).

``probe.fire(SITE, **detail)`` routes a :mod:`repro.faults.sites` site,
through a table built once, to the attached ``FaultEngine`` (which may
return the fault to apply), ``SanitizerSuite`` method and ``Tracer``
(trace events, plus ``fault`` events while an engine is attached).
Which sites each kind of subscriber hears is worked out once, at
import; a probe only binds its own subscribers to those sites.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.faults import sites

if TYPE_CHECKING:
    from repro.faults.plan import Fault, FaultEngine
    from repro.obs.tracing import Tracer
    from repro.sanitize.suite import SanitizerSuite

#: ``handler(site, detail)``; only fault handlers return non-``None``.
Handler = Callable[[str, dict[str, object]], "Fault | None"]

#: The sites each kind of subscriber hears, in catalog order.
_FAULT_SITES: tuple[str, ...] = tuple(
    name for name, info in sites.SITES.items() if info.kinds
)
#: ``(site, FaultEngine method, trace event name)`` lifecycle sites.
_RECORD_SITES: tuple[tuple[str, str, str], ...] = tuple(
    (name, info.record, info.trace[1])
    for name, info in sites.SITES.items()
    if info.record and info.trace
)
_SANITIZER_SITES: tuple[tuple[str, str], ...] = tuple(
    (name, info.sanitizer)
    for name, info in sites.SITES.items()
    if info.sanitizer is not None
)
_TRACE_SITES: tuple[tuple[str, tuple[str, str]], ...] = tuple(
    (name, info.trace)
    for name, info in sites.SITES.items()
    if info.trace and not info.record
)


class Probe:
    """Routes substrate probe sites to the attached subscribers."""

    __slots__ = ("faults", "sanitizers", "tracer", "_routes")

    def __init__(
        self,
        faults: FaultEngine | None = None,
        sanitizers: SanitizerSuite | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.faults = faults
        self.sanitizers = sanitizers
        self.tracer = tracer
        # Subscribers in firing order: fault injection, fault lifecycle,
        # sanitizer, tracer.
        routes: dict[str, list[Handler]] = {}
        if faults is not None:
            inject = partial(_inject, faults, tracer)
            for name in _FAULT_SITES:
                routes.setdefault(name, []).append(inject)
            for name, record, event in _RECORD_SITES:
                routes.setdefault(name, []).append(
                    partial(_record, getattr(faults, record), tracer, event)
                )
        if sanitizers is not None:
            for name, method in _SANITIZER_SITES:
                routes.setdefault(name, []).append(
                    partial(_call, getattr(sanitizers, method))
                )
        if tracer is not None:
            for name, trace in _TRACE_SITES:
                routes.setdefault(name, []).append(
                    partial(_call, partial(tracer.emit, *trace))
                )
        self._routes: dict[str, tuple[Handler, ...]] = {
            name: tuple(handlers) for name, handlers in routes.items()
        }

    def fire(self, site: str, /, **detail: object) -> Fault | None:
        """One occurrence of ``site``; returns the fault to apply, if any."""
        fault: Fault | None = None
        for handler in self._routes.get(site, ()):
            result = handler(site, detail)
            if result is not None:
                fault = result
        return fault


def _inject(
    faults: FaultEngine, tracer: Tracer | None, site: str,
    detail: dict[str, object],
) -> Fault | None:
    fault = faults.fire(site)
    if fault is not None and tracer is not None:
        _fault_event(tracer, "injected", site, {"kind": fault.kind, **detail})
    return fault


def _record(
    record: Callable[[str], None], tracer: Tracer | None, name: str,
    site: str, detail: dict[str, object],
) -> None:
    fault_site = str(detail["site"])
    record(fault_site)
    if tracer is not None:
        _fault_event(tracer, name, fault_site, detail)


def _fault_event(
    tracer: Tracer, name: str, site: str, detail: dict[str, object]
) -> None:
    # Detail keys must not shadow the event's (or Tracer.emit's) fields.
    own = ("site", "name", "category")
    kept = {key: value for key, value in detail.items() if key not in own}
    tracer.emit("fault", name, site=site, **kept)


def _call(
    method: Callable[..., object], site: str, detail: dict[str, object]
) -> None:
    method(**detail)
