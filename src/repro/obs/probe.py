"""The probe: the one hook a substrate carries (``probe=None``: a site
costs one attribute test).

``probe.fire(SITE, **detail)`` routes a :mod:`repro.faults.sites` site,
through a table built once, to the attached ``FaultEngine`` (which may
return the fault to apply), ``SanitizerSuite`` method and ``Tracer``
(trace events, plus ``fault`` events while an engine is attached).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator

from repro.faults import sites

if TYPE_CHECKING:
    from repro.faults.plan import Fault, FaultEngine
    from repro.obs.tracing import Tracer
    from repro.sanitize.suite import SanitizerSuite

#: ``handler(site, detail)``; only fault handlers return non-``None``.
Handler = Callable[[str, dict[str, object]], "Fault | None"]


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
        self._routes: dict[str, tuple[Handler, ...]] = {}
        for name, info in sites.SITES.items():
            handlers = tuple(self._handlers(info))
            if handlers:
                self._routes[name] = handlers

    def fire(self, site: str, /, **detail: object) -> Fault | None:
        """One occurrence of ``site``; returns the fault to apply, if any."""
        fault: Fault | None = None
        for handler in self._routes.get(site, ()):
            result = handler(site, detail)
            if result is not None:
                fault = result
        return fault

    def _handlers(self, info: sites.SiteInfo) -> Iterator[Handler]:
        faults, tracer = self.faults, self.tracer
        if faults is not None and info.kinds:
            yield partial(_inject, faults, tracer)
        if faults is not None and info.record and info.trace:
            record = getattr(faults, info.record)
            yield partial(_record, record, tracer, info.trace[1])
        if self.sanitizers is not None and info.sanitizer is not None:
            yield partial(_call, getattr(self.sanitizers, info.sanitizer))
        if tracer is not None and info.trace and not info.record:
            yield partial(_call, partial(tracer.emit, *info.trace))


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
