"""``repro.obs`` — unified telemetry: metrics registry, spans, exporters.

One API behind every counter in the reproduction (§3.1's "profiling and
debugging tools keep working", applied to ourselves):

* :class:`Registry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — label-aware instruments with per-domain scoping
  via child registries;
* :class:`Telemetry` — the facade ``XContainer.telemetry()`` returns;
* :class:`SpanRecorder` / ``registry.span(...)`` — span tracing over the
  simulated clock;
* :class:`Tracer` / :class:`TraceEvent` — the flat ring of instant
  events (syscall, ABOM, trace-compile and fault lifecycle);
* :class:`Probe` — the one hook a substrate carries, routing its sites
  to a fault engine, sanitizer suite and tracer;
* :func:`prometheus_text`, :func:`chrome_trace_json`,
  :func:`render_table` — deterministic exporters (``repro metrics``,
  ``repro trace``).

See ``docs/telemetry.md`` for the naming convention.
"""

from repro.obs.exporters import (
    chrome_trace_json,
    prometheus_text,
    render_table,
)
from repro.obs.facade import Telemetry
from repro.obs.probe import Probe
from repro.obs.registry import (
    DEFAULT_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
)
from repro.obs.tracing import Span, SpanRecorder, TraceEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "Probe",
    "Registry",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "chrome_trace_json",
    "prometheus_text",
    "render_table",
]
