"""Tracing over the simulated clock: spans and flat instant events.

Two recorders share :class:`~repro.perf.clock.SimClock` timestamps:

* :class:`SpanRecorder` — named intervals with a deterministic id and an
  explicit parent (the innermost span open when it started).  Spans are
  cheap — two clock reads, one list append — and they never advance the
  clock, so tracing cannot perturb simulated results.  Past ``capacity``
  finished spans the oldest are dropped (counted in
  :attr:`SpanRecorder.dropped`).  :func:`repro.obs.exporters.
  chrome_trace_json` renders them in the Chrome ``about://tracing`` /
  Perfetto event format.
* :class:`Tracer` — a bounded ring of :class:`TraceEvent` instants, the
  simulator's ftrace.  A :class:`~repro.obs.probe.Probe` routes syscall
  forwards, lightweight dispatches, ABOM patches, trace compiles and
  fault-injection lifecycle events into it.

§3.1 argues that X-Containers keep "existing software development,
profiling, debugging, and deploying tools" usable; this module is the
repository's own instance of that idea.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TypeVar

from repro.perf.clock import SimClock

_T = TypeVar("_T")


def _tail(items: Sequence[_T], limit: int) -> Sequence[_T]:
    """The newest ``limit`` items (none for 0, where ``[-0:]`` is all)."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0: {limit}")
    return items[max(len(items) - limit, 0):]


@dataclass(frozen=True)
class TraceEvent:
    ts_ns: float
    category: str
    name: str
    detail: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        extras = " ".join(
            f"{key}={_fmt(value)}" for key, value in self.detail.items()
        )
        return f"[{self.ts_ns / 1e3:12.3f}us] {self.category:10s} " \
               f"{self.name:24s} {extras}".rstrip()


def _fmt(value: object) -> str:
    if isinstance(value, int) and value > 4096:
        return hex(value)
    return str(value)


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent`."""

    def __init__(self, clock: SimClock, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.clock = clock
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._overflow_warned = False

    def emit(self, category: str, name: str, **detail: object) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
            if not self._overflow_warned:
                # Warn once per overflow episode (chaos runs emit far more
                # than the default capacity) instead of silently dropping;
                # ``dropped`` keeps the exact count either way.
                self._overflow_warned = True
                warnings.warn(
                    f"Tracer ring overflowed its capacity of "
                    f"{self._events.maxlen}; oldest events are being "
                    f"dropped (raise Tracer(capacity=...) to keep them)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._events.append(
            TraceEvent(self.clock.now_ns, category, name, detail)
        )

    # -- queries -------------------------------------------------------
    def events(self, category: str | None = None,
               name: str | None = None) -> list[TraceEvent]:
        out: Iterable[TraceEvent] = self._events
        if category is not None:
            out = (e for e in out if e.category == category)
        if name is not None:
            out = (e for e in out if e.name == name)
        return list(out)

    def count(self, category: str | None = None) -> int:
        return len(self.events(category))

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self._overflow_warned = False

    def render(self, limit: int = 50) -> str:
        """The newest ``limit`` events, one line each."""
        return "\n".join(e.render() for e in _tail(list(self._events), limit))


@dataclass(frozen=True)
class Span:
    """One finished span (ids are per-recorder, deterministic)."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: float
    end_ns: float
    labels: tuple[tuple[str, str], ...] = ()

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class _ActiveSpan:
    span_id: int
    parent_id: int | None
    name: str
    start_ns: float
    labels: tuple[tuple[str, str], ...]


class SpanRecorder:
    """Collects spans against one clock; shared across a registry tree."""

    def __init__(self, clock: SimClock, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.clock = clock
        self.capacity = capacity
        self.finished: list[Span] = []
        self.dropped = 0
        self._stack: list[_ActiveSpan] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------
    def begin(self, name: str, **labels: object) -> _ActiveSpan:
        parent = self._stack[-1].span_id if self._stack else None
        span = _ActiveSpan(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start_ns=self.clock.now_ns,
            labels=tuple(
                (k, str(v)) for k, v in sorted(labels.items())
            ),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, active: _ActiveSpan) -> Span:
        if not self._stack or self._stack[-1] is not active:
            raise RuntimeError(
                f"span {active.name!r} ended out of order"
            )
        self._stack.pop()
        span = Span(
            span_id=active.span_id,
            parent_id=active.parent_id,
            name=active.name,
            start_ns=active.start_ns,
            end_ns=self.clock.now_ns,
            labels=active.labels,
        )
        if len(self.finished) >= self.capacity:
            self.dropped += 1
            del self.finished[0]
        self.finished.append(span)
        return span

    def span(self, name: str, **labels: object) -> "_SpanContext":
        """Context manager: ``with recorder.span("netfront.tx"): ...``."""
        return _SpanContext(self, name, labels)

    # -- queries -------------------------------------------------------
    def spans(self, name: str | None = None) -> list[Span]:
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.finished if s.parent_id == span.span_id]

    def total_ns(self, name: str) -> float:
        return sum(s.duration_ns for s in self.spans(name))

    def clear(self) -> None:
        self.finished.clear()
        self.dropped = 0

    def render(self, limit: int = 50) -> str:
        """Deterministic fixed-width table of the newest ``limit`` spans
        (``repro trace``); the header is always there."""
        lines = [
            f"{'id':>6} {'parent':>6} {'start us':>14} {'dur us':>12}  name",
        ]
        for span in _tail(self.finished, limit):
            parent = str(span.parent_id) if span.parent_id else "-"
            labels = " ".join(f"{k}={v}" for k, v in span.labels)
            name = f"{span.name} {labels}".rstrip()
            lines.append(
                f"{span.span_id:>6} {parent:>6} "
                f"{span.start_ns / 1e3:>14.3f} "
                f"{span.duration_ns / 1e3:>12.3f}  {name}"
            )
        return "\n".join(lines)


@dataclass
class _SpanContext:
    recorder: SpanRecorder
    name: str
    labels: dict
    finished: Span | None = field(default=None)
    _active: _ActiveSpan | None = field(default=None)

    def __enter__(self) -> "_SpanContext":
        self._active = self.recorder.begin(self.name, **self.labels)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finished = self.recorder.end(self._active)
