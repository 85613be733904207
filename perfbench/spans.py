"""In-memory span tracer that wraps layer entry points from the outside.

The program under test carries no tracing of its own here: the benchmark
replaces a layer's public callables (class methods, or a module global
the caller looks up at call time) with wrappers that record one span per
call, and puts the originals back when the traced round ends.

A span is ``[name, parent, op, host_t0_ns, host_t1_ns, sim_t0_ns,
sim_t1_ns]``; ``parent`` is the index of the enclosing span (or -1) and
``op`` the id of the unit of work it belongs to — one syscall, one
serve interval or one fleet domain.  Self time is a span's duration minus
its direct children's, in both the host clock and the simulated clock.

Methods the program binds at attach time (``XLibOS.lightweight_entry``
is captured by the vsyscall stubs when a container boots) must be wrapped
before the container is built, which is why the tracer is installed
before a traced round's setup.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: ``op`` modes of a wrapped callable.
INHERIT = None
NEW_OP = "new"


@dataclass
class SpanStats:
    calls: int = 0
    self_host_ns: int = 0
    self_sim_ns: float = 0.0


@dataclass
class Tracer:
    """Records spans for every call through the wrapped entry points."""

    #: The shared :class:`repro.perf.clock.SimClock` sampled at span
    #: boundaries; ``None`` records simulated deltas of zero.
    clock: object = None
    spans: list = field(default_factory=list)
    #: First argument (``self``) of calls through wraps made with
    #: ``capture=True``, by span name, in first-seen order.
    captured: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _op: int = 0
    _next_op: int = 1
    _op_depth: int = 0
    _op_keys: dict = field(default_factory=dict)
    _saved: list = field(default_factory=list)

    def wrap(self, owner, attr: str, name: str, op=INHERIT, capture=False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``op`` is :data:`INHERIT` (the span joins the current op),
        :data:`NEW_OP` (the outermost such span starts a new op) or a
        function of the call's arguments returning a key: calls with the
        same key share one op, and a keyed span opened inside another op
        joins that op for good.
        """
        original = owner.__dict__[attr]
        spans = self.spans
        stack = self._stack
        perf_ns = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if capture:
                seen = tracer.captured.setdefault(name, {})
                seen.setdefault(id(args[0]), args[0])
            op_started = op is not INHERIT and tracer._op_depth == 0
            if op_started:
                tracer._op = tracer._open_op(op, args)
            elif op is not INHERIT and op is not NEW_OP:
                tracer._op_keys.setdefault(op(args), tracer._op)
            if op is not INHERIT:
                tracer._op_depth += 1
            clock = tracer.clock
            sim0 = clock.now_ns if clock is not None else 0.0
            span = [name, stack[-1] if stack else -1, tracer._op, perf_ns(), 0, sim0, sim0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[4] = perf_ns()
                if clock is not None:
                    span[6] = clock.now_ns
                stack.pop()
                if op is not INHERIT:
                    tracer._op_depth -= 1

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def _open_op(self, op, args) -> int:
        if op is NEW_OP:
            key = None
        else:
            key = op(args)
            if key in self._op_keys:
                return self._op_keys[key]
        op_id = self._next_op
        self._next_op += 1
        if key is not None:
            self._op_keys[key] = op_id
        return op_id

    def end_round(self) -> None:
        """Forget per-round state: op keys are object ids, which a later
        round may reuse for different objects."""
        self.clock = None
        self.captured.clear()
        self._op_keys.clear()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, wraps):
        """Wrap every ``(owner, attr, name[, op[, capture]])`` for a block."""
        try:
            for spec in wraps:
                self.wrap(*spec)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_name(self, first: int = 0) -> dict[str, SpanStats]:
        """Per-name calls, total and self time of ``spans[first:]``."""
        spans = self.spans
        child_host: dict[int, int] = {}
        child_sim: dict[int, float] = {}
        for index in range(first, len(spans)):
            _, parent, _, t0, t1, s0, s1 = spans[index]
            if parent >= first:
                child_host[parent] = child_host.get(parent, 0) + (t1 - t0)
                child_sim[parent] = child_sim.get(parent, 0.0) + (s1 - s0)
        out: dict[str, SpanStats] = {}
        for index in range(first, len(spans)):
            name, _, _, t0, t1, s0, s1 = spans[index]
            stats = out.get(name)
            if stats is None:
                stats = out[name] = SpanStats()
            stats.calls += 1
            stats.self_host_ns += t1 - t0 - child_host.get(index, 0)
            stats.self_sim_ns += s1 - s0 - child_sim.get(index, 0.0)
        return out

    def root_ns(self, first: int = 0) -> int:
        """Host ns covered by top-level spans of ``spans[first:]``."""
        return sum(
            span[4] - span[3]
            for span in self.spans[first:]
            if span[1] < first
        )

    def write(self, path) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(
                json.dumps(
                    ["name", "parent", "op", "host_t0_ns", "host_t1_ns",
                     "sim_t0_ns", "sim_t1_ns"]
                )
                + "\n"
            )
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
