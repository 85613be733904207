"""Span recording: nesting, determinism, bounds, rendering."""

import pytest

from repro.obs.tracing import SpanRecorder
from repro.perf.clock import SimClock


class TestSpans:
    def test_span_measures_simulated_time(self):
        clock = SimClock()
        recorder = SpanRecorder(clock)
        with recorder.span("work") as ctx:
            clock.advance(250.0)
        assert ctx.finished.duration_ns == 250.0
        assert recorder.total_ns("work") == 250.0

    def test_nested_spans_get_parent_ids(self):
        clock = SimClock()
        recorder = SpanRecorder(clock)
        with recorder.span("outer"):
            clock.advance(10)
            with recorder.span("inner"):
                clock.advance(5)
        inner, outer = recorder.spans("inner")[0], recorder.spans("outer")[0]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert recorder.children_of(outer) == [inner]

    def test_ids_are_sequential_and_deterministic(self):
        clock = SimClock()
        recorder = SpanRecorder(clock)
        for _ in range(3):
            with recorder.span("s"):
                pass
        assert [s.span_id for s in recorder.finished] == [1, 2, 3]

    def test_out_of_order_end_raises(self):
        recorder = SpanRecorder(SimClock())
        a = recorder.begin("a")
        recorder.begin("b")
        with pytest.raises(RuntimeError):
            recorder.end(a)

    def test_labels_are_sorted_and_stringified(self):
        recorder = SpanRecorder(SimClock())
        with recorder.span("s", b=2, a=1) as ctx:
            pass
        assert ctx.finished.labels == (("a", "1"), ("b", "2"))

    def test_spans_never_advance_the_clock(self):
        clock = SimClock()
        recorder = SpanRecorder(clock)
        with recorder.span("s"):
            pass
        assert clock.now_ns == 0.0


class TestBounds:
    def test_capacity_drops_oldest(self):
        recorder = SpanRecorder(SimClock(), capacity=2)
        for name in ("a", "b", "c"):
            with recorder.span(name):
                pass
        assert [s.name for s in recorder.finished] == ["b", "c"]
        assert recorder.dropped == 1

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(SimClock(), capacity=0)

    def test_clear_resets(self):
        recorder = SpanRecorder(SimClock(), capacity=1)
        for name in ("a", "b"):
            with recorder.span(name):
                pass
        recorder.clear()
        assert recorder.finished == [] and recorder.dropped == 0


class TestRender:
    def test_render_is_fixed_width(self):
        clock = SimClock()
        recorder = SpanRecorder(clock)
        with recorder.span("s", k="v"):
            clock.advance(1500)
        out = recorder.render()
        assert "s k=v" in out
        assert "1.500" in out  # duration in microseconds

    def test_render_limit_keeps_header_and_newest_spans(self):
        recorder = SpanRecorder(SimClock())
        for name in ("a", "b", "c"):
            with recorder.span(name):
                pass
        rows = recorder.render(2).splitlines()
        assert rows[0].split()[0] == "id"
        assert [row.split()[-1] for row in rows[1:]] == ["b", "c"]
        assert recorder.render(0).splitlines() == rows[:1]
        with pytest.raises(ValueError):
            recorder.render(-1)
