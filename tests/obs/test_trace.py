"""Unit tests of the tracing spans: balance, nesting, fragments, export."""

import pytest

from repro.obs import FakeClock, Span, TraceError, Tracer
from repro.obs.trace import _json_safe


@pytest.fixture()
def tracer() -> Tracer:
    return Tracer(clock=FakeClock(start=100.0, step=1.0))


class TestSpan:
    def test_duration_and_open_span(self):
        span = Span(name="x", start=2.0, end=5.0)
        assert span.duration == 3.0
        assert Span(name="open", start=2.0).duration == 0.0

    def test_self_time_excludes_children(self):
        child = Span(name="c", start=1.0, end=3.0)
        parent = Span(name="p", start=0.0, end=4.0, children=[child])
        assert parent.self_time == 2.0

    def test_self_time_floored_at_zero(self):
        child = Span(name="c", start=0.0, end=9.0)
        parent = Span(name="p", start=0.0, end=4.0, children=[child])
        assert parent.self_time == 0.0

    def test_roundtrip_through_dicts(self):
        child = Span(name="c", start=1.0, end=2.0, attributes={"k": 1})
        parent = Span(name="p", start=0.0, end=3.0, children=[child])
        clone = Span.from_dict(parent.to_dict())
        assert clone == parent
        assert clone.children[0].attributes == {"k": 1}


class TestTracer:
    def test_nested_spans_record_clock_readings(self, tracer):
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        assert tracer.open_depth == 0
        (outer,) = tracer.roots
        assert outer.name == "outer" and outer.attributes == {"kind": "test"}
        (inner,) = outer.children
        # FakeClock ticks once per reading: 100, 101, 102, 103.
        assert (outer.start, outer.end) == (100.0, 103.0)
        assert (inner.start, inner.end) == (101.0, 102.0)
        assert outer.start <= inner.start and inner.end <= outer.end

    def test_out_of_order_finish_raises(self, tracer):
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(TraceError, match="out of order"):
            tracer.finish(outer)

    def test_finish_with_nothing_open_raises(self, tracer):
        span = tracer.start("only")
        tracer.finish(span)
        with pytest.raises(TraceError):
            tracer.finish(span)

    def test_exception_still_closes_the_span(self, tracer):
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.open_depth == 0
        assert tracer.roots[0].end is not None

    def test_event_is_instant_and_not_pushed(self, tracer):
        with tracer.span("outer"):
            marker = tracer.event("pruning.freeze", fixed_pairs=3)
            assert tracer.open_depth == 1  # events never open
        assert marker.duration == 0.0
        assert tracer.roots[0].children == [marker]

    def test_all_spans_walks_depth_first(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [span.name for span in tracer.all_spans()] == ["a", "b", "c"]


class TestFragments:
    def test_export_fragments_round_trip(self, tracer):
        with tracer.span("match"):
            with tracer.span("graph.build", activities=3):
                pass
        (fragment,) = tracer.export_fragments()
        assert Span.from_dict(fragment) == tracer.roots[0]


class TestChromeExport:
    def test_complete_events_relative_microseconds(self, tracer):
        with tracer.span("outer", pairs=4):
            with tracer.span("inner"):
                pass
        trace = tracer.to_chrome_trace(pid=9)
        assert trace["displayTimeUnit"] == "ms"
        outer, inner = trace["traceEvents"]
        assert outer["ph"] == "X" and outer["pid"] == 9 and outer["tid"] == 0
        assert outer["ts"] == 0.0  # relative to the earliest span
        assert outer["dur"] == pytest.approx(3e6)
        assert inner["ts"] == pytest.approx(1e6)
        assert outer["args"] == {"pairs": 4}

    def test_empty_tracer_exports_empty_trace(self):
        assert Tracer().to_chrome_trace()["traceEvents"] == []


class TestJsonSafe:
    def test_passthrough_and_coercions(self):
        import numpy as np

        assert _json_safe({"a": (1, 2.5, "x", None)}) == {"a": [1, 2.5, "x"] + [None]}
        assert _json_safe(np.int64(3)) == 3
        assert _json_safe(np.float32(0.5)) == 0.5
        assert _json_safe(frozenset({"z"})) == ["z"]
        assert isinstance(_json_safe(object()), str)
