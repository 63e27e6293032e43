"""The column layout of :class:`Trace`: construction, views and transforms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.events import Event, Trace, collapse_run


def replace_run_by_events(trace: Trace, run: tuple[str, ...], replacement: str) -> list[Event]:
    """The run-collapsing rule over materialised events, left to right."""
    events = list(trace.events)
    result: list[Event] = []
    i = 0
    while i < len(events):
        window = tuple(event.activity for event in events[i : i + len(run)])
        if window == run:
            anchor = events[i]
            result.append(Event(replacement, anchor.timestamp, anchor.attributes))
            i += len(run)
        else:
            result.append(events[i])
            i += 1
    return result


class TestColumns:
    def test_events_split_into_columns(self):
        trace = Trace([Event("a", 1.0, {"r": "x"}), "b"], case_id="k")
        assert trace.activities == ("a", "b")
        assert trace.timestamps == (1.0, None)
        assert trace.attributes == ({"r": "x"}, {})
        assert trace.case_id == "k"

    def test_no_attributes_stored_as_none(self):
        assert Trace([Event("a", 1.0), "b"]).attributes is None

    def test_from_columns_equals_events_route(self):
        events = [Event("a", 2.0, {"r": "x"}), Event("b", 1.0)]
        built = Trace.from_columns(("a", "b"), (2.0, 1.0), ({"r": "x"}, {}), case_id="k")
        assert built.events == Trace(events).events
        assert built.case_id == "k"

    def test_from_columns_defaults(self):
        trace = Trace.from_columns(["a", "b"])
        assert trace.timestamps == (None, None)
        assert trace.attributes is None
        assert trace.events == (Event("a"), Event("b"))

    def test_from_columns_checks_activities(self):
        with pytest.raises(ValueError):
            Trace.from_columns(("a", ""))
        with pytest.raises(TypeError):
            Trace.from_columns(("a", 3))  # type: ignore[arg-type]

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            Trace.from_columns(("a", "b"), (1.0,))

    def test_negative_index_and_slice(self):
        trace = Trace([Event("a", 1.0), Event("b", 2.0), Event("c", 3.0)])
        assert trace[-1] == Event("c", 3.0)
        assert trace[1:] == (Event("b", 2.0), Event("c", 3.0))
        with pytest.raises(IndexError):
            trace[3]

    def test_take_keeps_payload_in_order(self):
        trace = Trace([Event("a", 1.0, {"r": "x"}), Event("b", 2.0)], case_id="k")
        taken = trace.take([1, 0, 0])
        assert taken.events == (
            Event("b", 2.0), Event("a", 1.0, {"r": "x"}), Event("a", 1.0, {"r": "x"}),
        )
        assert taken.case_id == "k"

    def test_slices_keep_payload(self):
        trace = Trace([Event("a", 1.0, {"r": "x"}), Event("b", 2.0), Event("c", 3.0)])
        assert trace.drop_prefix(1).events == trace.events[1:]
        assert trace.drop_suffix(2).events == trace.events[:1]

    def test_relabel_keeps_payload_and_checks_labels(self):
        trace = Trace([Event("a", 1.0, {"r": "x"})], case_id="k")
        assert trace.relabel({"a": "z"}).events == (Event("z", 1.0, {"r": "x"}),)
        with pytest.raises(ValueError):
            trace.relabel({"a": ""})


labels = st.sampled_from("abc")


@given(
    activities=st.lists(labels, min_size=1, max_size=12),
    run=st.lists(labels, min_size=1, max_size=3).map(tuple),
    with_attributes=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_replace_run_equals_event_rule(activities, run, with_attributes):
    events = [
        Event(activity, float(index), {"i": str(index)} if with_attributes else {})
        for index, activity in enumerate(activities)
    ]
    trace = Trace(events, case_id="k")
    merged = trace.replace_run(run, "R")
    assert list(merged.events) == replace_run_by_events(trace, run, "R")
    assert merged.activities == collapse_run(trace.activities, run, "R")
    assert merged.case_id == "k"
