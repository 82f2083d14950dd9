"""Tests for the span stream and its Fig 7 instant view."""

import pytest

from repro.observability import Span, SpanCategory, SpanStream
from repro.observability.spans import render_trace


class TestSpanStream:
    def test_begin_end_duration(self):
        s = SpanStream()
        span = s.begin("work", SpanCategory.COMPUTE, qid=1, node_id=0, time=1.0)
        s.end(span, 3.5, bytes=42)
        assert span.duration == 2.5
        assert span.attrs == {"bytes": 42}
        assert not span.is_instant

    def test_parent_child_tree(self):
        s = SpanStream()
        root = s.begin("question", SpanCategory.TASK, 1, 0, 0.0)
        child = s.begin(
            "QP", SpanCategory.COMPUTE, 1, 0, 0.0, parent=root
        )
        grand = s.begin(
            "xfer", SpanCategory.COMMS, 1, 0, 0.1, parent=child
        )
        assert s.roots(1) == [root]
        assert s.children(root) == [child]
        assert [x.name for x in s.subtree(root)] == ["question", "QP", "xfer"]
        assert grand.parent_id == child.sid

    def test_instants_separate_from_intervals(self):
        s = SpanStream()
        s.begin("work", SpanCategory.COMPUTE, 1, 0, 0.0)
        s.instant("qp-start", 5, 0, 1.0)
        s.instant("pr-collection", 5, 1, 2.0, "c3")
        assert len(s.intervals()) == 1
        assert all(e.is_instant for e in s.instants())
        # Record order, and every Fig 7 field survives the round trip.
        assert [
            (e.t0, e.node_id, e.qid, e.name, e.detail) for e in s.instants()
        ] == [(1.0, 0, 5, "qp-start", ""), (2.0, 1, 5, "pr-collection", "c3")]

    def test_disabled_is_noop_returning_none(self):
        s = SpanStream(enabled=False)
        span = s.begin("work", SpanCategory.COMPUTE, 1, 0, 0.0)
        assert span is None
        s.end(span, 1.0)  # must not raise
        s.instant("e", 1, 0, 0.0)
        assert len(s) == 0
        s.enabled = True  # one flag governs intervals and instants alike
        s.instant("e", 1, 0, 0.0)
        assert len(s.instants()) == 1

    def test_max_spans_bound_counts_dropped(self):
        s = SpanStream(max_spans=2)
        kept = s.begin("a", SpanCategory.COMPUTE, 1, 0, 0.0)
        s.instant("b", 1, 0, 0.0)
        assert s.begin("c", SpanCategory.COMPUTE, 1, 0, 0.0) is None
        s.instant("d", 1, 0, 0.0)
        assert len(s) == 2
        assert s.dropped == 2
        s.end(kept, 2.0)  # open spans can still be closed at the bound
        assert kept.t1 == 2.0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            SpanStream(max_spans=0)

    def test_clear(self):
        s = SpanStream(max_spans=1)
        s.instant("a", 1, 0, 0.0)
        s.instant("b", 1, 0, 0.0)
        assert s.dropped == 1
        s.clear()
        assert len(s) == 0 and s.dropped == 0

    def test_question_ids(self):
        s = SpanStream()
        s.instant("a", 3, 0, 0.0)
        s.instant("b", 1, 0, 0.0)
        assert s.question_ids() == [1, 3]


class TestRenderTrace:
    def test_relative_times_and_ordering(self):
        s = SpanStream()
        s.instant("ap-part", 7, 1, 12.0, "40p")
        s.instant("qp-start", 7, 0, 10.0)
        lines = render_trace(s.instants()).splitlines()
        assert "qp-start" in lines[0]
        assert "[   0.000s]" in lines[0]
        assert "[   2.000s]" in lines[1]
        assert "N1 q7 ap-part 40p" in lines[1]

    def test_empty(self):
        assert render_trace([]) == "(empty trace)"
