"""Span recorder arithmetic on synthetic nested spans."""

import pytest

from spans import SpanRecorder, per_round, self_times, write_jsonl


def test_self_time_subtracts_direct_children_only():
    # parent 0..10 with children 1..4 and 5..9; the second has a child 6..8.
    spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("child", 5.0, 9.0, 0, 0),
        ("grandchild", 6.0, 8.0, 2, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    # Self times partition the time covered by the top-level span.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_per_round_groups_by_name_and_round_and_skips_open_spans():
    spans = [
        ("a", 0.0, 2.0, -1, 0),
        ("b", 0.5, 1.5, 0, 0),
        None,  # a span that never closed
        ("a", 10.0, 13.0, -1, 1),
        ("a", 20.0, 21.0, -1, 7),  # outside the requested rounds
    ]
    selfs, totals, calls = per_round(spans, rounds=[0, 1])
    assert selfs["a"] == [1.0, 3.0]
    assert totals["a"] == [2.0, 3.0]
    assert selfs["b"] == [1.0, 0.0]
    assert calls["a"] == [1, 1] and calls["b"] == [1, 0]


def test_wrap_records_nesting_rounds_and_counts():
    class Base:
        def leaf(self, x):
            return x + 1

    class Thing(Base):
        def outer(self, x):
            return self.leaf(x) * 2

        def boom(self):
            raise ValueError("boom")

    rec = SpanRecorder()
    rec.wrap(Thing, "outer", "layer.outer", lambda r, args, kwargs, result: r.count("results", result))
    rec.wrap(Thing, "leaf", "layer.leaf")  # inherited: shadowed on Thing only
    rec.wrap(Thing, "boom", "layer.boom")

    thing = Thing()
    assert thing.outer(1) == 4
    rec.round = 3
    assert thing.outer(2) == 6
    with pytest.raises(ValueError):
        thing.boom()

    spans = rec.spans
    assert [s[0] for s in spans] == [
        "layer.outer", "layer.leaf", "layer.outer", "layer.leaf", "layer.boom"
    ]
    outer, leaf = spans[0], spans[1]
    assert leaf[3] == 0 and outer[3] == -1  # leaf's parent is the outer span
    assert outer[1] <= leaf[1] <= leaf[2] <= outer[2]
    assert [s[4] for s in spans] == [0, 0, 3, 3, 3]
    assert rec.counters[("results", 0)] == 4 and rec.counters[("results", 3)] == 6
    assert Base().leaf(1) == 2 and len(rec.spans) == 5  # the base class is untouched


def test_a_span_that_never_closed_reads_as_none():
    class Thing:
        def hang(self, rec):
            return list(rec.spans)  # looked at while the span is still open

    rec = SpanRecorder()
    rec.wrap(Thing, "hang", "layer.hang")
    assert Thing().hang(rec) == [None]
    assert rec.spans[0][0] == "layer.hang"


def test_write_jsonl_round_trips(tmp_path):
    import json

    spans = [("a", 0.0, 1.0, -1, 0), None, ("b", 0.2, 0.4, 0, 0)]
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(spans, path) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[1] == {"id": 2, "name": "b", "start": 0.2, "end": 0.4, "parent": 0, "round": 0}
