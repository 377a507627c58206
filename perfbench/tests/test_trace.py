"""Spans, self time and the trace exports."""

import json

from perfbench.trace import Recorder, Span, self_times, totals_by_name, write_chrome, write_jsonl


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.op = 7
    with rec.span("outer"):
        clock.now = 1.0
        with rec.span("inner"):
            clock.now = 3.0
        clock.now = 4.0
        with rec.span("inner"):
            clock.now = 4.5
        clock.now = 6.0
    outer, first, second = rec.spans
    assert (first.parent, second.parent, outer.parent) == (outer.id, outer.id, None)
    assert all(span.op == 7 for span in rec.spans)
    own = self_times(rec.spans)
    assert own[outer.id] == 6.0 - 2.0 - 0.5
    assert own[first.id] == 2.0
    totals = totals_by_name(rec.spans)
    assert totals["inner"].calls == 2
    assert totals["inner"].busy_s == 2.5
    assert totals["outer"].busy_s == 3.5
    assert totals["outer"].total_s == 6.0


def test_overlapping_children_are_covered_once():
    spans = [
        Span(0, "parent", 0.0, 10.0),
        Span(1, "a", 1.0, 5.0, parent=0),
        Span(2, "b", 4.0, 7.0, parent=0),
        Span(3, "c", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_wrap_records_counters():
    clock = FakeClock()
    rec = Recorder(clock)
    double = rec.wrap("layer.double", lambda xs: xs * 2, lambda out, xs: {"out": len(out)})
    assert double([1, 2]) == [1, 2, 1, 2]
    assert rec.spans[0].name == "layer.double"
    assert rec.spans[0].counters == {"out": 4}


def test_exports(tmp_path):
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("a", n=1):
        clock.now = 0.002
    write_jsonl(rec.spans, str(tmp_path / "spans.jsonl"))
    write_chrome(rec.spans, str(tmp_path / "trace.json"))
    line = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert line["name"] == "a" and line["counters"] == {"n": 1}
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert events[0]["ph"] == "X"
    assert events[0]["dur"] == 2000.0
