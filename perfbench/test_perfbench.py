"""Tests of the benchmark's own arithmetic: span self time and metric names."""

import json
import os
import re
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from spans import (  # noqa: E402
    Span,
    SpanRecorder,
    adopt_orphans,
    chrome_trace,
    descendants,
    self_times,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(name, start, end, parent=None, thread=1):
    return Span(name, start, end, parent, thread)


def test_nested_self_time_subtracts_direct_children_only():
    spans = [_span("outer", 0, 100),
             _span("middle", 10, 30, parent=0),
             _span("inner", 15, 20, parent=1)]
    parents = adopt_orphans(spans, root_thread=1)
    assert self_times(spans, parents) == [80, 15, 5]
    assert sum(self_times(spans, parents)) == spans[0].duration_ns


def test_sequential_children_and_a_child_past_its_parent():
    spans = [_span("outer", 0, 100),
             _span("a", 10, 20, parent=0),
             _span("b", 30, 50, parent=0),
             _span("late", 90, 120, parent=0)]
    # Only the part of "late" inside "outer" is charged to it.
    assert self_times(spans, adopt_orphans(spans, root_thread=1))[0] == 100 - 10 - 20 - 10


def test_cross_thread_children_are_adopted_and_overlap_counted_once():
    spans = [_span("cluster.run", 0, 100, thread=1),
             _span("serving.advance", 10, 60, thread=2),
             _span("serving.advance", 30, 90, thread=3),
             _span("kvstore.grow", 20, 30, parent=1, thread=2)]
    parents = adopt_orphans(spans, root_thread=1)
    assert parents == [None, 0, 0, 1]
    selfs = self_times(spans, parents)
    # The two workers together cover 10..90 of the root's 0..100.
    assert selfs[0] == 20
    assert selfs[1:] == [40, 60, 10]
    # Inclusive times summed across threads exceed the root's wall time.
    assert sum(s.duration_ns for s in spans[1:3]) > spans[0].duration_ns
    assert descendants(parents, 0) == [0, 1, 2, 3]


def test_orphan_is_adopted_by_the_innermost_open_root_span():
    spans = [_span("root", 0, 100),
             _span("probe", 20, 50, parent=0),
             _span("leaf", 25, 30, parent=1),
             _span("early", 35, 40, thread=2),
             _span("later", 60, 70, thread=2),
             _span("outside", 150, 160, thread=2)]
    parents = adopt_orphans(spans, root_thread=1)
    assert parents[3] == 1  # "probe" is open at 35, "leaf" has ended
    assert parents[4] == 0  # only "root" is open at 60
    assert parents[5] is None


def test_recorder_tracks_parents_per_thread():
    recorder = SpanRecorder()
    with recorder.span("root"):
        with recorder.span("child"):
            pass
        worker = threading.Thread(target=lambda: recorder.close(
            recorder.open("worker")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {span.name: (index, span) for index, span in
               enumerate(recorder.spans)}
    assert by_name["child"][1].parent == by_name["root"][0]
    assert by_name["worker"][1].parent is None
    assert by_name["worker"][1].thread != by_name["root"][1].thread
    parents = adopt_orphans(recorder.spans, by_name["root"][1].thread)
    assert parents[by_name["worker"][0]] == by_name["root"][0]
    assert min(self_times(recorder.spans, parents)) >= 0


def test_span_table_counts_an_entry_point_calling_its_sibling_once():
    spans = [_span(layers.SERVE_SPAN, 0, 100),
             _span("kvstore.evict_select", 10, 40, parent=0),
             _span("kvstore.evict_select", 15, 25, parent=1),
             _span("kvstore.allocate", 50, 60, parent=0)]
    spans[3].refused = True
    table = layers.SpanTable(spans, adopt_orphans(spans, 1), 0)
    assert table.calls["kvstore.evict_select"] == 1
    assert table.inclusive_s["kvstore.evict_select"] == pytest.approx(30e-9)
    assert table.self_s["kvstore.evict_select"] == pytest.approx(30e-9)
    assert table.refused["kvstore.allocate"] == 1
    assert table.layer_self_s("kvstore") == pytest.approx(40e-9)
    assert table.self_s[layers.SERVE_SPAN] == pytest.approx(60e-9)


def test_chrome_trace_is_complete_events_in_microseconds():
    spans = [_span("root", 1_000, 5_000), _span("child", 2_000, 3_000, parent=0)]
    trace = json.loads(json.dumps(chrome_trace(
        spans, adopt_orphans(spans, 1), process_name="test")))
    complete = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in complete] == [
        ("root", 0.0, 4.0), ("child", 1.0, 1.0)]
    assert complete[1]["args"]["parent"] == 0


def _spec():
    return run.load_spec()


def test_benchmark_json_names_and_units_are_valid_and_unique():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in spec["workloads"] + metrics]
    assert len(names) == len(set(names))
    for entry in spec["workloads"] + metrics:
        assert NAME.match(entry["name"]), entry
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
    for entry in layers.ENTRY_POINTS:
        assert NAME.match(entry[3]), entry
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_layer_metrics_produce_every_per_layer_metric():
    spans = [_span(layers.SERVE_SPAN, 0, 100),
             _span("compiler.compile", 10, 20, parent=0)]
    table = layers.SpanTable(spans, adopt_orphans(spans, 1), 0)
    outcome = dict.fromkeys(
        ("requests", "rejected", "preemptions", "swap_outs", "prefix_hit_rate",
         "cow_blocks", "rebalances", "migrated_requests", "tbt_total"), 1)
    values = layers.layer_metrics(table, table, generate_s=0.5,
                                  outcome=outcome, overhead_frac=0.1)
    selected = run.select(values, _spec()["per_layer"])
    assert list(selected) == [m["name"] for m in _spec()["per_layer"]]


def test_select_keeps_spec_order_and_refuses_a_missing_metric():
    specs = [{"name": "b", "unit": "s"}, {"name": "a", "unit": "1"}]
    assert run.select({"a": 1, "b": 2, "c": 3}, specs) == {
        "b": {"value": 2, "unit": "s"}, "a": {"value": 1, "unit": "1"}}
    with pytest.raises(run.WorkerError, match="no value for a"):
        run.select({"b": 2}, specs)
