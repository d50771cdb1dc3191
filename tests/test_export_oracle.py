"""The shipped exporters and queue merge against the dict-building oracle.

``repro.telemetry.export`` renders each trace event from a template and
orders rows with one ``np.lexsort``; ``merge_queue_depth_timelines`` merges
with numpy.  ``reference_export.py`` keeps the renderers that built one dict
per event and sorted Python tuples.  On random recorders the two must write
the same Perfetto, JSONL and JSONL-with-queue-signal bytes and yield the same
``iter_scope_events`` records, and the merges the same samples.  The
recorders mix numpy scalars, tuples, ``None``, NaN, infinities and -0.0 in
args, integer and float timestamps, and timestamps shared across scopes and
with the queue signal, so every tie of the sort is exercised.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import merge_queue_depth_timelines
from repro.telemetry import TraceRecorder, write_jsonl, write_perfetto
from repro.telemetry.export import iter_scope_events
from repro.telemetry.recorder import TraceEvent

import reference_export

#: A small pool, so equal timestamps within and across scopes are common.
TIMES = st.one_of(st.integers(min_value=-1, max_value=3),
                  st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.5, 1e-7,
                                   123456.789]))
NAMES = st.sampled_from(reference_export._LIFECYCLE
                        + ("engine.decode_window", "kv.alloc", "cluster.migrate",
                           "custom"))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.integers(min_value=-50, max_value=50).map(np.int64),
    st.floats(allow_nan=True, width=32).map(np.float32),
    st.floats(allow_nan=True).map(np.float64),
    st.booleans().map(np.bool_))
ARG_VALUES = st.one_of(SCALARS, st.tuples(), st.tuples(SCALARS, SCALARS),
                       st.lists(SCALARS, max_size=3))
ARGS = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["steps", "decode_batch", "mode", "request_id", "x"]),
    ARG_VALUES, max_size=3))


@st.composite
def events(draw):
    duration = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2),
                              st.sampled_from([0.0, 0.5, -0.0, float("inf")])))
    return TraceEvent(draw(NAMES), draw(TIMES), dur_s=duration,
                      request_id=draw(st.one_of(
                          st.none(), st.integers(min_value=0, max_value=4))),
                      args=draw(ARGS))


@st.composite
def recorders(draw):
    recorder = TraceRecorder()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        scope = recorder.scope(draw(st.sampled_from(["engine", "replica-0",
                                                     "contrôle", 'q"t'])))
        scope.events.extend(draw(st.lists(events(), max_size=8)))
        scope.queue_signal.extend(draw(st.lists(st.tuples(
            TIMES, st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9)), max_size=4)))
    return recorder


WRITERS = {
    "perfetto": (write_perfetto, reference_export.write_perfetto),
    "jsonl": (write_jsonl, reference_export.write_jsonl),
    "jsonl_queue": (
        lambda rec, path: write_jsonl(rec, path, include_queue_signal=True),
        lambda rec, path: reference_export.write_jsonl(
            rec, path, include_queue_signal=True)),
}


def assert_same_exports(recorder, root):
    for name, (shipped, reference) in WRITERS.items():
        ours, theirs = (os.path.join(root, name + suffix)
                        for suffix in (".shipped", ".reference"))
        assert shipped(recorder, ours) == reference(recorder, theirs)
        with open(ours, "rb") as mine, open(theirs, "rb") as oracle:
            assert mine.read() == oracle.read(), name


@settings(max_examples=100)
@given(recorders())
def test_exports_match_reference_bytes(recorder):
    with tempfile.TemporaryDirectory() as root:
        assert_same_exports(recorder, root)


def test_exports_after_more_events(tmp_path):
    """Encoded args left on a scope by one export never go stale: events
    recorded after it are encoded by the next."""
    recorder = TraceRecorder()
    scope = recorder.scope("engine")
    scope.event("request.queued", 0.5, request_id=1, tenant="a")
    write_perfetto(recorder, tmp_path / "first.json")
    scope.span("engine.decode_window", 0.5, 0.75, steps=2,
               decode_batch=(1, np.int64(2)))
    scope.event("request.finished", 0.75, request_id=1)
    assert_same_exports(recorder, tmp_path)
    scope.event("kv.release", 1.0, request_id=1, blocks=np.int64(3))
    assert_same_exports(recorder, tmp_path)


@settings(max_examples=100)
@given(recorders())
def test_iter_scope_events_matches_reference(recorder):
    # repr tells a tuple from a list, an int from a float or numpy scalar,
    # and -0.0 from 0.0, and NaN reads the same on both sides.
    assert (repr(list(iter_scope_events(recorder)))
            == repr(list(reference_export.iter_scope_events(recorder))))


TIMELINES = st.lists(st.lists(st.tuples(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3)), max_size=6), max_size=4)


@settings(max_examples=200)
@given(TIMELINES)
def test_merge_matches_reference(timelines):
    assert (repr(merge_queue_depth_timelines(timelines))
            == repr(reference_export.merge_queue_depth_timelines(timelines)))


def test_merge_tie_order():
    """Two samples of one replica at one time: the larger counts hold, as
    in the ``(time, replica, sample)`` tuple sort; across replicas each
    replica's latest sample is summed."""
    a = [(0.0, 1, 0), (1.0, 5, 1), (1.0, 2, 3)]
    b = [(1.0, 4, 0), (1.0, 0, 2), (2.0, 1, 1)]
    expected = [(0.0, 1, 0), (1.0, 9, 1), (2.0, 6, 2)]
    assert merge_queue_depth_timelines([a, b]) == expected
    assert reference_export.merge_queue_depth_timelines([a, b]) == expected
