"""Dict-building exporters and the tuple-sort queue merge: the oracle of
``repro.telemetry.export`` and ``merge_queue_depth_timelines``.

These are the renderers the package shipped before it rendered each event
straight from the recorder: every Perfetto trace event and every JSONL
record is built as a dict, the lists are sorted with Python keys and the
C encoder writes the dicts.  ``test_export_oracle.py`` holds the shipped
writers to these byte for byte, and the shipped merge to
``merge_queue_depth_timelines`` here sample for sample.  Nothing under
``src/`` imports this module.

``python tests/reference_export.py --out PREFIX`` runs
``examples/trace_explorer.py``'s recorded scenario and writes its exports
through this module, for ``cmp`` against the shipped writers' files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.recorder import ScopedRecorder, TraceEvent, TraceRecorder

_US = 1e6  # seconds -> trace-event microseconds

#: Request-lifecycle event names (emitted by the serving engine) that the
#: Perfetto export derives phase slices from.
_LIFECYCLE = ("request.queued", "request.admitted", "request.first_token",
              "request.finished", "request.rejected", "request.resume",
              "request.migrate_out", "request.migrate_in", "serving.preempt")


def _item(value: Any) -> Any:
    """The encoder's ``default=`` hook: a numpy scalar encodes as its
    Python value; anything else is not serializable, as in :mod:`json`."""
    if not hasattr(value, "item"):
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")
    return value.item()


#: The one encoder both writers use (built once: ``json.dumps`` with a
#: ``default=`` builds a new ``JSONEncoder`` on every call).
_ENCODER = json.JSONEncoder(default=_item)

#: Trace events per ``write_perfetto`` encoder call.  Large enough that the
#: per-call cost vanishes, small enough that one encoded slice, never the
#: whole file, is the largest string alive.
_SLICE_EVENTS = 2048

#: Arg types ``read_jsonl`` returns unchanged (``bool`` is listed because
#: the lookup is by exact type).
_NATIVE = frozenset((str, int, float, bool, type(None)))


def _as_read(value: Any) -> Any:
    """``value`` as ``read_jsonl`` returns it once written: tuples become
    lists, numpy scalars their Python value."""
    if type(value) in _NATIVE:
        return value
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _NATIVE else _as_read(item)
                for item in value]
    if isinstance(value, dict):
        return {str(key): item if type(item) in _NATIVE else _as_read(item)
                for key, item in value.items()}
    return value.item() if hasattr(value, "item") else value


def _request_slices(scope: ScopedRecorder) -> List[Dict[str, Any]]:
    """Derive per-request phase slices from the scope's lifecycle events."""
    marks: Dict[int, Dict[str, float]] = {}
    preempts: Dict[int, List[float]] = {}
    resumes: Dict[int, List[float]] = {}
    last_seen: Dict[int, float] = {}
    for event in scope.events:
        rid = event.request_id
        if rid is None:
            continue
        last_seen[rid] = max(last_seen.get(rid, event.ts_s), event.end_s)
        if event.name == "serving.preempt":
            preempts.setdefault(rid, []).append(event.ts_s)
        elif event.name == "request.resume":
            resumes.setdefault(rid, []).append(event.ts_s)
        elif event.name in _LIFECYCLE:
            marks.setdefault(rid, {})[event.name] = event.ts_s

    slices: List[Dict[str, Any]] = []
    for rid, seen in sorted(marks.items()):
        tid = rid + 1
        end = seen.get("request.finished",
                       seen.get("request.migrate_out",
                                seen.get("request.rejected",
                                         last_seen[rid])))

        def phase(name: str, start: Optional[float],
                  stop: Optional[float]) -> None:
            if start is None or stop is None or stop < start:
                return
            slices.append({"ph": "X", "name": name, "pid": scope.pid,
                           "tid": tid, "ts": start * _US,
                           "dur": (stop - start) * _US,
                           "cat": "request"})

        queued = seen.get("request.queued", seen.get("request.migrate_in"))
        admitted = seen.get("request.admitted", seen.get("request.resume"))
        first = seen.get("request.first_token")
        phase("queued", queued, admitted if admitted is not None else end)
        phase("prefill", admitted, first if first is not None else end)
        phase("decode", first if first is not None else admitted, end)
        for start, stop in zip(preempts.get(rid, []),
                               resumes.get(rid, []) + [end],
                               strict=False):
            phase("preempted", start, stop)
    return slices


def perfetto_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """Render the whole session as a ``trace_event`` JSON object.

    Each event's ``args`` is a shallow copy of the recorded args, so
    tuples and numpy scalars stay as recorded until encoded."""
    recorder.finalize()
    events: List[Dict[str, Any]] = []
    for scope in recorder.scopes:
        events.append({"ph": "M", "name": "process_name", "pid": scope.pid,
                       "tid": 0, "args": {"name": scope.name}})
        events.append({"ph": "M", "name": "process_sort_index",
                       "pid": scope.pid, "tid": 0,
                       "args": {"sort_index": scope.pid}})
        events.append({"ph": "M", "name": "thread_name", "pid": scope.pid,
                       "tid": 0, "args": {"name": "engine"}})
        request_ids = sorted({event.request_id for event in scope.events
                              if event.request_id is not None})
        for rid in request_ids:
            events.append({"ph": "M", "name": "thread_name",
                           "pid": scope.pid, "tid": rid + 1,
                           "args": {"name": f"request {rid}"}})
        for event in scope.events:
            tid = 0 if event.request_id is None else event.request_id + 1
            args = dict(event.args) if event.args else {}
            if event.request_id is not None:
                args.setdefault("request_id", event.request_id)
            if event.dur_s is not None:
                events.append({"ph": "X", "name": event.name,
                               "pid": scope.pid, "tid": tid,
                               "ts": event.ts_s * _US,
                               "dur": event.dur_s * _US,
                               "cat": event.name.split(".")[0],
                               "args": args})
            else:
                events.append({"ph": "i", "name": event.name,
                               "pid": scope.pid, "tid": tid,
                               "ts": event.ts_s * _US, "s": "t",
                               "cat": event.name.split(".")[0],
                               "args": args})
        events.extend(_request_slices(scope))
        for ts_s, queued, running in scope.queue_signal:
            events.append({"ph": "C", "name": "queue_depth",
                           "pid": scope.pid, "tid": 0, "ts": ts_s * _US,
                           "args": {"queued": queued, "running": running}})
    events.sort(key=lambda item: (item.get("ts", -1.0), item["pid"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(recorder: TraceRecorder, path: str) -> int:
    """Write the Perfetto JSON trace; returns the number of trace events."""
    trace = perfetto_trace(recorder)
    events = trace["traceEvents"]
    # The envelope is the trace with an empty event list; the events go
    # between its brackets one encoded slice at a time.
    head, tail = _ENCODER.encode({**trace, "traceEvents": []}).split("[]", 1)
    with open(path, "w") as handle:
        handle.write(head + "[")
        for start in range(0, len(events), _SLICE_EVENTS):
            if start:
                handle.write(", ")
            chunk = _ENCODER.encode(events[start:start + _SLICE_EVENTS])
            handle.write(chunk[1:-1])
        handle.write("]" + tail)
    return len(events)


def to_dict(event: TraceEvent) -> Dict[str, Any]:
    """One event's JSONL fields, without its scope."""
    record: Dict[str, Any] = {"name": event.name, "ts_s": event.ts_s}
    if event.dur_s is not None:
        record["dur_s"] = event.dur_s
    if event.request_id is not None:
        record["request_id"] = event.request_id
    if event.args:
        record["args"] = event.args
    return record


def _record(scope: ScopedRecorder, event: TraceEvent) -> Dict[str, Any]:
    """One JSONL record; its ``args`` is the event's own dict, not a copy."""
    record = {"scope": scope.name, "pid": scope.pid}
    record.update(to_dict(event))
    return record


def write_jsonl(recorder: TraceRecorder, path: str, *,
                include_queue_signal: bool = False) -> int:
    """Write the lossless JSONL event log (one event per line,
    time-ordered).  ``include_queue_signal`` additionally emits one
    ``engine.queue_sample`` line per queue-depth sample (off by default:
    large traces carry far more samples than events)."""
    lines = [_record(scope, event) for scope, event in iter_events(recorder)]
    if include_queue_signal:
        for scope in recorder.scopes:
            for ts_s, queued, running in scope.queue_signal:
                lines.append({"scope": scope.name, "pid": scope.pid,
                              "name": "engine.queue_sample", "ts_s": ts_s,
                              "args": {"queued": queued,
                                       "running": running}})
        lines.sort(key=lambda item: (item["ts_s"], item["pid"]))
    encode = _ENCODER.encode
    with open(path, "w") as handle:
        for record in lines:
            handle.write(encode(record) + "\n")
    return len(lines)


def iter_scope_events(recorder: TraceRecorder) -> Iterable[Dict[str, Any]]:
    """In-memory equivalent of ``write_jsonl`` + ``read_jsonl``."""
    for scope, event in iter_events(recorder):
        record = _record(scope, event)
        if event.args:
            record["args"] = _as_read(event.args)
        yield record


def iter_events(recorder: TraceRecorder
                ) -> Iterator[Tuple[ScopedRecorder, TraceEvent]]:
    """All events, time-ordered (ties broken by pid, then emit order)."""
    recorder.finalize()
    flat = [(event.ts_s, scope.pid, seq, scope, event)
            for scope in recorder.scopes
            for seq, event in enumerate(scope.events)]
    flat.sort(key=lambda item: item[:3])
    for _, _, _, scope, event in flat:
        yield scope, event


def merge_queue_depth_timelines(
    timelines: Sequence[Sequence[Tuple[float, int, int]]],
) -> list:
    """Sum concurrent per-replica backlog signals into one timeline.

    Each input is a piecewise-constant ``(time_s, queued, running)`` signal;
    the merged signal carries, at every sample time, the *sum* of each
    replica's most recent value — simply interleaving the samples would
    report one replica's backlog where the caller expects the pool's.  A
    single input comes back unchanged, so the single-replica tenant keeps
    engine parity.
    """
    timelines = [list(t) for t in timelines if t]
    if not timelines:
        return []
    if len(timelines) == 1:
        return timelines[0]
    events = sorted(
        (sample[0], index, sample)
        for index, timeline in enumerate(timelines)
        for sample in timeline
    )
    latest: dict = {}
    merged = []
    i = 0
    while i < len(events):
        now = events[i][0]
        while i < len(events) and events[i][0] == now:
            _, index, (_, queued, running) = events[i]
            latest[index] = (queued, running)
            i += 1
        merged.append((now,
                       sum(q for q, _ in latest.values()),
                       sum(r for _, r in latest.values())))
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PREFIX", default="reference_trace",
                        help="output prefix for PREFIX.perfetto.json and "
                             "PREFIX.jsonl (default: reference_trace)")
    cli = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "examples"))
    from trace_explorer import record_run

    recorder, _ = record_run()
    events = write_perfetto(recorder, f"{cli.out}.perfetto.json")
    lines = write_jsonl(recorder, f"{cli.out}.jsonl")
    print(f"{events} Perfetto events, {lines} JSONL records")


if __name__ == "__main__":
    main()
