"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and JSONL.

The Perfetto export maps the recorder's structure onto the trace-event
model the way production serving dashboards do:

* each **scope** (a cluster replica, the control plane) is a *process*
  (``pid``), named by a ``process_name`` metadata event;
* track 0 of each scope is the **engine track**: decode/prefill window
  spans and any event not tied to a request;
* each **request** gets its own track (``tid = request_id + 1``) carrying
  derived lifecycle slices — ``queued`` → ``prefill`` → ``decode`` —
  with nested ``preempted`` slices and instant markers for evictions,
  resumes and live migrations;
* the queue-depth signal becomes a per-process **counter track**.

Timestamps are microseconds (the trace-event unit); the whole file is the
``{"traceEvents": [...]}`` JSON object form, loadable in
``chrome://tracing`` or https://ui.perfetto.dev.

The JSONL export is the lossless form: one event per line, time-ordered,
which ``python -m repro.telemetry`` consumes.

Encoding.  Both writers go through one module-level
:class:`json.JSONEncoder`, whose ``encode`` runs CPython's C encoder in
one shot (``json.dump`` would take the pure-Python streaming encoder).
``write_perfetto`` encodes ``traceEvents`` in fixed slices of
``_SLICE_EVENTS`` events and writes them in order, so no whole-file string
is ever built; ``write_jsonl`` encodes one record per line.  The bytes are
those ``json.dump`` / ``json.dumps`` write.

Arg contract.  Event args are written as recorded, without a conversion
pass: each value must be a JSON-native scalar (``str``, ``int``,
``float``, ``bool``, ``None``), a tuple or list of such values, or a numpy
scalar, which the encoder's ``default=`` hook writes as its ``.item()``.
Anything else raises :class:`TypeError` from both writers.  Tuples are
written as JSON arrays, so ``read_jsonl`` (and ``iter_scope_events``)
return them as lists.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.telemetry.recorder import ScopedRecorder, TraceEvent, TraceRecorder

__all__ = [
    "perfetto_trace",
    "read_jsonl",
    "write_jsonl",
    "write_perfetto",
]

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


def _record(scope: ScopedRecorder, event: TraceEvent) -> Dict[str, Any]:
    """One JSONL record; its ``args`` is the event's own dict, not a copy."""
    record = {"scope": scope.name, "pid": scope.pid}
    record.update(event.to_dict())
    return record


def write_jsonl(recorder: TraceRecorder, path: str, *,
                include_queue_signal: bool = False) -> int:
    """Write the lossless JSONL event log (one event per line,
    time-ordered).  ``include_queue_signal`` additionally emits one
    ``engine.queue_sample`` line per queue-depth sample (off by default:
    large traces carry far more samples than events)."""
    lines = [_record(scope, event) for scope, event in recorder.iter_events()]
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


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL event log back into a list of event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def iter_scope_events(recorder: TraceRecorder) -> Iterable[Dict[str, Any]]:
    """In-memory equivalent of ``write_jsonl`` + ``read_jsonl``."""
    for scope, event in recorder.iter_events():
        record = _record(scope, event)
        if event.args:
            record["args"] = _as_read(event.args)
        yield record
