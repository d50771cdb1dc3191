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

Encoding.  Both writers render each event straight from the recorder
into one string, with no per-event dict, and order the strings once by
key columns (timestamp, pid, insertion order) under ``np.lexsort``.  Fixed
fields fill a template per event kind: an exact ``int`` or finite exact
``float`` is written with its ``__repr__``, as CPython's C JSON encoder
writes it; strings, args and any other value go through the one
module-level :class:`json.JSONEncoder`.  Output is written in slices of
``_SLICE_EVENTS`` events, never as one whole-file string.  The bytes are
those ``json.dump`` writes for one dict per event, the renderer that
``tests/reference_export.py`` keeps as the oracle.

Arg contract.  Event args are written as recorded, without a conversion
pass: each value must be a JSON-native scalar (``str``, ``int``,
``float``, ``bool``, ``None``), a tuple or list of such values, or a numpy
scalar, which the encoder's ``default=`` hook writes as its ``.item()``.
Anything else raises :class:`TypeError` from both writers.  Tuples are
written as JSON arrays, so ``read_jsonl`` (and ``iter_scope_events``)
return them as lists.  Args are read-only once recorded: both writers
share each event's encoded args, and ``iter_scope_events`` hands out the
recorded dict itself when every value is JSON-native.
"""

from __future__ import annotations

import io
import json
from itertools import repeat
from math import isfinite
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.telemetry.recorder import ScopedRecorder, TraceRecorder, time_order

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
_encode = _ENCODER.encode

#: Events per written slice: the per-write cost vanishes, and one joined
#: slice, never the whole file, is the largest string alive.
_SLICE_EVENTS = 2048

#: Arg types ``read_jsonl`` returns unchanged (``bool`` is listed because
#: the lookup is by exact type).
_NATIVE = frozenset((str, int, float, bool, type(None)))

# Templates, in the key order of the trace-event and JSONL record dicts.
_META = '{"ph": "M", "name": "%s", "pid": %s, "tid": %s, "args": {"%s": %s}}'
_SPAN = ('{"ph": "X", "name": %s, "pid": %s, "tid": %s, "ts": %s, "dur": %s, '
         '"cat": %s, "args": %s}')
_INSTANT = ('{"ph": "i", "name": %s, "pid": %s, "tid": %s, "ts": %s, '
            '"s": "t", "cat": %s, "args": %s}')
_SLICE = ('{"ph": "X", "name": "%s", "pid": %s, "tid": %s, "ts": %s, '
          '"dur": %s, "cat": "request"}')
_COUNTER = ('{"ph": "C", "name": "queue_depth", "pid": %s, "tid": 0, '
            '"ts": %s, "args": {"queued": %s, "running": %s}}')
_QUEUE_SAMPLE = ('{"scope": %s, "pid": %s, "name": "engine.queue_sample", '
                 '"ts_s": %s, "args": {"queued": %s, "running": %s}}\n')


def _number(value: Any) -> str:
    """``value`` as the C encoder writes it, without a call into it for
    an exact ``int`` or a finite exact ``float``."""
    kind = type(value)
    if kind is int or kind is float and value - value == 0.0:  # finite
        return kind.__repr__(value)
    return _encode(value)


def _numbers(values: Sequence[Any]) -> List[str]:
    """:func:`_number` of each value, in one C-level pass when every value
    is an exact ``int`` or every value a finite exact ``float``."""
    kinds = set(map(type, values))
    if kinds == {int} or kinds == {float} and all(map(isfinite, values)):
        return list(map(kinds.pop().__repr__, values))
    return list(map(_number, values))


def _as_read(value: Any) -> Any:
    """``value`` as ``read_jsonl`` returns it once written: tuples become
    lists, numpy scalars their Python value."""
    if isinstance(value, (list, tuple)):
        return (list(value) if _NATIVE.issuperset(map(type, value))
                else [_as_read(item) for item in value])
    if isinstance(value, dict):
        return {str(key): _as_read(item) for key, item in value.items()}
    if type(value) in _NATIVE or not hasattr(value, "item"):
        return value
    return value.item()


def _args_texts(scope: ScopedRecorder) -> List[Optional[str]]:
    """Each of the scope's events' encoded ``args`` (``None``: no args).

    The first writer to run encodes them and leaves them on the scope;
    the next writer takes them, so the texts are encoded once for both
    writers but do not live as long as the recorder."""
    cache, events = scope.args_json, scope.events
    if len(cache) == len(events):
        scope.args_json = []
        return cache
    cache += [_encode(event.args) if event.args else None
              for event in events[len(cache):]]
    return cache


def _request_slices(scope: ScopedRecorder
                    ) -> Iterator[Tuple[str, int, float, float]]:
    """Derive per-request phase slices ``(name, tid, start_s, stop_s)``
    from the scope's lifecycle events."""
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

    for rid, seen in sorted(marks.items()):
        end = seen.get("request.finished",
                       seen.get("request.migrate_out",
                                seen.get("request.rejected",
                                         last_seen[rid])))
        queued = seen.get("request.queued", seen.get("request.migrate_in"))
        admitted = seen.get("request.admitted", seen.get("request.resume"))
        first = seen.get("request.first_token")
        phases = [("queued", queued, admitted if admitted is not None else end),
                  ("prefill", admitted, first if first is not None else end),
                  ("decode", first if first is not None else admitted, end)]
        phases += [("preempted", start, stop) for start, stop in zip(
            preempts.get(rid, []), resumes.get(rid, []) + [end], strict=False)]
        for name, start, stop in phases:
            if start is not None and stop is not None and not stop < start:
                yield name, rid + 1, start, stop


def _trace_events(recorder: TraceRecorder
                  ) -> Tuple[List[str], List[Any], List[int]]:
    """Every trace event's text in generation order (per scope: metadata,
    events, request slices, counters), with its ``ts`` (metadata: -1.0)
    and ``pid`` sort keys."""
    recorder.finalize()
    texts: List[str] = []
    keys: List[Any] = []
    pids: List[int] = []
    for scope in recorder.scopes:
        first_row, events, pid = len(texts), scope.events, _number(scope.pid)
        rids = sorted({event.request_id for event in events
                       if event.request_id is not None})
        texts += (
            _META % ("process_name", pid, 0, "name", _encode(scope.name)),
            _META % ("process_sort_index", pid, 0, "sort_index", pid),
            _META % ("thread_name", pid, 0, "name", '"engine"'))
        texts += map(_META.__mod__, zip(
            repeat("thread_name"), repeat(pid),
            _numbers([rid + 1 for rid in rids]), repeat("name"),
            map(_encode, [f"request {rid}" for rid in rids])))
        keys += [-1.0] * (len(texts) - first_row)

        labels = {name: (_encode(name), _encode(name.split(".")[0]))
                  for name in {event.name for event in events}}
        ts = [event.ts_s * _US for event in events]
        tids = _numbers([0 if event.request_id is None
                         else event.request_id + 1 for event in events])
        durations = iter(_numbers([event.dur_s * _US for event in events
                                   if event.dur_s is not None]))
        for event, ts_text, tid, args in zip(events, _numbers(ts), tids,
                                             _args_texts(scope)):
            rid = event.request_id
            if rid is not None and (args is None
                                    or "request_id" not in event.args):
                # The Perfetto args carry the request id (last, if new).
                args = (f'{"{" if args is None else args[:-1] + ", "}'
                        f'"request_id": {_number(rid)}}}')
            name, cat = labels[event.name]
            if event.dur_s is None:
                texts.append(_INSTANT % (name, pid, tid, ts_text, cat,
                                         args or "{}"))
            else:
                texts.append(_SPAN % (name, pid, tid, ts_text,
                                      next(durations), cat, args or "{}"))
        keys += ts

        slices = list(_request_slices(scope))
        ts = [start * _US for _, _, start, _ in slices]
        texts += map(_SLICE.__mod__, zip(
            [name for name, _, _, _ in slices], repeat(pid),
            _numbers([tid for _, tid, _, _ in slices]), _numbers(ts),
            _numbers([(stop - start) * _US for _, _, start, stop in slices])))
        keys += ts

        signal = scope.queue_signal
        ts = [ts_s * _US for ts_s, _, _ in signal]
        texts += map(_COUNTER.__mod__, zip(
            repeat(pid), _numbers(ts),
            _numbers([queued for _, queued, _ in signal]),
            _numbers([running for _, _, running in signal])))
        keys += ts
        pids += [scope.pid] * (len(texts) - first_row)
    return texts, keys, pids


def _write_ordered(write: Callable[[str], Any], texts: List[str],
                   keys: List[Any], pids: List[int], separator: str) -> int:
    """Write ``texts`` in :func:`time_order` of their keys, joined by
    ``separator``, one slice per call; returns how many were written."""
    order = time_order(keys, pids)
    for start in range(0, len(order), _SLICE_EVENTS):
        write((separator if start else "") + separator.join(
            [texts[i] for i in order[start:start + _SLICE_EVENTS]]))
    return len(order)


def _write_trace(recorder: TraceRecorder,
                 write: Callable[[str], Any]) -> int:
    write('{"traceEvents": [')
    count = _write_ordered(write, *_trace_events(recorder), ", ")
    write('], "displayTimeUnit": "ms"}')
    return count


def write_perfetto(recorder: TraceRecorder, path: str) -> int:
    """Write the Perfetto JSON trace; returns the number of trace events."""
    with open(path, "w") as handle:
        return _write_trace(recorder, handle.write)


def perfetto_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """The trace ``write_perfetto`` writes, parsed back into a dict."""
    buffer = io.StringIO()
    _write_trace(recorder, buffer.write)
    return json.loads(buffer.getvalue())


def write_jsonl(recorder: TraceRecorder, path: str, *,
                include_queue_signal: bool = False) -> int:
    """Write the lossless JSONL event log (one event per line,
    time-ordered).  ``include_queue_signal`` additionally emits one
    ``engine.queue_sample`` line per queue-depth sample (off by default:
    large traces carry far more samples than events)."""
    recorder.finalize()
    texts: List[str] = []
    keys: List[Any] = []
    pids: List[int] = []
    for scope in recorder.scopes:
        events = scope.events
        head = (f'{{"scope": {_encode(scope.name)}, '
                f'"pid": {_number(scope.pid)}, "name": ')
        names = {name: head + _encode(name)
                 for name in {event.name for event in events}}
        ts = [event.ts_s for event in events]
        durations = iter(_numbers([event.dur_s for event in events
                                   if event.dur_s is not None]))
        for event, ts_text, args in zip(events, _numbers(ts),
                                        _args_texts(scope)):
            line = f'{names[event.name]}, "ts_s": {ts_text}'
            if event.dur_s is not None:
                line += ', "dur_s": ' + next(durations)
            if event.request_id is not None:
                line += ', "request_id": ' + _number(event.request_id)
            if args is not None:
                line += ', "args": ' + args
            texts.append(line + "}\n")
        keys += ts
        pids += [scope.pid] * len(events)
    for scope in recorder.scopes if include_queue_signal else ():
        signal = scope.queue_signal
        ts = [ts_s for ts_s, _, _ in signal]
        texts += map(_QUEUE_SAMPLE.__mod__, zip(
            repeat(_encode(scope.name)), repeat(_number(scope.pid)),
            _numbers(ts), _numbers([queued for _, queued, _ in signal]),
            _numbers([running for _, _, running in signal])))
        keys += ts
        pids += [scope.pid] * len(signal)
    with open(path, "w") as handle:
        return _write_ordered(handle.write, texts, keys, pids, "")


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
    """In-memory equivalent of ``write_jsonl`` + ``read_jsonl``, except
    that ``ts_s``, ``dur_s`` and ``request_id`` are the recorded values."""
    for scope, event in recorder.iter_events():
        record = {"scope": scope.name, "pid": scope.pid, "name": event.name,
                  "ts_s": event.ts_s}
        if event.dur_s is not None:
            record["dur_s"] = event.dur_s
        if event.request_id is not None:
            record["request_id"] = event.request_id
        args = event.args
        if args:
            record["args"] = (args if _NATIVE.issuperset(map(type, args.values()))
                              else _as_read(args))
        yield record
