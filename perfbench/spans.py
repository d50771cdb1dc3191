"""In-memory call spans: recording, self-time arithmetic, Chrome export.

Pure standard library, so the tests exercise it without the simulator.
A :class:`SpanRecorder` keeps one :class:`Span` per recorded call — name,
start, end, parent and thread — in a flat list, and writes nothing until
the run ends.  Wrappers installed by :mod:`layers` open and close spans
around calls into the simulator's public entry points.

Self time is computed per thread.  A span's children are the spans opened
inside it on the same thread, plus *adopted* spans: a span with no parent
on some other thread (a replica advancing on a worker) belongs to the
innermost span open on the root thread when it started.  A span's self time
is its duration minus the union of its children's intervals, so two
children running in parallel are not subtracted twice and self time never
goes negative.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "SpanRecorder", "adopt_orphans", "self_times",
           "descendants", "chrome_trace", "write_chrome_trace"]


@dataclass
class Span:
    """One recorded call.  Times are ``perf_counter_ns`` values."""

    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    thread: int
    #: The wrapped call returned ``False`` (a refused allocation).
    refused: bool = False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans from any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span on the calling thread; returns its index."""
        stack = self._stack()
        span = Span(name, time.perf_counter_ns(), 0,
                    stack[-1] if stack else None, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, *, refused: bool = False) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        span.refused = refused
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """``with recorder.span(name):`` — a span around a block."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)


def adopt_orphans(spans: Sequence[Span], root_thread: int) -> List[Optional[int]]:
    """Parent of every span, with cross-thread orphans adopted.

    A parentless span on a thread other than ``root_thread`` gets as parent
    the innermost root-thread span whose interval contains its start.
    Returns the parent index per span (``None`` for true roots).
    """
    parents = [span.parent for span in spans]
    # Root-thread spans nest, so the innermost one containing an instant is
    # an ancestor-or-self of the last root span started before it.
    root_spans = sorted((span.start_ns, i) for i, span in enumerate(spans)
                        if span.thread == root_thread)
    starts = [start for start, _ in root_spans]
    for index, span in enumerate(spans):
        if span.parent is not None or span.thread == root_thread:
            continue
        position = bisect.bisect_right(starts, span.start_ns) - 1
        candidate = root_spans[position][1] if position >= 0 else None
        while candidate is not None and spans[candidate].end_ns <= span.start_ns:
            candidate = spans[candidate].parent
        parents[index] = candidate
    return parents


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: Sequence[Span], parents: Sequence[Optional[int]]) -> List[int]:
    """Self time (ns) of every span: duration minus its children's union."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for index, parent in enumerate(parents):
        if parent is None:
            continue
        outer, inner = spans[parent], spans[index]
        lo = max(inner.start_ns, outer.start_ns)
        hi = min(inner.end_ns, outer.end_ns)
        if hi > lo:
            children.setdefault(parent, []).append((lo, hi))
    return [span.duration_ns - _union_ns(children.get(index, ()))
            for index, span in enumerate(spans)]


def descendants(parents: Sequence[Optional[int]], root: int) -> List[int]:
    """Indices of ``root`` and every span below it."""
    below: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent is not None:
            below.setdefault(parent, []).append(index)
    found, pending = [], [root]
    while pending:
        index = pending.pop()
        found.append(index)
        pending.extend(below.get(index, ()))
    return sorted(found)


def chrome_trace(spans: Sequence[Span], parents: Sequence[Optional[int]],
                 *, process_name: str) -> Dict[str, object]:
    """Chrome trace-event JSON (complete ``X`` events), as Perfetto opens it."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span.start_ns for span in spans)
    threads = {thread: tid for tid, thread in
               enumerate(sorted({span.thread for span in spans}), start=1)}
    events: List[Dict[str, object]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": process_name}}]
    for thread, tid in threads.items():
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                       "args": {"name": f"thread-{tid}"}})
    for index, span in enumerate(spans):
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
            "pid": 1, "tid": threads[span.thread],
            "ts": (span.start_ns - origin) / 1e3,
            "dur": span.duration_ns / 1e3,
            "args": {"id": index, "parent": parents[index]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       parents: Sequence[Optional[int]], *,
                       process_name: str) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans, parents, process_name=process_name), handle)
