"""Typed span/event recording for the serving stack.

One :class:`TraceRecorder` collects everything a simulation emits: the
serving engine, the paged KV allocator, the cluster scheduler and the
closed-loop controller all write typed events into *scopes* — one
:class:`ScopedRecorder` per engine run (a cluster replica, the control
plane) — and the exporters (:mod:`repro.telemetry.export`) turn the scopes
into a Chrome/Perfetto trace or a JSONL event log.

Design rules (see CONTRIBUTING "Instrumenting a subsystem"):

* **Zero overhead when disabled.**  Tracing off means ``recorder is None``
  everywhere; every emission site is guarded by a single ``is not None``
  check and builds no args, so the vectorized fast-forward stays fully
  batched.
* **No per-token events.**  Decode/prefill iterations coalesce into
  *window* spans via :meth:`ScopedRecorder.window_step`: consecutive
  iterations with the same batch and a contiguous clock merge into one
  span, so the event-horizon fast-forward (which advances a whole window
  in one closed-form step) and the scalar reference loop (which walks the
  same window one iteration at a time) flush **identical** spans.  This is
  what keeps the scalar/vectorized trace-equivalence test honest.
* **Record each fact once.**  The engine state's queue-depth timeline
  *is* the scope's ``queue_signal`` list (bound once at
  ``ServingEngine.begin``), and its ``preemption_log`` is a plain list
  beside the ``serving.preempt`` events; nothing is derived or copied.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["ScopedRecorder", "TraceEvent", "TraceRecorder"]


class TraceEvent:
    """One typed record: an instant (``dur_s is None``) or a span."""

    __slots__ = ("name", "ts_s", "dur_s", "request_id", "args")

    def __init__(
        self,
        name: str,
        ts_s: float,
        *,
        dur_s: Optional[float] = None,
        request_id: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.ts_s = ts_s
        self.dur_s = dur_s
        self.request_id = request_id
        self.args = args

    @property
    def end_s(self) -> float:
        return self.ts_s if self.dur_s is None else self.ts_s + self.dur_s

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"name": self.name, "ts_s": self.ts_s}
        if self.dur_s is not None:
            record["dur_s"] = self.dur_s
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.args:
            record["args"] = self.args
        return record

    def _key(self) -> Tuple:
        args = self.args or {}
        return (self.name, self.ts_s, self.dur_s, self.request_id,
                tuple(sorted(args.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = "" if self.dur_s is None else f", dur={self.dur_s:.6g}s"
        rid = "" if self.request_id is None else f", request={self.request_id}"
        return f"TraceEvent({self.name!r}, t={self.ts_s:.6g}s{dur}{rid})"


class ScopedRecorder:
    """Event sink for one engine run (one replica, or the control plane).

    Scopes are single-writer: every replica's engine (and the control
    plane) records into its own scope, so no recording path needs a lock.

    ``now_s`` mirrors the owning engine's clock so passive emitters that
    don't carry timestamps of their own (the KV allocator) can stamp their
    events; the engine updates it only while tracing is on.
    """

    __slots__ = ("session", "name", "pid", "events", "queue_signal",
                 "now_s", "_open_window")

    def __init__(self, session: "TraceRecorder", name: str, pid: int) -> None:
        self.session = session
        self.name = name
        self.pid = pid
        self.events: List[TraceEvent] = []
        #: ``(ts_s, queued, running)`` samples: the traced engine state's
        #: ``queue_depth_timeline`` is this very list.
        self.queue_signal: List[Tuple[float, int, int]] = []
        self.now_s = 0.0
        # Open coalescing window: [kind, key, start_s, end_s, steps, tokens].
        self._open_window: Optional[list] = None

    # ------------------------------------------------------------------ emit

    def event(
        self,
        name: str,
        ts_s: float,
        request_id: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record an instant event."""
        self.events.append(TraceEvent(name, ts_s, request_id=request_id,
                                      args=args or None))

    def span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        request_id: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record a completed span."""
        self.events.append(TraceEvent(name, start_s, dur_s=end_s - start_s,
                                      request_id=request_id,
                                      args=args or None))

    # ------------------------------------------------------ window coalescing

    def window_step(
        self,
        kind: str,
        key: Tuple,
        start_s: float,
        end_s: float,
        steps: int,
        tokens: int,
    ) -> None:
        """Merge one engine iteration (or a fast-forwarded window of
        ``steps`` iterations) into the open window span.

        Consecutive calls merge iff the kind and batch ``key`` match and the
        clock is contiguous (``start_s`` equals the open window's end,
        float-exactly); anything else flushes the open window as one
        ``engine.<kind>_window`` span and opens a new one.  The scalar loop
        calls this once per iteration, the fast-forward once per closed-form
        window — both collapse to the same final spans.
        """
        window = self._open_window
        if (window is not None and window[0] == kind and window[1] == key
                and window[3] == start_s):
            window[3] = end_s
            window[4] += steps
            window[5] += tokens
            return
        if window is not None:
            self._flush_window()
        self._open_window = [kind, key, start_s, end_s, steps, tokens]

    def _flush_window(self) -> None:
        kind, key, start_s, end_s, steps, tokens = self._open_window
        self._open_window = None
        decode_ids, prefill_ids = key
        args: Dict[str, Any] = {"steps": steps}
        if decode_ids:
            args["decode_batch"] = decode_ids
        if prefill_ids:
            args["prefill_batch"] = prefill_ids
            args["prefill_tokens"] = tokens
        self.events.append(TraceEvent(f"engine.{kind}_window", start_s,
                                      dur_s=end_s - start_s, args=args))

    def flush(self) -> None:
        """Flush the open window span, if any (end of run / export time)."""
        if self._open_window is not None:
            self._flush_window()


class TraceRecorder:
    """Root telemetry session: scopes plus the metrics registry.

    Pass one as ``telemetry=`` to :meth:`ServingEngine.simulate` /
    :meth:`ClusterEngine.run`; subsystems create scopes off it and the
    exporters consume it whole.
    """

    def __init__(self) -> None:
        from repro.telemetry.metrics import MetricsRegistry

        self.scopes: List[ScopedRecorder] = []
        self.metrics = MetricsRegistry()

    def scope(self, name: str) -> ScopedRecorder:
        """Create (and register) a new event scope — a Perfetto process."""
        scope = ScopedRecorder(self, name, pid=len(self.scopes) + 1)
        self.scopes.append(scope)
        return scope

    def finalize(self) -> None:
        """Flush every scope's open window span (idempotent)."""
        for scope in self.scopes:
            scope.flush()

    def iter_events(self) -> Iterator[Tuple[ScopedRecorder, TraceEvent]]:
        """All events, time-ordered (ties broken by pid, then emit order)."""
        self.finalize()
        flat = [(event.ts_s, scope.pid, seq, scope, event)
                for scope in self.scopes
                for seq, event in enumerate(scope.events)]
        flat.sort(key=lambda item: item[:3])
        for _, _, _, scope, event in flat:
            yield scope, event
