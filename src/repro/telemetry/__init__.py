"""Unified telemetry: request-lifecycle tracing, metrics, trace export.

Quickstart::

    from repro.telemetry import TraceRecorder, write_perfetto, write_jsonl

    recorder = TraceRecorder()
    run = engine.simulate(trace, telemetry=recorder)
    write_perfetto(recorder, "trace.json")    # chrome://tracing / Perfetto
    write_jsonl(recorder, "trace.jsonl")      # python -m repro.telemetry

The same ``telemetry=`` keyword threads through
:meth:`ClusterEngine.run`, where every replica (and the control plane)
records into its own scope — replicas render as processes in the
Perfetto UI, requests as tracks.

The analysis layer answers questions over what was recorded:
:func:`attribute_run` decomposes exact simulated time (per-request
latency segments, per-replica busy/idle) with a hard conservation
invariant, :class:`SloMonitor` evaluates windowed health rules over the
per-epoch metrics timeline, and :func:`write_report` renders everything
into one self-contained HTML artifact.
"""

from repro.telemetry.attribution import (
    ConservationError,
    RunAttribution,
    TraceAttribution,
    attribute_run,
    attribute_trace,
    attribution_table,
    utilization_summary,
    verify_conservation,
)
from repro.telemetry.export import (
    perfetto_trace,
    read_jsonl,
    write_jsonl,
    write_perfetto,
)
from repro.telemetry.metrics import MetricsRegistry, MetricsSnapshot
from repro.telemetry.recorder import ScopedRecorder, TraceEvent, TraceRecorder
from repro.telemetry.report import render_report, write_report
from repro.telemetry.slo import (
    Alert,
    AlertLog,
    SloMonitor,
    SloRule,
    default_rules,
    snapshots_from_trace,
)
from repro.telemetry.summary import (
    epoch_audit,
    overview,
    preemption_chains,
    request_timeline,
)

__all__ = [
    "Alert",
    "AlertLog",
    "ConservationError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RunAttribution",
    "ScopedRecorder",
    "SloMonitor",
    "SloRule",
    "TraceAttribution",
    "TraceEvent",
    "TraceRecorder",
    "attribute_run",
    "attribute_trace",
    "attribution_table",
    "default_rules",
    "epoch_audit",
    "overview",
    "perfetto_trace",
    "preemption_chains",
    "read_jsonl",
    "render_report",
    "request_timeline",
    "snapshots_from_trace",
    "utilization_summary",
    "verify_conservation",
    "write_jsonl",
    "write_perfetto",
    "write_report",
]
