"""Event-driven serving: request lifecycles, continuous batching, metrics.

This package turns the closed-form batch simulator into a trace-driven
serving system:

* :class:`ServingEngine` — discrete-event loop with request arrivals,
  KV-capacity-aware admission and vLLM-style continuous batching
  (prefill/decode interleaving); :meth:`ServingEngine.simulate` exposes the
  raw per-request outcome (:class:`EngineRun`) that ``repro.cluster``
  re-aggregates per tenant;
* :class:`ServingRequest` / :class:`RequestState` — per-request lifecycle
  and measured timestamps (TTFT, TBT samples, query latency);
* :func:`aggregate_serving_result` — folds a finished run into the
  :class:`~repro.core.results.ServingResult` percentile report.

The arrival processes live in ``repro.workloads.queries`` and the per-
iteration pricing in ``repro.core.iteration``.
"""

from repro.core.results import LatencyStats, ServingResult, percentile
from repro.serving.engine import (
    ADMISSION_MODES,
    EngineRun,
    EngineState,
    KvMigration,
    ServingEngine,
)
from repro.serving.metrics import (
    aggregate_serving_result,
    merge_queue_depth_timelines,
    window_decode_tokens,
    window_mean_queue_depth,
)
from repro.serving.request import RequestState, ServingRequest

__all__ = [
    "ADMISSION_MODES",
    "EngineRun",
    "EngineState",
    "KvMigration",
    "ServingEngine",
    "ServingRequest",
    "RequestState",
    "ServingResult",
    "LatencyStats",
    "percentile",
    "aggregate_serving_result",
    "merge_queue_depth_timelines",
    "window_decode_tokens",
    "window_mean_queue_depth",
]
