"""Overload study: full-context reservation vs paged KV with preemption.

The serving engine's legacy ``admission="reserve"`` path reserves KV bytes
for a request's *entire future context* at admission, so a memory-tight
deployment runs far below its slot count and queues (or refuses) traffic
the device pool could actually serve.  ``admission="paged"``
(``repro.kvstore``) admits on the current context and evicts victims when
the block pool runs dry — the vLLM recipe.  This study puts both on the
same overloaded trace and the same memory-constrained deployment and
reports what preemption buys (SLA goodput, latency percentiles) and what
it costs (evictions, swap traffic, recompute work, stall time).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import CentConfig
from repro.core.results import ServingResult
from repro.core.system import CentSystem
from repro.kvstore.preemption import RESTORE_MODES
from repro.models.config import LLAMA2_7B, ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving.engine import ServingEngine
from repro.workloads.queries import (
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)

__all__ = ["overload_preemption_study"]


def _row(mode: str, result: ServingResult) -> Dict[str, object]:
    return {
        "mode": mode,
        "completed": result.num_completed,
        "rejected": result.num_rejected,
        "goodput_tokens_per_s": result.goodput_tokens_per_s,
        "throughput_tokens_per_s": result.throughput_tokens_per_s,
        "ttft_p99_s": result.ttft.p99_s,
        "query_latency_p99_s": result.query_latency.p99_s,
        "sla_violation_fraction": result.sla_violation_fraction,
        "num_preemptions": result.num_preemptions,
        "swap_time_s": result.swap_time_s,
        "recompute_tokens": result.recompute_tokens,
        "preemption_stall_time_s": result.preemption_stall_time_s,
        "peak_queue_depth": result.peak_queue_depth,
        "mean_queue_depth": result.mean_queue_depth,
    }


def overload_preemption_study(
    model: ModelConfig = LLAMA2_7B,
    num_devices: int = 8,
    num_queries: int = 96,
    overload: float = 2.5,
    kv_capacity_queries: float = 2.5,
    sla_latency_s: Optional[float] = None,
    restores: Sequence[str] = RESTORE_MODES,
    seed: int = 2025,
    context_samples: int = 3,
    context_step: int = 512,
) -> Dict[str, object]:
    """Reservation vs paged-with-preemption admission under overload.

    The deployment's memory capacity is clamped to the model weights plus
    ``kv_capacity_queries`` worst-case KV caches of the trace, so the
    reserve path can hold only a couple of requests in flight; the Poisson
    arrival rate is ``overload`` times the *constrained* engine's estimated
    capacity, so the backlog grows for the whole run.  ``sla_latency_s``
    defaults to 1.5x the p99 query latency of a lightly loaded (0.25x
    capacity) reference run of the same constrained deployment — the
    latency a provisioned operator would promise — and every admission
    mode is judged against it on the identical trace.

    Returns the per-mode rows plus the derived operating point and the
    best mode by SLA goodput.
    """
    if overload <= 0:
        raise ValueError("overload must be positive")
    if kv_capacity_queries <= 0:
        raise ValueError("kv_capacity_queries must be positive")

    config = CentConfig(num_devices=num_devices, context_samples=context_samples)
    system = CentSystem(config, model)
    profile = ModelMemoryProfile(model)
    queries = sharegpt_like_queries(num_queries, seed=seed)
    longest = max(q.total_context for q in queries)
    capacity = int(profile.parameter_bytes
                   + kv_capacity_queries * profile.kv_cache_bytes_per_query(longest))

    reserve = ServingEngine(system, memory_capacity_bytes=capacity,
                            context_step=context_step)
    capacity_qps = reserve.estimated_capacity_qps(queries)
    rate_qps = overload * capacity_qps
    trace = with_arrivals(queries,
                          poisson_arrivals(num_queries, rate_qps, seed=seed))

    if sla_latency_s is None:
        reference = reserve.run(with_arrivals(
            queries,
            poisson_arrivals(num_queries, 0.25 * capacity_qps, seed=seed),
        ))
        sla_latency_s = 1.5 * reference.query_latency.p99_s

    rows: List[Dict[str, object]] = [
        _row("reserve", reserve.run(trace, sla_latency_s=sla_latency_s))
    ]
    for restore in restores:
        engine = ServingEngine(
            system,
            memory_capacity_bytes=capacity,
            context_step=context_step,
            admission="paged",
            preemption_restore=restore,
        )
        result = engine.run(trace, sla_latency_s=sla_latency_s)
        # Victims are always LRU; the label keeps naming the victim order
        # so benchmark keys stay comparable across versions.
        rows.append(_row(f"paged[lru,{restore}]", result))

    best = max(rows, key=lambda r: r["goodput_tokens_per_s"])
    return {
        "rows": rows,
        "rate_qps": rate_qps,
        "sla_latency_s": sla_latency_s,
        "memory_capacity_bytes": capacity,
        "best_mode": best["mode"],
    }
