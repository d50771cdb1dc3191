"""Multi-tenant placement-policy study on one shared device pool.

The cluster analogue of the serving-mode QoS studies: an asymmetric tenant
mix — a heavy interactive *chat* tenant and a light offline *batch* tenant
— shares one pool, and every placement policy serves the identical traces.
The offered chat rate is deliberately set **above** the capacity of a naive
half-pool share, so the study exposes the regime the sRSP line of work
identifies: with asymmetric demand, placement policy (not raw block cost)
determines aggregate SLA goodput.  Demand-aware policies give the chat
tenant the devices its traffic needs and beat the static partition; the
fairness columns show what that costs the batch tenant (nothing, while the
batch SLO stays loose).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.engine import ClusterEngine
from repro.cluster.placement import PLACEMENT_POLICIES
from repro.cluster.tenant import SlaClass, TenantSpec
from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.models.config import LLAMA2_7B, ModelConfig
from repro.serving.engine import ServingEngine
from repro.workloads.queries import poisson_arrivals, sharegpt_like_queries, with_arrivals

__all__ = ["multi_tenant_policy_study"]


def multi_tenant_policy_study(
    model: ModelConfig = LLAMA2_7B,
    num_devices: int = 8,
    chat_queries: int = 120,
    batch_queries: int = 10,
    chat_load: float = 4.5,
    chat_sla_s: Optional[float] = None,
    batch_rate_qps: float = 1.0,
    batch_sla_s: float = 600.0,
    policies: Sequence[str] = PLACEMENT_POLICIES,
    seed: int = 2025,
    context_samples: int = 3,
    context_step: int = 512,
) -> Dict[str, object]:
    """Sweep placement policies over an asymmetric two-tenant mix.

    The chat tenant's Poisson rate is ``chat_load`` times the estimated
    capacity of a *static half-pool share*, sized to overload the static
    partition while leaving demand-aware policies room to serve it (the
    engine's capacity estimate is deliberately conservative — prefills
    serialise — so the default multiplier sits well above 1).  ``chat_sla_s=None`` calibrates the chat SLO
    as 1.5x the p99 query latency of a lightly loaded (0.25x capacity)
    half-pool reference run, i.e. "what a provisioned deployment delivers,
    with slack"; an overloaded share blows past it because its queueing
    delay grows with every arrival, while an adequately sized share stays
    near the reference latency.

    Returns the per-policy rows plus the derived operating point and the
    best policy by aggregate goodput.
    """
    if chat_load <= 0:
        raise ValueError("chat_load must be positive")
    if num_devices < 2:
        raise ValueError("the pool needs at least two devices for two tenants")

    config = CentConfig(num_devices=num_devices, context_samples=context_samples)
    chat_trace = sharegpt_like_queries(chat_queries, seed=seed)
    batch_trace = sharegpt_like_queries(batch_queries, seed=seed + 1)

    # The naive operator's deployment: the chat tenant on half the pool.
    half_pool = CentSystem(config.scaled(num_devices // 2), model)
    half_engine = ServingEngine(half_pool, context_step=context_step)
    half_capacity_qps = half_engine.estimated_capacity_qps(chat_trace)
    chat_rate_qps = chat_load * half_capacity_qps

    if chat_sla_s is None:
        reference = half_engine.run(with_arrivals(
            chat_trace,
            poisson_arrivals(chat_queries, 0.25 * half_capacity_qps, seed=seed),
        ))
        chat_sla_s = 1.5 * reference.query_latency.p99_s

    chat = TenantSpec(
        "chat",
        trace=with_arrivals(chat_trace,
                            poisson_arrivals(chat_queries, chat_rate_qps, seed=seed)),
        sla_class=SlaClass.INTERACTIVE,
        sla_latency_s=chat_sla_s,
        priority=2.0,
    )
    batch = TenantSpec(
        "batch",
        trace=with_arrivals(batch_trace,
                            poisson_arrivals(batch_queries, batch_rate_qps, seed=seed + 1)),
        sla_class=SlaClass.BATCH,
        sla_latency_s=batch_sla_s,
    )
    # One engine for the whole sweep: the feasibility floors and capability
    # probes behind placement are policy-independent, so the per-policy
    # runs share them through the engine's caches.
    engine = ClusterEngine(
        config,
        [chat, batch],
        default_model=model,
        context_step=context_step,
    )

    rows: List[Dict[str, object]] = []
    for policy in policies:
        result = engine.run(placement_policy=policy)
        fractions = result.tenant_goodput_fractions
        rows.append({
            "policy": policy,
            "chat_devices": result.tenant_devices["chat"],
            "batch_devices": result.tenant_devices["batch"],
            "aggregate_goodput_tokens_per_s": result.aggregate_goodput_tokens_per_s,
            "aggregate_throughput_tokens_per_s": result.aggregate_throughput_tokens_per_s,
            "chat_goodput_fraction": fractions["chat"],
            "batch_goodput_fraction": fractions["batch"],
            "chat_p99_latency_s": result.tenant_results["chat"].query_latency.p99_s,
            "max_min_goodput_ratio": result.max_min_goodput_ratio,
            "jain_fairness_index": result.jain_fairness_index,
            "pool_utilization": result.pool_utilization,
        })

    best = max(rows, key=lambda r: r["aggregate_goodput_tokens_per_s"])
    return {
        "rows": rows,
        "chat_rate_qps": chat_rate_qps,
        "chat_sla_s": chat_sla_s,
        "best_policy": best["policy"],
    }
