"""Multi-tenant cluster serving: shard one CXL-PIM pool across tenants.

The paper sizes the pool for a single model; a production deployment runs
several models and traffic classes on it at once.  This package adds that
layer without touching the serving engine's iteration loop:

* :class:`TenantSpec` / :class:`SlaClass` — one consumer of the pool: a
  model, a timed trace, an SLA class and a priority;
* :class:`ClusterPlacer` — partitions the pool's devices into one replica
  per tenant under ``static`` / ``proportional`` / ``sla_aware`` policies,
  reusing the mapping layer's plans and capacity validation per replica
  (data parallelism inside a share is the plan's own ``dp_replicas``);
* :class:`ClusterScheduler` — sends each arriving request to its tenant's
  replica, one routing window at a time;
* :class:`ClusterEngine` — drives one unmodified
  :class:`~repro.serving.ServingEngine` per replica and folds the outcomes
  into a :class:`~repro.core.results.ClusterResult`;
* :class:`ClusterControlLoop` / :class:`ControlConfig` — the one executor:
  the open loop is a single unbounded window, the closed loop re-places
  tenants on observed demand at epoch boundaries and live-migrates the
  in-flight work of dismantled replicas.

Quickstart (see ``examples/multi_tenant_serving.py``)::

    from repro import CentConfig, CentSystem, LLAMA2_7B, SlaClass, TenantSpec
    from repro.workloads import poisson_arrivals, sharegpt_like_queries, with_arrivals

    chat = TenantSpec("chat", sla_class=SlaClass.INTERACTIVE,
                      trace=with_arrivals(sharegpt_like_queries(120),
                                          poisson_arrivals(120, rate_qps=2.0)))
    batch = TenantSpec("batch", sla_class=SlaClass.BATCH,
                       trace=with_arrivals(sharegpt_like_queries(30, seed=7),
                                           poisson_arrivals(30, rate_qps=0.3)))
    system = CentSystem(CentConfig(num_devices=16), LLAMA2_7B)
    result = system.serve_cluster([chat, batch], placement_policy="sla_aware")
    print(result.aggregate_goodput_tokens_per_s, result.max_min_goodput_ratio)
"""

from repro.cluster.control import (
    MIGRATION_MODES,
    REBALANCE_MODES,
    ClusterControlLoop,
    ControlConfig,
    RebalanceDecision,
    RebalancePolicy,
    weight_reload_time_s,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.placement import (
    PLACEMENT_POLICIES,
    ClusterPlacement,
    ClusterPlacer,
    ReplicaSpec,
    min_feasible_devices,
)
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.tenant import DEFAULT_SLA_LATENCY_S, SlaClass, TenantSpec
from repro.core.results import ClusterResult

__all__ = [
    "TenantSpec",
    "SlaClass",
    "DEFAULT_SLA_LATENCY_S",
    "ClusterPlacer",
    "ClusterPlacement",
    "ReplicaSpec",
    "min_feasible_devices",
    "PLACEMENT_POLICIES",
    "ClusterScheduler",
    "ClusterEngine",
    "ClusterResult",
    "MIGRATION_MODES",
    "REBALANCE_MODES",
    "ControlConfig",
    "RebalanceDecision",
    "RebalancePolicy",
    "ClusterControlLoop",
    "weight_reload_time_s",
]
