"""Routing arriving requests onto the placed replicas.

``ClusterScheduler`` walks a merged arrival stream (in arrival order, as a
front-end router would see it) and decides, per request, which of the
tenant's replicas serves it — or rejects it at the tenant's admission cap.
Three policies:

* ``round_robin`` — cycle through the tenant's replicas; the stateless
  baseline;
* ``least_outstanding`` — send the request to the replica with the least
  outstanding (predicted-unfinished) work at its arrival instant;
* ``sla_deadline`` — prefer replicas whose predicted completion meets the
  request's deadline (arrival + the tenant's SLO), falling back to the
  earliest predicted completion when none can.

The router's view of replica load is a backlog model — each replica drains
routed work at its estimated token rate — because a front-end cannot observe
the engine's internal batch state.  The cluster control loop
(``repro.cluster.control``) routes through :meth:`route_window`.  The open
loop is one window over the whole trace, so the model runs uncorrected and
routing mistakes show up in the measured per-tenant latencies.  The closed
loop instead routes one epoch at a time, carrying :class:`RouterState`
across windows and re-anchoring the model at every epoch boundary to each
replica's *measured* backlog and token rate (:class:`ReplicaFeedback`,
distilled from the engine's ``queue_depth_timeline`` and per-epoch
goodput) — so ``least_outstanding`` and ``sla_deadline`` track reality
under bursty arrivals instead of compounding the initial estimate's error.
:meth:`route` is the one-window pass as a standalone call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.placement import ClusterPlacement, ReplicaSpec
from repro.cluster.tenant import TenantSpec
from repro.workloads.queries import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.recorder import ScopedRecorder

__all__ = [
    "ROUTING_POLICIES",
    "TenantAccounting",
    "RoutingPlan",
    "RouterState",
    "ReplicaFeedback",
    "ClusterScheduler",
]

ROUTING_POLICIES = ("round_robin", "least_outstanding", "sla_deadline")

#: Estimated service seconds of one query on one replica.
ServiceEstimator = Callable[[ReplicaSpec, Query], float]


@dataclass
class TenantAccounting:
    """Fairness bookkeeping of one tenant across the routing pass."""

    offered: int = 0
    routed: int = 0
    rejected: int = 0
    routed_tokens: int = 0

    @property
    def admitted_fraction(self) -> float:
        return self.routed / self.offered if self.offered else 0.0


@dataclass
class RoutingPlan:
    """Outcome of one routing pass over the merged arrival stream."""

    policy: str
    #: Per replica id: the routed (tenant name, query) pairs in arrival order.
    assignments: Dict[int, List[Tuple[str, Query]]] = field(default_factory=dict)
    #: Per tenant: queries refused at the admission cap.
    rejected: Dict[str, List[Query]] = field(default_factory=dict)
    accounting: Dict[str, TenantAccounting] = field(default_factory=dict)

    def trace_for(self, replica_id: int) -> List[Query]:
        return [query for _, query in self.assignments.get(replica_id, [])]


@dataclass
class RouterState:
    """Router model carried across routing windows of one closed-loop run.

    ``ready_s`` is the predicted instant each replica's routed backlog
    drains; ``outstanding`` the per-tenant min-heaps of predicted finish
    times behind the admission caps; ``robin_pos`` each tenant's round-robin
    cursor.  :meth:`ClusterScheduler.route` builds a fresh one per call.
    """

    ready_s: Dict[int, float] = field(default_factory=dict)
    outstanding: Dict[str, List[float]] = field(default_factory=dict)
    robin_pos: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ReplicaFeedback:
    """Measured state of one replica at an epoch boundary.

    Distilled by the control loop from the engine's measured signals: the
    tail of the per-iteration ``queue_depth_timeline`` (``queued`` /
    ``running``), the work still owed (``outstanding_tokens``), and the
    token rate the replica actually sustained over the last epoch
    (``observed_tokens_per_s``; ``estimated_tokens_per_s`` is the a-priori
    capability fallback for replicas that have not run yet).
    """

    queued: int = 0
    running: int = 0
    outstanding_tokens: float = 0.0
    observed_tokens_per_s: float = 0.0
    estimated_tokens_per_s: float = 0.0
    #: Extra seconds before the replica can serve at all (a replica rebuilt
    #: by a re-placement is still reloading weights at the window start).
    extra_delay_s: float = 0.0

    def drain_s(self) -> float:
        """Predicted seconds to drain the measured backlog."""
        rate = self.observed_tokens_per_s or self.estimated_tokens_per_s
        if self.outstanding_tokens <= 0:
            return self.extra_delay_s
        if rate <= 0:
            # No progress and no estimate: the backlog is effectively stuck;
            # an arbitrarily large drain keeps the replica at the bottom of
            # every least-loaded ranking without poisoning the arithmetic.
            return float("inf")
        return self.extra_delay_s + self.outstanding_tokens / rate


class ClusterScheduler:
    """Routes each tenant's requests across that tenant's replicas."""

    def __init__(self, policy: str = "least_outstanding") -> None:
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; expected one of "
                f"{ROUTING_POLICIES}"
            )
        self.policy = policy

    def route(
        self,
        tenants: Sequence[TenantSpec],
        placement: ClusterPlacement,
        service_estimator: ServiceEstimator,
        *,
        recorder: Optional["ScopedRecorder"] = None,
    ) -> RoutingPlan:
        """Assign every request of every tenant to one replica (or reject).

        One pass over the whole merged arrival stream (stable-sorted by
        arrival, so ties keep tenant then trace order) against the
        uncorrected backlog model — the open loop's routing.
        """
        stream = sorted(
            ((query, tenant.name) for tenant in tenants for query in tenant.trace),
            key=lambda item: item[0].arrival_time_s,
        )
        return self.route_window(tenants, placement, service_estimator,
                                 stream=stream, state=RouterState(),
                                 recorder=recorder)

    def route_window(
        self,
        tenants: Sequence[TenantSpec],
        placement: ClusterPlacement,
        service_estimator: ServiceEstimator,
        *,
        stream: Sequence[Tuple[Query, str]],
        state: RouterState,
        feedback: Optional[Dict[int, ReplicaFeedback]] = None,
        window_start_s: float = 0.0,
        recorder: Optional["ScopedRecorder"] = None,
    ) -> RoutingPlan:
        """Route one window of the arrival stream, carrying router state.

        ``stream`` is the window's ``(query, tenant name)`` pairs in arrival
        order; ``state`` carries the backlog model, admission heaps and
        round-robin cursors from previous windows.  When ``feedback`` is
        given, each covered replica's predicted drain time is re-anchored to
        its *measured* backlog before routing — the closed-loop correction —
        instead of whatever the open-loop model had accumulated.  A
        ``recorder`` (``repro.telemetry.ScopedRecorder``) gets one
        ``cluster.route_window`` summary event per non-empty window.
        """
        plan = RoutingPlan(policy=self.policy)
        for replica in placement.replicas:
            plan.assignments[replica.replica_id] = []
            state.ready_s.setdefault(replica.replica_id, 0.0)
        offered = {t.name: 0 for t in tenants}
        for _, name in stream:
            offered[name] += 1
        for tenant in tenants:
            plan.rejected[tenant.name] = []
            plan.accounting[tenant.name] = TenantAccounting(offered=offered[tenant.name])
            state.outstanding.setdefault(tenant.name, [])
            state.robin_pos.setdefault(tenant.name, 0)

        if feedback:
            for replica_id, observed in feedback.items():
                if replica_id in state.ready_s:
                    state.ready_s[replica_id] = (
                        window_start_s + observed.drain_s())

        by_name = {t.name: t for t in tenants}
        candidates: Dict[str, List[ReplicaSpec]] = {}
        for tenant in tenants:
            replicas = [r for r in placement.replicas
                        if tenant.name in r.tenant_names]
            if not replicas:
                raise ValueError(
                    f"no replica serves tenant {tenant.name!r}: its allotment "
                    "was trimmed to nothing (capability probes found no "
                    "feasible count) or the placement dropped it; refusing to "
                    "route its requests silently"
                )
            candidates[tenant.name] = replicas

        for query, name in stream:
            tenant = by_name[name]
            arrival = query.arrival_time_s
            heap = state.outstanding[name]
            while heap and heap[0] <= arrival:
                heapq.heappop(heap)
            if tenant.max_outstanding is not None and len(heap) >= tenant.max_outstanding:
                plan.rejected[name].append(query)
                plan.accounting[name].rejected += 1
                continue

            replica = self._choose(tenant, query, candidates[name], state,
                                   service_estimator)
            finish = (max(state.ready_s[replica.replica_id], arrival)
                      + service_estimator(replica, query))
            state.ready_s[replica.replica_id] = finish
            heapq.heappush(heap, finish)
            plan.assignments[replica.replica_id].append((name, query))
            plan.accounting[name].routed += 1
            plan.accounting[name].routed_tokens += query.total_context
        if recorder is not None and stream:
            accounts = plan.accounting.values()
            recorder.event(
                "cluster.route_window", window_start_s,
                policy=self.policy,
                offered=sum(a.offered for a in accounts),
                routed=sum(a.routed for a in accounts),
                rejected=sum(a.rejected for a in accounts),
                routed_tokens=sum(a.routed_tokens for a in accounts))
        return plan

    # ------------------------------------------------------------------ policies

    def _choose(
        self,
        tenant: TenantSpec,
        query: Query,
        replicas: List[ReplicaSpec],
        state: RouterState,
        service_estimator: ServiceEstimator,
    ) -> ReplicaSpec:
        if len(replicas) == 1:
            return replicas[0]
        if self.policy == "round_robin":
            position = state.robin_pos[tenant.name]
            state.robin_pos[tenant.name] = position + 1
            return replicas[position % len(replicas)]
        arrival = query.arrival_time_s
        ready_s = state.ready_s

        def backlog(replica: ReplicaSpec) -> float:
            return max(0.0, ready_s[replica.replica_id] - arrival)

        if self.policy == "least_outstanding":
            return min(replicas, key=lambda r: (backlog(r), r.replica_id))

        # sla_deadline: among replicas predicted to meet the deadline pick
        # the least loaded; otherwise minimise the predicted completion.
        deadline = arrival + tenant.latency_slo_s
        finish = {
            r.replica_id: max(ready_s[r.replica_id], arrival) + service_estimator(r, query)
            for r in replicas
        }
        meeting = [r for r in replicas if finish[r.replica_id] <= deadline]
        if meeting:
            return min(meeting, key=lambda r: (backlog(r), r.replica_id))
        return min(replicas, key=lambda r: (finish[r.replica_id], r.replica_id))
