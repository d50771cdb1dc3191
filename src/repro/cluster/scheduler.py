"""Routing arriving requests onto the placed replicas.

Every replica serves exactly one tenant, so routing is a lookup: each
request of the merged arrival stream goes to its tenant's replica.  The
cluster control loop (``repro.cluster.control``) routes through
:meth:`ClusterScheduler.route_window` once per window — the open loop's
single window covers the whole trace, the closed loop's windows are its
epochs.  Parallelism inside a tenant's share is the mapping plan's own
data parallelism (``dp_replicas``), not a routing choice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cluster.placement import ClusterPlacement
from repro.cluster.tenant import TenantSpec
from repro.workloads.queries import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.recorder import ScopedRecorder

__all__ = ["ClusterScheduler"]


class ClusterScheduler:
    """Maps each tenant's requests onto that tenant's replica."""

    def route_window(
        self,
        tenants: Sequence[TenantSpec],
        placement: ClusterPlacement,
        *,
        stream: Sequence[Tuple[Query, str]],
        window_start_s: float = 0.0,
        recorder: Optional["ScopedRecorder"] = None,
    ) -> Dict[int, List[Query]]:
        """Route one window of the arrival stream.

        ``stream`` is the window's ``(query, tenant name)`` pairs in arrival
        order.  Returns, per replica id in placement order, the queries
        routed to it in arrival order.  A ``recorder``
        (``repro.telemetry.ScopedRecorder``) gets one
        ``cluster.route_window`` summary event per non-empty window.
        """
        replica_of = {spec.tenant_name: spec.replica_id
                      for spec in placement.replicas}
        for tenant in tenants:
            if tenant.name not in replica_of:
                raise ValueError(
                    f"no replica serves tenant {tenant.name!r}: the placement "
                    "dropped it; refusing to route its requests silently"
                )
        assignments: Dict[int, List[Query]] = {
            spec.replica_id: [] for spec in placement.replicas}
        routed_tokens = 0
        for query, name in stream:
            assignments[replica_of[name]].append(query)
            routed_tokens += query.total_context
        if recorder is not None and stream:
            recorder.event("cluster.route_window", window_start_s,
                           routed=len(stream), routed_tokens=routed_tokens)
        return assignments
