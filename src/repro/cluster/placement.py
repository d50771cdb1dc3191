"""Partitioning one CXL-PIM device pool into per-tenant serving replicas.

``ClusterPlacer`` carves the pool's devices into one replica per tenant,
one serving engine each, reusing the existing mapping layer: every replica
gets a contiguous device range, and the plan each replica runs is the same
throughput plan (with its per-block device map and capacity validation from
``repro.mapping``) a standalone deployment of that size would choose.  Data
parallelism inside a tenant's share is the plan's own (``dp_replicas``).

Three policies cover the interesting regimes of asymmetric sharing:

* ``static`` — demand-blind equal split: every tenant gets its model's
  feasibility floor plus an equal share of the spare devices (for
  same-model tenants this is an even split; heterogeneous models skew it
  by their floors), the baseline a naive operator would configure;
* ``proportional`` — devices proportional to each tenant's offered token
  demand, the classic work-conserving heuristic;
* ``sla_aware`` — proportional demand additionally weighted by priority and
  SLO tightness, so interactive tenants get headroom ahead of batch ones.

Every policy first reserves each tenant's *feasibility floor* (the smallest
device count on which its model places at all) and then apportions the
remaining devices by policy weight with largest-remainder rounding, so no
device of the pool is wasted and no tenant is starved below feasibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.tenant import TenantSpec
from repro.mapping.planner import plan_for_throughput
from repro.models.config import ModelConfig

__all__ = [
    "PLACEMENT_POLICIES",
    "ReplicaSpec",
    "ClusterPlacement",
    "ClusterPlacer",
    "min_feasible_devices",
]

PLACEMENT_POLICIES = ("static", "proportional", "sla_aware")


#: Upper bound of the feasibility-floor search; models needing more devices
#: than this are treated as unplaceable regardless of the pool size.
_FLOOR_SEARCH_LIMIT = 1024


@functools.lru_cache(maxsize=256)
def _feasibility_floor(
    model: ModelConfig,
    channels_per_device: int,
    context_length: Optional[int],
) -> Optional[int]:
    for devices in range(1, _FLOOR_SEARCH_LIMIT + 1):
        try:
            plan_for_throughput(model, devices,
                                channels_per_device=channels_per_device,
                                context_length=context_length)
            return devices
        except MemoryError:
            continue
    return None


def min_feasible_devices(
    model: ModelConfig,
    pool_devices: int,
    channels_per_device: int = 32,
    context_length: Optional[int] = None,
) -> int:
    """Smallest device count on which ``model`` places (throughput plan).

    Feasibility is monotone in the device count (more devices means fewer
    blocks, hence more channels and capacity, per device), so the first
    count that validates is the floor.  The search is memoised on the
    pool-independent inputs (all frozen dataclasses), so sweeps over
    policies or pool sizes pay the plan search once per tenant model.
    """
    floor = _feasibility_floor(model, channels_per_device, context_length)
    if floor is None or floor > pool_devices:
        raise MemoryError(
            f"{model.name} does not fit even on all {pool_devices} devices of the pool"
        )
    return floor


@dataclass(frozen=True)
class ReplicaSpec:
    """One serving replica: a device range and the tenant it serves."""

    replica_id: int
    tenant_name: str
    model: ModelConfig
    num_devices: int
    first_device: int

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError("a replica needs at least one device")

    @property
    def device_range(self) -> Tuple[int, int]:
        """Half-open ``[first, last)`` device interval of this replica."""
        return (self.first_device, self.first_device + self.num_devices)


@dataclass(frozen=True)
class ClusterPlacement:
    """The pool partition a :class:`ClusterPlacer` produced."""

    policy: str
    pool_devices: int
    replicas: Tuple[ReplicaSpec, ...]
    tenant_devices: Dict[str, int]

    @property
    def devices_used(self) -> int:
        return sum(r.num_devices for r in self.replicas)


class ClusterPlacer:
    """Partitions the pool's devices into one replica per tenant.

    Parameters
    ----------
    policy:
        One of :data:`PLACEMENT_POLICIES`.
    channels_per_device:
        PIM channels per device, forwarded to the planner.
    capability:
        Optional estimator ``capability(tenant, devices) -> rate`` of how
        much traffic the tenant could sustain on ``devices`` devices.
        Serving capability is **not monotone** in the device count (the
        throughput planner may pick a slower many-replica plan on awkward
        counts), so when an estimator is given each allotment is trimmed to
        its best-performing feasible count and the rest of the grant stays
        idle — the same "idle devices beat a bad mapping" choice the
        paper's planner makes within a plan.  ``None`` uses every granted
        device.
    """

    def __init__(
        self,
        policy: str = "proportional",
        *,
        channels_per_device: int = 32,
        capability: Optional[Callable[[TenantSpec, int], float]] = None,
    ) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; expected one of "
                f"{PLACEMENT_POLICIES}"
            )
        self.policy = policy
        self.channels_per_device = channels_per_device
        self.capability = capability

    # ------------------------------------------------------------------ weights

    def _weight(self, tenant: TenantSpec, tightest_slo_s: float) -> float:
        if self.policy == "static":
            return 1.0
        demand = float(tenant.offered_tokens)
        if self.policy == "proportional":
            return demand
        # sla_aware: demand scaled by priority, discounted by how much
        # looser the tenant's SLO is than the mix's tightest one (the
        # tightest tenant keeps its full demand weight); the square root
        # keeps the skew from starving batch tenants outright.
        urgency = math.sqrt(tightest_slo_s / tenant.latency_slo_s)
        return demand * tenant.priority * urgency

    # ------------------------------------------------------------------ placing

    def place(
        self,
        tenants: Sequence[TenantSpec],
        pool_devices: int,
        *,
        weights: Optional[Dict[str, float]] = None,
    ) -> ClusterPlacement:
        """Partition ``pool_devices`` across ``tenants``.

        ``weights`` overrides the policy's own apportionment weights with
        explicit per-tenant values — the closed-loop controller re-places on
        *observed* demand (measured backlog plus the last epoch's arrivals)
        this way, while the policies remain defined on the offered trace.
        Feasibility floors still apply; only the spare devices follow the
        weights.
        """
        tenants = list(tenants)
        if not tenants:
            raise ValueError("at least one tenant is required")
        if pool_devices <= 0:
            raise ValueError("the pool needs at least one device")
        for tenant in tenants:
            if tenant.model is None:
                raise ValueError(f"tenant {tenant.name!r} has no model resolved")

        floors = {
            t.name: min_feasible_devices(t.model, pool_devices,
                                         channels_per_device=self.channels_per_device,
                                         context_length=t.max_context)
            for t in tenants
        }
        reserved = sum(floors.values())
        if reserved > pool_devices:
            raise MemoryError(
                f"the tenant models need at least {reserved} devices combined "
                f"but the pool has {pool_devices}"
            )

        if weights is None:
            tightest = min(t.latency_slo_s for t in tenants)
            weights = {t.name: self._weight(t, tightest) for t in tenants}
        else:
            missing = {t.name for t in tenants} - set(weights)
            if missing:
                raise ValueError(f"weights missing for tenants {sorted(missing)}")
            if any(w < 0 or not math.isfinite(w) for w in weights.values()):
                raise ValueError("weights must be finite and non-negative")
            weights = {t.name: weights[t.name] for t in tenants}
        total_weight = sum(weights.values())
        if total_weight <= 0:
            # Degenerate all-zero demand: fall back to an even split of the
            # spare rather than dividing by zero.
            weights = {t.name: 1.0 for t in tenants}
            total_weight = float(len(tenants))
        spare = pool_devices - reserved

        # Largest-remainder apportionment of the spare devices.
        shares = {name: spare * w / total_weight for name, w in weights.items()}
        alloc = {name: floors[name] + int(shares[name]) for name in shares}
        leftover = pool_devices - sum(alloc.values())
        by_remainder = sorted(shares, key=lambda n: (shares[n] - int(shares[n]), n),
                              reverse=True)
        for name in by_remainder[:leftover]:
            alloc[name] += 1

        replicas: List[ReplicaSpec] = []
        next_device = 0
        for tenant in tenants:
            devices = self._effective_devices(tenant, alloc[tenant.name],
                                              floors[tenant.name])
            alloc[tenant.name] = devices
            replicas.append(ReplicaSpec(
                replica_id=len(replicas),
                tenant_name=tenant.name,
                model=tenant.model,
                num_devices=devices,
                first_device=next_device,
            ))
            next_device += devices

        return ClusterPlacement(
            policy=self.policy,
            pool_devices=pool_devices,
            replicas=tuple(replicas),
            tenant_devices=dict(alloc),
        )

    def _effective_devices(
        self, tenant: TenantSpec, devices: int, floor: int
    ) -> int:
        """Trim one allotment to its best-performing feasible device count.

        Without a capability estimator the full grant is used; with one,
        the count maximising estimated sustainable rate wins (ties go to
        the larger count, which buys KV headroom for free).
        """
        if self.capability is None or devices <= floor:
            return devices
        return max(range(floor, devices + 1),
                   key=lambda d: (self.capability(tenant, d), d))
