"""Tenant specifications for multi-model serving on one device pool.

A *tenant* is one consumer of the shared CXL-PIM pool: a model, the timed
query trace it must serve, and the service class it bought.  The placement
and scheduling policies in :mod:`repro.cluster` read nothing but this spec,
so tenant mixes for studies are plain data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.results import check_sla_latency_s
from repro.models.config import ModelConfig
from repro.workloads.queries import Query

__all__ = ["SlaClass", "TenantSpec", "DEFAULT_SLA_LATENCY_S"]


class SlaClass(enum.Enum):
    """Traffic class of a tenant, ordered from tightest to loosest SLA."""

    INTERACTIVE = "interactive"   # chat-style, user is waiting
    STANDARD = "standard"         # ordinary API traffic
    BATCH = "batch"               # offline summarisation / evaluation jobs


#: Default per-query latency bound of each traffic class (seconds).
DEFAULT_SLA_LATENCY_S = {
    SlaClass.INTERACTIVE: 30.0,
    SlaClass.STANDARD: 60.0,
    SlaClass.BATCH: 600.0,
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the shared pool.

    Parameters
    ----------
    name:
        Unique tenant identifier (used as the key of per-tenant results).
    model:
        The model this tenant serves.  ``None`` lets the cluster layer fill
        in a default (``CentSystem.serve_cluster`` uses the system's model).
    trace:
        Timed queries (see :func:`~repro.workloads.queries.with_arrivals`);
        stored as a tuple so specs stay hashable-by-value and immutable.
    sla_class:
        Traffic class; sets the default latency SLO.
    sla_latency_s:
        Explicit per-query latency bound overriding the class default.
    priority:
        Relative weight used by SLA-aware placement; higher is more
        important.
    """

    name: str
    model: Optional[ModelConfig] = None
    trace: Tuple[Query, ...] = field(default_factory=tuple)
    sla_class: SlaClass = SlaClass.STANDARD
    sla_latency_s: Optional[float] = None
    priority: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        object.__setattr__(self, "trace", tuple(self.trace))
        if not self.trace:
            raise ValueError(f"tenant {self.name!r} needs a non-empty trace")
        check_sla_latency_s(self.sla_latency_s)
        if self.priority <= 0:
            raise ValueError("priority must be positive")

    def with_model(self, model: ModelConfig) -> "TenantSpec":
        """A copy of this spec with ``model`` filled in."""
        import dataclasses

        return dataclasses.replace(self, model=model)

    # ------------------------------------------------------------------ SLA

    @property
    def latency_slo_s(self) -> float:
        """Effective per-query latency bound of this tenant."""
        if self.sla_latency_s is not None:
            return self.sla_latency_s
        return DEFAULT_SLA_LATENCY_S[self.sla_class]

    # ------------------------------------------------------------------ demand

    @property
    def offered_prompt_tokens(self) -> int:
        return sum(q.prompt_tokens for q in self.trace)

    @property
    def offered_decode_tokens(self) -> int:
        return sum(q.decode_tokens for q in self.trace)

    @property
    def offered_tokens(self) -> int:
        """Total token demand (prompt + decode) of the tenant's trace."""
        return self.offered_prompt_tokens + self.offered_decode_tokens

    @property
    def max_context(self) -> int:
        return max(q.total_context for q in self.trace)


def resolve_models(
    tenants: Sequence[TenantSpec], default_model: Optional[ModelConfig]
) -> Tuple[TenantSpec, ...]:
    """Fill missing tenant models with ``default_model``; validate names."""
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    resolved = []
    for tenant in tenants:
        if tenant.model is None:
            if default_model is None:
                raise ValueError(
                    f"tenant {tenant.name!r} has no model and no default was given"
                )
            tenant = tenant.with_model(default_model)
        resolved.append(tenant)
    return tuple(resolved)
