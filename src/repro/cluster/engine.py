"""Multi-tenant cluster serving on one shared CXL-PIM device pool.

``ClusterEngine`` holds what every cluster run shares — the tenants, the
:class:`~repro.cluster.placement.ClusterPlacer` that partitions the pool's
devices into one replica per tenant, the capability probes that size them,
the :class:`~repro.cluster.scheduler.ClusterScheduler` that sends each
arriving request to its tenant's replica, and one memoised, unmodified
:class:`~repro.serving.ServingEngine` per replica shape (the cluster layer
never forks the iteration loop).  :meth:`ClusterEngine.run` validates its
options and hands the run to :class:`~repro.cluster.control.
ClusterControlLoop`, the one executor: the open loop is its single
unbounded window, the closed loop its epoch-segmented run.  Either way the
per-request outcomes are re-attributed to tenants and folded into one
:class:`~repro.core.results.ClusterResult` (one
:class:`~repro.core.results.ServingResult` per tenant, each judged against
that tenant's own SLA, plus pool-level goodput, fairness and utilisation).

A single-tenant cluster degenerates to exactly one replica spanning the
whole pool, so its per-tenant result reproduces ``ServingEngine.run`` on
the same deployment.
"""

from __future__ import annotations

import inspect
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.placement import ClusterPlacer
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.tenant import TenantSpec, resolve_models
from repro.core.config import CentConfig
from repro.core.results import ClusterResult
from repro.core.system import CentSystem
from repro.models.config import ModelConfig
from repro.serving.engine import ServingEngine, evict_to_bound
# Unused here, but kept as a module attribute: perfbench's layer tracer
# patches ``aggregate_serving_result`` in every cluster module by name.
from repro.serving.metrics import aggregate_serving_result  # noqa: F401
from repro.telemetry.recorder import TraceRecorder

__all__ = ["ClusterEngine"]

#: Keywords a ``ClusterEngine`` forwards to every replica's ``ServingEngine``.
_ENGINE_OPTIONS = frozenset(
    inspect.signature(ServingEngine).parameters) - {"system"}


class ClusterEngine:
    """Serves several tenants' traces on one shared device pool.

    Parameters
    ----------
    config:
        Pool-level configuration; ``config.num_devices`` is the pool size,
        every other field is inherited by each replica's slice.
    tenants:
        The tenant specs to serve.  Tenants without a model use
        ``default_model``.
    placement_policy:
        See :data:`~repro.cluster.placement.PLACEMENT_POLICIES`.
    engine_kwargs:
        Extra keyword arguments for every per-replica ``ServingEngine``
        (e.g. ``prefill_chunk_tokens``, ``context_step``).
    """

    def __init__(
        self,
        config: CentConfig,
        tenants: Sequence[TenantSpec],
        *,
        default_model: Optional[ModelConfig] = None,
        placement_policy: str = "proportional",
        **engine_kwargs,
    ) -> None:
        unknown = sorted(set(engine_kwargs) - _ENGINE_OPTIONS)
        if unknown:
            raise TypeError(
                f"ClusterEngine got unexpected keyword argument(s) {unknown}; "
                f"extra keywords go to ServingEngine, which takes "
                f"{sorted(_ENGINE_OPTIONS)}"
            )
        self.config = config
        self.tenants = resolve_models(tenants, default_model)
        self._tenant_by_name = {t.name: t for t in self.tenants}
        self.engine_kwargs = engine_kwargs
        # FIFO-bounded like ServingEngine._setup_cache: the capability trim
        # probes one candidate count per device, and an unbounded engine
        # cache would retain a warmed CentSystem per probe for the engine's
        # lifetime.  Estimates are cheap floats and get a wider bound.
        self._capability_cache: Dict[Tuple[str, int], float] = {}
        self._capability_cache_entries = 256
        self._engine_cache: Dict[Tuple[str, int], ServingEngine] = {}
        # The capability trim probes up to one engine per candidate device
        # count per tenant, so the bound scales with the pool: a fixed
        # small bound would evict the winning probe's engine before the
        # replicas fetch it, redoing the warm-up the cache exists for.
        self._engine_cache_entries = max(32, 2 * config.num_devices)
        self.placer = self._make_placer(placement_policy)
        self.scheduler = ClusterScheduler()

    def _make_placer(self, placement_policy: str) -> ClusterPlacer:
        return ClusterPlacer(
            placement_policy,
            channels_per_device=self.config.channels_per_device,
            capability=self._capability,
        )

    def _engine_for(
        self, name: str, devices: int, model: ModelConfig
    ) -> ServingEngine:
        """One serving engine per (tenant, device count), memoised.

        The capability probe for the winning count and the replica that
        ultimately serves it share this engine, so the probe's ``_setup``
        work (plan search, validation, cost-model warm-up) is done once;
        a replica rebuilt at the same shape shares it too (the engine keeps
        no per-run state beyond its caches).
        """
        key = (name, devices)
        if key not in self._engine_cache:
            evict_to_bound(self._engine_cache, self._engine_cache_entries)
            system = CentSystem(self.config.scaled(devices), model)
            self._engine_cache[key] = ServingEngine(system, **self.engine_kwargs)
        return self._engine_cache[key]

    def _capability(self, tenant: TenantSpec, devices: int) -> float:
        """Estimated sustainable rate (queries/s) of ``tenant`` on ``devices``.

        The placer's trim step probes several candidate counts, so results
        are memoised; infeasible counts score zero.
        """
        key = (tenant.name, devices)
        if key not in self._capability_cache:
            evict_to_bound(self._capability_cache, self._capability_cache_entries)
            engine = self._engine_for(tenant.name, devices, tenant.model)
            try:
                self._capability_cache[key] = engine.estimated_capacity_qps(
                    tenant.trace)
            except MemoryError:
                self._capability_cache[key] = 0.0
        return self._capability_cache[key]

    def _tokens_per_s(self, name: str, devices: int) -> float:
        """Estimated sustained token rate of tenant ``name`` on ``devices``.

        Converts the memoised :meth:`_capability` estimate into a token
        rate at the tenant's mean query size; the placer's trim probe for
        the same key already paid for it.  The closed-loop rebalancer's
        gain projection prices placements in this currency.
        """
        tenant = self._tenant_by_name[name]
        qps = self._capability(tenant, devices)
        return max(qps * tenant.offered_tokens / len(tenant.trace), 1e-9)

    # ------------------------------------------------------------------ run

    def run(
        self,
        placement_policy: Optional[str] = None,
        *,
        rebalance: str = "off",
        epoch_s: Optional[float] = None,
        migration: Optional[str] = None,
        control: Optional["ControlConfig"] = None,
        telemetry: Optional[TraceRecorder] = None,
        slo_monitor: Optional["SloMonitor"] = None,
    ) -> ClusterResult:
        """Place, route and serve every tenant; return the cluster outcome.

        ``placement_policy`` overrides the constructor's policy for this
        run only.  Policy sweeps should reuse one engine this way: the
        capability probes (the expensive part of placement, cost-model
        warm-up included) are policy-independent and stay cached across
        runs.

        Every run executes in :class:`~repro.cluster.control.
        ClusterControlLoop`.  ``rebalance="off"`` (default) with no
        ``control`` is the open loop: its single unbounded window sends the
        whole merged stream to the tenants' replicas once and drains every
        replica.  ``rebalance="epoch"`` — or an explicit ``control`` config
        — segments the run into epochs: each epoch's arrivals are routed at
        its start, and (unless the config sets ``rebalance="off"``) tenants
        are re-placed on observed demand at epoch boundaries; ``epoch_s``
        overrides the control interval and ``migration`` selects what
        happens to a dismantled replica's in-flight requests (``"live"``,
        the default, swaps their KV through host memory so they resume at
        their original progress; ``"restart"`` re-runs them from scratch).
        Both options only apply to the closed loop: passing either to an
        open-loop run raises ``ValueError``.

        ``telemetry`` (a :class:`repro.telemetry.TraceRecorder`) records the
        run's full event stream: every replica's engine writes into its own
        scope (``replica-<id>``), the router and control loop into a
        ``control`` scope.  Recording never changes the simulated outcome —
        both paths stay bit-exact with ``telemetry=None``.

        ``slo_monitor`` (a :class:`repro.telemetry.SloMonitor`) overrides
        the stock SLO rule set a traced closed-loop run arms by default;
        the monitor observes each epoch's metrics snapshot and its
        :class:`~repro.telemetry.slo.AlertLog` lands on the result.  Pure
        observation either way — alerts never change the run.
        """
        from repro.cluster.control import REBALANCE_MODES, ClusterControlLoop, ControlConfig

        if rebalance not in REBALANCE_MODES:
            raise ValueError(
                f"unknown rebalance mode {rebalance!r}; choose from "
                f"{REBALANCE_MODES}"
            )
        if control is not None and epoch_s is not None:
            raise ValueError(
                "pass either epoch_s or an explicit control config, not both "
                "(the config carries its own epoch_s)"
            )
        if control is not None and migration is not None:
            raise ValueError(
                "pass either migration or an explicit control config, not "
                "both (the config carries its own migration mode)"
            )
        open_loop = control is None and rebalance == "off"
        for name, value in (("epoch_s", epoch_s), ("migration", migration)):
            if value is not None and open_loop:
                raise ValueError(
                    f"{name} only applies to closed-loop runs; set "
                    "rebalance='epoch' (or pass a control config)"
                )
        if slo_monitor is not None and open_loop:
            raise ValueError(
                "slo_monitor needs the per-epoch metrics timeline; set "
                "rebalance='epoch' (or pass a control config)"
            )
        if control is None and not open_loop:
            kwargs = {"rebalance": rebalance}
            if epoch_s is not None:
                kwargs["epoch_s"] = epoch_s
            if migration is not None:
                kwargs["migration"] = migration
            control = ControlConfig(**kwargs)
        return ClusterControlLoop(
            self, control, telemetry=telemetry,
            slo_monitor=slo_monitor).run(placement_policy)
