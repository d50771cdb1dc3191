"""Closed-loop cluster control: epoch re-placement on observed demand.

Open loop, each tenant's device share is fixed for the whole run.  This
module closes that loop around the measured signals the serving engine
already records:

* **Epoch segmentation** — the run is cut into fixed epochs: each epoch's
  arrivals are routed to their tenants' replicas at its start, and every
  replica's :class:`~repro.serving.engine.EngineState` is advanced to the
  epoch boundary, not to completion.  At each boundary the loop measures
  per-epoch goodput, the mean queue depth (``queue_depth_timeline``) and
  each tenant's backlog (the tokens still owed).

* **Epoch re-placement** — a :class:`RebalancePolicy` re-apportions the
  pool at epoch boundaries from observed demand (measured backlog plus the
  epoch's arrivals), with hysteresis: a proposal is applied only when its
  projected goodput gain over the lookahead horizon beats the migration
  stall — priced as the time the rebuilt replicas spend reloading model
  weights through the CXL link model
  (:func:`~repro.kvstore.preemption.kv_swap_time_s`) — by the configured
  margin.  Replicas whose shape survives a re-placement keep their engine
  state; dismantled replicas hand their unfinished requests to the new
  replica set.

* **Live KV migration** — with ``migration="live"`` (the default) a
  dismantled replica's in-flight requests keep their progress: each one's
  materialised KV is swapped out to host memory
  (:meth:`~repro.serving.engine.ServingEngine.migrate_out`, priced on the
  CXL link like any paged-KV swap) and swapped into the destination
  replica (:meth:`~repro.serving.engine.ServingEngine.migrate_in`), where
  it resumes decoding at its original token — TTFT, latency and SLA
  classification stay anchored to the original arrival.
  ``migration="restart"`` is the pre-live behaviour: partial progress is
  lost, like a recompute preemption, and the request re-enters the new
  replica from scratch (arrival time still original).  Requests that have
  made no progress yet restart under both modes — they have no KV to move.

The open loop (``rebalance="off"`` with no control config, the default
everywhere) runs through the same :class:`ClusterControlLoop` as one
unbounded window: the whole merged stream is routed once, every replica
drains, and no epoch boundary is ever measured.  ``migration="restart"``
reproduces the pre-live-migration closed loop bit-exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.cluster.placement import ClusterPlacement, ReplicaSpec
from repro.core.results import ClusterResult, ServingResult
from repro.kvstore.preemption import kv_swap_time_s
from repro.models.memory import ModelMemoryProfile
from repro.serving.engine import EngineState, ServingEngine
from repro.serving.metrics import (
    aggregate_serving_result,
    merge_queue_depth_timelines,
    window_decode_tokens,
    window_mean_queue_depth,
)
from repro.serving.request import RequestState, ServingRequest
from repro.telemetry.metrics import _percentile
from repro.telemetry.recorder import ScopedRecorder, TraceRecorder
from repro.telemetry.slo import AlertLog, SloMonitor, default_rules
from repro.workloads.queries import Query

__all__ = [
    "MIGRATION_MODES",
    "REBALANCE_MODES",
    "ControlConfig",
    "RebalanceDecision",
    "RebalancePolicy",
    "ClusterControlLoop",
    "weight_reload_time_s",
]

#: Supported re-placement modes of the closed loop.
REBALANCE_MODES = ("off", "epoch")

#: What happens to a dismantled replica's in-flight requests.
MIGRATION_MODES = ("restart", "live")

#: Epochs that must pass after a rebalance before the next proposal is even
#: considered (cooldown against thrash).
MIN_EPOCHS_BETWEEN = 1

#: Horizon (in epochs) the projected gain of a proposal is priced over:
#: observed demand is assumed to persist roughly this long.
LOOKAHEAD_EPOCHS = 2

#: EWMA weight of the newest epoch's arrival rate in the observe-only
#: ``cluster.predicted_rate_qps`` forecast.
FEEDBACK_ALPHA = 0.5


def weight_reload_time_s(spec: ReplicaSpec, link) -> float:
    """Migration stall of (re)building one replica: reloading its weights.

    The model's parameters stream from host memory over the CXL fabric,
    sharded across the replica's devices exactly like a KV swap across
    pipeline stages (per-device x4 links in parallel, bounded by the host
    x16 link), so the same pricing applies.
    """
    parameter_bytes = ModelMemoryProfile(spec.model).parameter_bytes
    return kv_swap_time_s(parameter_bytes, link, pp_stages=spec.num_devices)


@dataclass(frozen=True)
class ControlConfig:
    """Knobs of the closed-loop controller.

    Parameters
    ----------
    epoch_s:
        Control interval: arrivals are routed, replicas pause and are
        measured, and the rebalancer may act, every this many simulated
        seconds.
    rebalance:
        ``"epoch"`` re-places at epoch boundaries; ``"off"`` keeps the
        initial placement (the run is still epoch-segmented and measured).
    migration:
        ``"live"`` (default) swaps a dismantled replica's in-flight KV
        through host memory onto the new replica set, so requests resume
        at their original progress; ``"restart"`` re-runs them from
        scratch (the pre-live behaviour, kept bit-exact for regression
        comparisons).
    hysteresis:
        A re-placement is applied only when its projected token gain over
        the :data:`LOOKAHEAD_EPOCHS` horizon exceeds ``(1 + hysteresis)``
        times the migration cost; a finite non-negative number.
    max_epochs:
        Safety bound on the epoch *index*, simulated time divided by
        ``epoch_s``: once a run still undrained reaches index
        ``max_epochs`` it is finished in one final unbounded segment (no
        further control), and ``ClusterResult.control_stopped_epoch``
        records that index (``None`` when the run drained under control).
        The index also advances over idle gaps, which are skipped without
        measuring their epochs, so it bounds simulated time under control,
        not the number of epochs measured (``epoch_timeline`` may be
        shorter).

    The rebalance cooldown (:data:`MIN_EPOCHS_BETWEEN`) and the demand
    forecast's EWMA weight (:data:`FEEDBACK_ALPHA`) are module constants.
    """

    epoch_s: float = 20.0
    rebalance: str = "epoch"
    migration: str = "live"
    hysteresis: float = 0.25
    max_epochs: int = 10_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epoch_s) and self.epoch_s > 0):
            raise ValueError("epoch_s must be a finite positive number, "
                             f"got {self.epoch_s!r}")
        if self.rebalance not in REBALANCE_MODES:
            raise ValueError(
                f"unknown rebalance mode {self.rebalance!r}; "
                f"choose from {REBALANCE_MODES}"
            )
        if self.migration not in MIGRATION_MODES:
            raise ValueError(
                f"unknown migration mode {self.migration!r}; "
                f"choose from {MIGRATION_MODES}"
            )
        if not (math.isfinite(self.hysteresis) and self.hysteresis >= 0):
            raise ValueError("hysteresis must be a finite non-negative "
                             f"number, got {self.hysteresis!r}")
        if self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive")


@dataclass(frozen=True)
class RebalanceDecision:
    """One applied (or applicable) re-placement and its projected economics."""

    placement: ClusterPlacement
    #: Projected extra served tokens over the lookahead horizon.
    projected_gain_tokens: float
    #: Projected tokens foregone while the rebuilt replicas reload weights.
    migration_cost_tokens: float
    #: Weight-reload stall of the event (slowest rebuilt replica).
    stall_s: float
    #: Replica ids of the proposal that must be built from scratch.
    rebuilt_replica_ids: Tuple[int, ...]


def _replica_signature(spec: ReplicaSpec) -> Tuple:
    """Shape key under which a replica's engine state survives re-placement."""
    return (spec.tenant_name, spec.model, spec.num_devices)


class RebalancePolicy:
    """Observed-demand re-placement with hysteresis and priced migration.

    ``capability_tokens_per_s(tenant_name, devices)`` estimates a
    replica's sustainable token rate (the cluster engine's memoised
    capability probe) and is the common currency of the gain/cost
    projection.
    """

    def __init__(self, config: ControlConfig, *, placer, capability_tokens_per_s,
                 link) -> None:
        self.config = config
        self.placer = placer
        self.capability = capability_tokens_per_s
        self.link = link

    # ------------------------------------------------------------------ pricing

    def _served_rate(
        self,
        placement: ClusterPlacement,
        demand_tokens_per_s: Dict[str, float],
    ) -> float:
        """Tokens/s this placement can deliver against the observed demand.

        Each tenant's demand is served up to its replica's capability; the
        pool total is the sum over replicas.
        """
        served = 0.0
        for spec in placement.replicas:
            served += min(demand_tokens_per_s.get(spec.tenant_name, 0.0),
                          self.capability(spec.tenant_name, spec.num_devices))
        return served

    # ------------------------------------------------------------------ decide

    def decide(
        self,
        tenants: Sequence,
        pool_devices: int,
        current: ClusterPlacement,
        demand_tokens_per_s: Dict[str, float],
    ) -> Optional[RebalanceDecision]:
        """The re-placement to apply now, or ``None`` to hold.

        Proposes the placer's apportionment under *observed* demand weights,
        prices the migration, and applies hysteresis: hold unless the
        projected gain over the lookahead horizon beats the stall cost by
        the configured margin.
        """
        weights = {t.name: max(demand_tokens_per_s.get(t.name, 0.0), 0.0)
                   for t in tenants}
        proposal = self.placer.place(tenants, pool_devices, weights=weights)
        if proposal.tenant_devices == current.tenant_devices:
            return None

        available = {_replica_signature(spec) for spec in current.replicas}
        rebuilt = [spec for spec in proposal.replicas
                   if _replica_signature(spec) not in available]
        if not rebuilt:
            # Pure renumbering: every replica shape survives, nothing moves.
            return None

        old_rate = self._served_rate(current, demand_tokens_per_s)
        new_rate = self._served_rate(proposal, demand_tokens_per_s)
        gain_rate = new_rate - old_rate
        if gain_rate <= 0:
            return None

        stall_s = max(weight_reload_time_s(spec, self.link) for spec in rebuilt)
        horizon_s = LOOKAHEAD_EPOCHS * self.config.epoch_s
        gain_tokens = gain_rate * horizon_s
        # Conservative: while the rebuilt replicas reload, price the whole
        # proposal's delivery as foregone (carried replicas keep serving, so
        # the true loss is smaller; overpricing is the safe direction for a
        # stall we cannot undo).
        cost_tokens = stall_s * new_rate
        if gain_tokens <= (1.0 + self.config.hysteresis) * cost_tokens:
            return None
        return RebalanceDecision(
            placement=proposal,
            projected_gain_tokens=gain_tokens,
            migration_cost_tokens=cost_tokens,
            stall_s=stall_s,
            rebuilt_replica_ids=tuple(s.replica_id for s in rebuilt),
        )


@dataclass
class _MigrationStats:
    """Pool-level live-migration economics, accumulated across rebalances."""

    num_requests: int = 0
    kv_bytes: int = 0
    kv_time_s: float = 0.0
    restored_tokens: int = 0


@dataclass(eq=False)
class _ReplicaRuntime:
    """One live (or archived) replica: spec, engine, resumable state.

    ``eq=False``: runtimes are identities, not values — an archived replica
    and its same-shaped successor must never compare equal (and the
    generated deep comparison would walk every request of both states).
    """

    spec: ReplicaSpec
    engine: ServingEngine
    state: EngineState
    #: The tenant's trace index of each fed request, indexed by request id.
    feed: List[int] = field(default_factory=list)
    #: Telemetry scope this replica's engine records into (``None`` = off).
    scope: Optional[ScopedRecorder] = None

    def outstanding_tokens(self) -> float:
        """Tokens still owed to unfinished fed requests (measured backlog)."""
        return float(sum(
            r.prefill_remaining + max(r.query.decode_tokens - r.tokens_generated, 0)
            for r in self.state.unfinished))


class ClusterControlLoop:
    """The one executor of every cluster run over a :class:`ClusterEngine`.

    Owns the run: initial placement, per-window routing, segmented engine
    advancement, re-placement, migration, and the final
    :class:`~repro.core.results.ClusterResult` aggregation.  ``config=None``
    is the open loop: a single unbounded window with no boundary
    measurements, no re-placement and no epoch timeline.  Constructed by
    ``ClusterEngine.run``; not normally instantiated directly.
    """

    def __init__(self, cluster, config: Optional[ControlConfig], *,
                 telemetry: Optional[TraceRecorder] = None,
                 slo_monitor: Optional[SloMonitor] = None) -> None:
        # ``cluster`` is a repro.cluster.engine.ClusterEngine; not type-hinted
        # to keep the import acyclic (engine imports this module).
        self.cluster = cluster
        self.config = config
        self.telemetry = telemetry
        # SLO rules read the per-epoch snapshots, so a monitor only makes
        # sense on a traced closed-loop run; arm the stock rules by default
        # there (the TTFT rule targets the tightest tenant SLO in the pool).
        if slo_monitor is None and telemetry is not None and config is not None:
            slo_monitor = SloMonitor(default_rules(
                ttft_slo_s=min((t.latency_slo_s for t in cluster.tenants),
                               default=None)))
        self.slo_monitor = slo_monitor
        #: Control-plane scope; :meth:`run` creates it when tracing is on.
        self._control_rec: Optional[ScopedRecorder] = None
        #: Serial per scope base name: a rebuilt replica reuses its
        #: predecessor's id, so its scope needs a distinguishing suffix.
        self._scope_serial: Dict[str, int] = {}

    # ------------------------------------------------------------------ plumbing

    def _replica_scope(self, spec: ReplicaSpec) -> Optional[ScopedRecorder]:
        """A fresh, uniquely-named telemetry scope for one (re)built replica."""
        telemetry = self.telemetry
        if telemetry is None:
            return None
        base = f"replica-{spec.replica_id}"
        serial = self._scope_serial.get(base, 0)
        self._scope_serial[base] = serial + 1
        return telemetry.scope(base if serial == 0 else f"{base}.r{serial}")

    def _new_runtime(self, spec: ReplicaSpec, *, start_s: float = 0.0,
                     stall_s: float = 0.0) -> _ReplicaRuntime:
        tenant = self.cluster._tenant_by_name[spec.tenant_name]
        engine = self.cluster._engine_for(tenant.name, spec.num_devices,
                                          spec.model)
        scope = self._replica_scope(spec)
        state = engine.begin([], planning_trace=list(tenant.trace),
                             telemetry=scope)
        state.clock = start_s + stall_s
        if scope is not None:
            scope.now_s = state.clock
        return _ReplicaRuntime(spec=spec, engine=engine, state=state,
                               scope=scope)

    @staticmethod
    def _advance_all(live: Dict[int, "_ReplicaRuntime"],
                     until_s: Optional[float] = None) -> None:
        """Advance every live replica, in replica order, to ``until_s`` (or
        fully drained)."""
        for runtime in live.values():
            runtime.engine.advance(runtime.state, until_s=until_s)

    # ------------------------------------------------------------------ run

    # One epoch loop whose locals (placement, arrival forecast, migration
    # stats) span every window; a split would thread them all.
    # repro-lint: ignore[function-length]
    def run(self, placement_policy: Optional[str] = None) -> ClusterResult:
        cluster = self.cluster
        config = self.config
        tenants = cluster.tenants
        pool_devices = cluster.config.num_devices
        placer = (cluster.placer if placement_policy is None
                  else cluster._make_placer(placement_policy))
        rebalancer = RebalancePolicy(
            config,
            placer=placer,
            capability_tokens_per_s=cluster._tokens_per_s,
            link=cluster.config.link,
        ) if config is not None else None

        telemetry = self.telemetry
        control_rec = (telemetry.scope("control")
                       if telemetry is not None else None)
        self._control_rec = control_rec

        placement = placer.place(tenants, pool_devices)
        live: Dict[int, _ReplicaRuntime] = {
            spec.replica_id: self._new_runtime(spec)
            for spec in placement.replicas
        }
        archived: List[_ReplicaRuntime] = []
        sla_by_name = {t.name: t.latency_slo_s for t in tenants}

        # The merged offered stream, in arrival order.  The sort is stable,
        # so ties keep tenant list order, then trace order.
        items: List[Tuple[Query, str, int]] = sorted(
            ((query, tenant.name, index)
             for tenant in tenants
             for index, query in enumerate(tenant.trace)),
            key=lambda item: item[0].arrival_time_s,
        )
        position = 0
        #: Final attempt serving each (tenant, index): (runtime, request id).
        final_attempt: Dict[Tuple[str, int], Tuple[_ReplicaRuntime, int]] = {}

        epoch = 0
        #: EWMA of the offered arrival rate (queries/s per epoch window) —
        #: the observe-only demand forecast surfaced as the
        #: ``cluster.predicted_rate_qps`` gauge.
        predicted_qps = 0.0
        last_rebalance_epoch: Optional[int] = None
        #: Epoch at which the closed loop hit ``max_epochs`` and drained the
        #: rest open loop; ``None`` while control holds to the end.
        stopped_epoch: Optional[int] = None
        num_rebalances = 0
        migration_stall_s = 0.0
        migration_stats = _MigrationStats()
        rebalance_log: List[Tuple[float, float]] = []
        epoch_rows: List[Tuple[float, float, float]] = []

        def runtimes() -> List[_ReplicaRuntime]:
            return archived + list(live.values())

        while position < len(items) or any(not rt.state.drained
                                           for rt in live.values()):
            if config is None or epoch >= config.max_epochs:
                # One final unbounded window: route everything still
                # unrouted and drain without further control.  The open
                # loop is exactly this window at epoch 0; the closed loop
                # reaches it at its safety bound, so no offered request
                # silently vanishes from the accounting.
                if config is not None:
                    stopped_epoch = epoch
                tail = items[position:]
                position = len(items)
                plan = cluster.scheduler.route_window(
                    tenants, placement,
                    stream=[(query, name) for query, name, _ in tail],
                    window_start_s=(epoch * config.epoch_s
                                    if config is not None else 0.0),
                    recorder=control_rec,
                )
                self._apply_plan(plan, [(q, n) for q, n, _ in tail],
                                 [i for _, _, i in tail], live,
                                 final_attempt)
                self._advance_all(live)
                break
            if (position < len(items)
                    and all(rt.state.drained for rt in live.values())):
                # Fast-forward an idle gap: no replica has work, so skip
                # straight to the epoch holding the next arrival instead of
                # grinding through empty control intervals.
                next_epoch = int(items[position][0].arrival_time_s
                                 // config.epoch_s)
                epoch = max(epoch, min(next_epoch, config.max_epochs - 1))
            start_s = epoch * config.epoch_s
            end_s = start_s + config.epoch_s

            # ------------------------------------------------ route the window
            window: List[Tuple[Query, str]] = []
            window_indices: List[int] = []
            arrived_tokens = {t.name: 0.0 for t in tenants}
            while position < len(items) and items[position][0].arrival_time_s < end_s:
                query, name, index = items[position]
                window.append((query, name))
                window_indices.append(index)
                arrived_tokens[name] += query.total_context
                position += 1
            plan = cluster.scheduler.route_window(
                tenants, placement, stream=window, window_start_s=start_s,
                recorder=control_rec,
            )
            self._apply_plan(plan, window, window_indices, live,
                             final_attempt)

            # --------------------------------------------- advance one epoch
            self._advance_all(live, until_s=end_s)

            # ------------------------------------------- measure the boundary
            epoch_goodput = 0.0
            epoch_backlog = 0.0
            backlog_tokens = {t.name: 0.0 for t in tenants}
            # Live replicas only: an earlier-archived replica is frozen (its
            # clock predates this window, so it can finish nothing here) and
            # its stranded last backlog sample was migrated to the live set —
            # counting it again would hold a phantom backlog forever.
            for runtime in live.values():
                epoch_goodput += window_decode_tokens(
                    runtime.state.requests, start_s, end_s,
                    sla_latency_s=sla_by_name[runtime.spec.tenant_name])
                epoch_backlog += window_mean_queue_depth(
                    runtime.state.queue_depth_timeline, start_s, end_s)
                backlog_tokens[runtime.spec.tenant_name] += (
                    runtime.outstanding_tokens())
            epoch_rows.append((start_s, epoch_goodput / config.epoch_s,
                               epoch_backlog))
            if control_rec is not None:
                control_rec.span(
                    "cluster.epoch", start_s, end_s, epoch=epoch,
                    goodput_tokens_per_s=epoch_goodput / config.epoch_s,
                    backlog=epoch_backlog)

            # ------------------------------------------------- maybe re-place
            work_left = (position < len(items)
                         or any(not rt.state.drained for rt in live.values()))
            if (config.rebalance == "epoch" and work_left
                    and (last_rebalance_epoch is None
                         or epoch - last_rebalance_epoch
                         > MIN_EPOCHS_BETWEEN)):
                demand = {
                    name: (backlog_tokens[name] + arrived_tokens[name])
                    / config.epoch_s
                    for name in backlog_tokens
                }
                decision = rebalancer.decide(tenants, pool_devices,
                                             placement, demand)
                if decision is not None:
                    if control_rec is not None:
                        control_rec.event(
                            "cluster.rebalance", end_s, epoch=epoch,
                            projected_gain_tokens=decision.projected_gain_tokens,
                            migration_cost_tokens=decision.migration_cost_tokens,
                            stall_s=decision.stall_s,
                            rebuilt=decision.rebuilt_replica_ids)
                    placement = decision.placement
                    live = self._apply_rebalance(
                        decision, live, archived, final_attempt,
                        now_s=end_s, stats=migration_stats)
                    last_rebalance_epoch = epoch
                    num_rebalances += 1
                    migration_stall_s += decision.stall_s
                    rebalance_log.append((end_s, decision.stall_s))

            # ------------------------------------- record each replica's state
            if control_rec is not None:
                for runtime in live.values():
                    tail = (runtime.state.queue_depth_timeline[-1]
                            if runtime.state.queue_depth_timeline
                            else (0.0, 0, 0))
                    control_rec.event(
                        "cluster.feedback", end_s,
                        replica=runtime.scope.name,
                        queued=tail[1], running=tail[2],
                        outstanding_tokens=runtime.outstanding_tokens())
            predicted_qps = (
                FEEDBACK_ALPHA * (len(window) / config.epoch_s)
                + (1.0 - FEEDBACK_ALPHA) * predicted_qps)
            if telemetry is not None:
                self._record_epoch_metrics(
                    telemetry, live, archived, end_s,
                    epoch_goodput / config.epoch_s, epoch_backlog,
                    num_rebalances, migration_stall_s, migration_stats,
                    predicted_qps)
            epoch += 1

        return self._aggregate(placement, runtimes(), final_attempt,
                               num_rebalances,
                               migration_stall_s, rebalance_log, epoch_rows,
                               migration_stats, stopped_epoch)

    # ------------------------------------------------------------------ pieces

    def _record_epoch_metrics(
        self,
        telemetry: TraceRecorder,
        live: Dict[int, _ReplicaRuntime],
        archived: List[_ReplicaRuntime],
        end_s: float,
        goodput_tokens_per_s: float,
        backlog: float,
        num_rebalances: int,
        migration_stall_s: float,
        stats: _MigrationStats,
        predicted_rate_qps: float,
    ) -> None:
        """Fold this epoch's measured signals into the metrics registry and
        snapshot it — one :class:`MetricsSnapshot` per epoch on the result's
        ``metrics_timeline``, fed to the SLO monitor as it lands."""
        metrics = telemetry.metrics
        metrics.set_gauge("cluster.goodput_tokens_per_s", goodput_tokens_per_s)
        metrics.set_gauge("cluster.backlog", backlog)
        metrics.set_gauge("cluster.predicted_rate_qps", predicted_rate_qps)
        metrics.set_gauge("cluster.migration_stall_s", migration_stall_s)
        metrics.set_counter("cluster.rebalances", num_rebalances)
        metrics.set_counter("cluster.migrated_requests", stats.num_requests)
        metrics.set_counter("kv.migrated_bytes", stats.kv_bytes)
        pools = [rt.state.allocator.pool for rt in live.values()
                 if rt.state.allocator is not None]
        if pools:
            metrics.set_gauge(
                "kv.pool_occupancy",
                sum(pool.utilization for pool in pools) / len(pools))
        everyone = list(live.values()) + archived
        metrics.set_counter(
            "serving.preemptions",
            sum(len(rt.state.preemption_log) for rt in everyone))
        metrics.set_counter(
            "serving.finished",
            sum(1 for rt in everyone for r in rt.state.requests
                if r.state is RequestState.FINISHED))
        # Count what ``snapshots_from_trace`` replays from the saved trace:
        # each first token once, by the epoch that emitted it (an iteration
        # may run past ``end_s``).  A live-migrated copy (``migrated_count``)
        # has no ``request.queued`` in its scope, so the replay skips it; a
        # first token it carries was already counted on its source.
        ttfts = sorted(
            request.ttft_s
            for rt in everyone for request in rt.state.requests
            if request.first_token_time_s is not None
            and request.first_token_time_s <= end_s
            and request.migrated_count == 0)
        if ttfts:
            metrics.set_gauge("serving.ttft_p99_s",
                              _percentile(ttfts, 0.99))
        snapshot = metrics.snapshot(end_s)
        if self.slo_monitor is not None:
            self.slo_monitor.observe(snapshot)

    def _apply_plan(
        self,
        plan: Dict[int, List[Query]],
        window: List[Tuple[Query, str]],
        window_indices: List[int],
        live: Dict[int, _ReplicaRuntime],
        final_attempt: Dict[Tuple[str, int], Tuple[_ReplicaRuntime, int]],
    ) -> None:
        """Feed the window's routed queries into their replicas' states."""
        # Recover each routed query's trace index.  Routing preserves query
        # identity, but a trace may alias one Query object several times
        # (aliased copies are indistinguishable, arrival included), so each
        # identity maps to a *queue* of indices consumed per occurrence.
        index_queues: Dict[int, Deque[int]] = {}
        for (query, _), index in zip(window, window_indices, strict=True):
            index_queues.setdefault(id(query), deque()).append(index)
        for replica_id, assigned in plan.items():
            runtime = live[replica_id]
            owner = runtime.spec.tenant_name
            # One batch per replica: ``assigned`` is in arrival order, so the
            # requests get the ids and queue order per-query feeds would.
            requests = runtime.engine.extend(runtime.state, assigned)
            for query, request in zip(assigned, requests, strict=True):
                index = index_queues[id(query)].popleft()
                runtime.feed.append(index)
                final_attempt[(owner, index)] = (runtime, request.request_id)

    def _apply_rebalance(
        self,
        decision: RebalanceDecision,
        live: Dict[int, _ReplicaRuntime],
        archived: List[_ReplicaRuntime],
        final_attempt: Dict[Tuple[str, int], Tuple[_ReplicaRuntime, int]],
        *,
        now_s: float,
        stats: _MigrationStats,
    ) -> Dict[int, _ReplicaRuntime]:
        """Install ``decision.placement``: carry matching replicas' states,
        build the rest (paying the reload stall), migrate stranded work."""
        dismantled = {_replica_signature(rt.spec): rt for rt in live.values()}
        new_live: Dict[int, _ReplicaRuntime] = {}
        target_of: Dict[str, _ReplicaRuntime] = {}
        for spec in decision.placement.replicas:
            runtime = dismantled.pop(_replica_signature(spec), None)
            if runtime is None:
                runtime = self._new_runtime(spec, start_s=now_s,
                                            stall_s=decision.stall_s)
            runtime.spec = spec
            new_live[spec.replica_id] = runtime
            target_of[spec.tenant_name] = runtime

        # Unfinished work on dismantled replicas moves to the new set.
        # ``migration="live"``: requests with materialised KV swap it
        # through host memory and resume at their original progress;
        # everything else (and every request under ``"restart"``) re-enters
        # from scratch.  Arrival times are kept either way, so the
        # disruption lands in the measured latencies.
        live_migration = self.config.migration == "live"
        link = self.cluster.config.link
        control_rec = self._control_rec
        for runtime in dismantled.values():
            archived.append(runtime)
            owner = runtime.spec.tenant_name
            target = target_of[owner]
            for request in runtime.state.unfinished:
                index = runtime.feed[request.request_id]
                request_id = len(target.state.requests)
                if (live_migration and request.context_length > 0
                        and request.restore_remaining == 0):
                    moved = runtime.engine.migrate_out(
                        runtime.state, request, now_s=now_s)
                    landed = target.engine.migrate_in(
                        target.state, moved, now_s=now_s)
                    target.feed.append(index)
                    if control_rec is not None:
                        control_rec.event(
                            "cluster.migrate", now_s, request.request_id,
                            mode="live",
                            source_scope=runtime.scope.name,
                            source_request=request.request_id,
                            dest_scope=target.scope.name,
                            dest_request=request_id,
                            accepted=(landed.state
                                      is not RequestState.REJECTED),
                            kv_bytes=moved.swap_bytes)
                    if landed.state is not RequestState.REJECTED:
                        stats.num_requests += 1
                        stats.kv_bytes += moved.swap_bytes
                        stats.restored_tokens += moved.kv_tokens
                        stats.kv_time_s += moved.swap_out_s
                        if not moved.swap_in_priced:
                            # Swap-in priced eagerly with the
                            # destination's formula (resume charges the
                            # same value).  A request migrated *again*
                            # before it ever resumed already priced its
                            # single eventual swap-in on the first hop,
                            # so that hop adds nothing here.
                            stats.kv_time_s += kv_swap_time_s(
                                moved.swap_bytes, link,
                                pp_stages=target.state.plan.pp_stages)
                else:
                    target.engine.extend(target.state, [request.query])
                    target.feed.append(index)
                    if control_rec is not None:
                        control_rec.event(
                            "cluster.migrate", now_s, request.request_id,
                            mode="restart",
                            source_scope=runtime.scope.name,
                            source_request=request.request_id,
                            dest_scope=target.scope.name,
                            dest_request=request_id)
                final_attempt[(owner, index)] = (target, request_id)
        return new_live

    # ------------------------------------------------------------------ results

    def _aggregate(
        self,
        placement: ClusterPlacement,
        all_runtimes: List[_ReplicaRuntime],
        final_attempt: Dict[Tuple[str, int], Tuple[_ReplicaRuntime, int]],
        num_rebalances: int,
        migration_stall_s: float,
        rebalance_log: List[Tuple[float, float]],
        epoch_rows: List[Tuple[float, float, float]],
        migration_stats: _MigrationStats,
        stopped_epoch: Optional[int],
    ) -> ClusterResult:
        cluster = self.cluster
        tenants = cluster.tenants
        runs = {id(rt): rt.engine.snapshot(rt.state) for rt in all_runtimes}

        # Re-attribute each request's final attempt to its tenant, in trace
        # order.
        tenant_requests: Dict[str, List[ServingRequest]] = {t.name: [] for t in tenants}
        tenant_runtimes: Dict[str, List[_ReplicaRuntime]] = {t.name: [] for t in tenants}
        seen_runtimes: Dict[str, set] = {t.name: set() for t in tenants}
        for (owner, index) in sorted(final_attempt):
            runtime, request_id = final_attempt[(owner, index)]
            tenant_requests[owner].append(runtime.state.requests[request_id])
            if id(runtime) not in seen_runtimes[owner]:
                seen_runtimes[owner].add(id(runtime))
                tenant_runtimes[owner].append(runtime)

        makespan = max((runs[id(rt)].makespan_s for rt in all_runtimes),
                       default=0.0)
        busy_device_seconds = sum(
            (runs[id(rt)].prefill_time_s + runs[id(rt)].decode_time_s)
            * rt.spec.num_devices
            for rt in all_runtimes
        )

        tenant_results: Dict[str, ServingResult] = {}
        for tenant in tenants:
            used = [runs[id(rt)] for rt in tenant_runtimes[tenant.name]]
            plan_names = sorted({run.plan.name for run in used})
            tenant_results[tenant.name] = aggregate_serving_result(
                tenant_requests[tenant.name],
                model_name=tenant.model.name,
                plan_name=" + ".join(plan_names) if plan_names else "unplaced",
                # The tenant's own completion horizon: the engine clock only
                # advances while requests run, so for a single tenant this
                # equals the standalone engine's makespan exactly.
                makespan_s=max((r.finish_time_s
                                for r in tenant_requests[tenant.name]
                                if r.finish_time_s is not None), default=0.0),
                # Replica telemetry, summed over the replicas the tenant
                # used (one per placement it lived through).
                prefill_time_s=sum(run.prefill_time_s for run in used),
                decode_time_s=sum(run.decode_time_s for run in used),
                decode_step_tokens=sum(run.decode_step_tokens for run in used),
                peak_memory_bytes=sum(run.peak_memory_bytes for run in used),
                memory_capacity_bytes=sum(run.memory_capacity_bytes for run in used),
                sla_latency_s=tenant.latency_slo_s,
                queue_depth_timeline=merge_queue_depth_timelines(
                    [run.queue_depth_timeline for run in used]
                ),
            )

        return ClusterResult(
            placement_policy=placement.policy,
            pool_devices=placement.pool_devices,
            devices_used=placement.devices_used,
            makespan_s=makespan,
            tenant_results=tenant_results,
            tenant_devices=dict(placement.tenant_devices),
            tenant_offered_decode_tokens={
                t.name: t.offered_decode_tokens for t in tenants
            },
            busy_device_seconds=busy_device_seconds,
            epoch_s=self.config.epoch_s if self.config is not None else None,
            num_rebalances=num_rebalances,
            migration_stall_s=migration_stall_s,
            epoch_timeline=tuple(epoch_rows),
            rebalance_log=tuple(rebalance_log),
            num_migrated_requests=migration_stats.num_requests,
            migrated_kv_bytes=migration_stats.kv_bytes,
            kv_migration_time_s=migration_stats.kv_time_s,
            restored_progress_tokens=migration_stats.restored_tokens,
            control_stopped_epoch=stopped_epoch,
            metrics_timeline=(self.telemetry.metrics.timeline_tuple()
                              if self.telemetry is not None else ()),
            alert_log=(self.slo_monitor.alert_log
                       if self.slo_monitor is not None else AlertLog()),
        )
