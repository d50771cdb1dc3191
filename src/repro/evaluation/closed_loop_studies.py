"""Closed-loop vs static cluster control on a bursty heavy-tailed mix.

The scenario the ROADMAP's re-placement open item calls for: two tenants
whose demand is *phase-shifted* in time — ``early`` fires a heavy-tailed
burst at t=0, ``late`` fires an equally heavy burst once the first should
have drained.  Aggregate demand is symmetric, so every static placement
splits the pool near-evenly and each tenant is overloaded during its own
burst while its neighbour's devices idle.  The closed loop
(:mod:`repro.cluster.control`) observes the backlog each epoch and
re-places the pool toward the bursting tenant (paying the weight-reload
stall), delivering more SLA-compliant tokens from the same pool.

``rebalance="off"`` runs the identical mix open loop — the same control
loop as one unbounded window, with no re-placement — twice
and checks the results are bit-exact, so the study doubles as a
determinism guard for the open loop.

:func:`migration_study` reuses the same calibrated mix to isolate what
live KV migration buys: the closed loop is run twice, once with
``migration="restart"`` (a dismantled replica's in-flight requests lose
their progress — the pre-live behaviour) and once with ``migration="live"``
(their KV swaps through host memory and they resume where they left off),
and reports the goodput gain next to the migration economics (KV bytes
moved, CXL time spent, progress tokens preserved).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.control import ControlConfig
from repro.cluster.engine import ClusterEngine
from repro.cluster.tenant import TenantSpec
from repro.core.config import CentConfig
from repro.core.results import ClusterResult
from repro.core.system import CentSystem
from repro.models.config import LLAMA2_7B, ModelConfig
from repro.serving.engine import ServingEngine
from repro.telemetry.recorder import TraceRecorder
from repro.workloads.queries import bursty_arrivals, sharegpt_like_queries, with_arrivals

__all__ = ["closed_loop_study", "migration_study"]


def _calibrated_bursty_mix(
    model: ModelConfig,
    num_devices: int,
    queries_per_tenant: int,
    overload: float,
    burstiness: float,
    sla_drain_fraction: float,
    epoch_drain_fraction: float,
    seed: int,
    context_samples: int,
    context_step: int,
) -> Tuple[CentConfig, Sequence[TenantSpec], float, float, float]:
    """The phase-shifted bursty two-tenant mix both studies run.

    Calibrated from the estimated half-pool capacity ``cap``: each burst
    arrives at ``overload x cap`` (Gamma-renewal arrivals with the given
    burstiness), the ``late`` tenant starts where the ``early`` burst
    would finish draining on a half pool, the per-query SLO is
    ``sla_drain_fraction`` of the half-pool drain time, and the control
    epoch is ``epoch_drain_fraction`` of the drain time.  Returns
    ``(config, tenants, rate_qps, sla_s, epoch_s)``.
    """
    if overload <= 0:
        raise ValueError("overload must be positive")
    if num_devices < 2:
        raise ValueError("the pool needs at least two devices for two tenants")

    config = CentConfig(num_devices=num_devices, context_samples=context_samples)
    early_queries = sharegpt_like_queries(queries_per_tenant, seed=seed)
    late_queries = sharegpt_like_queries(queries_per_tenant, seed=seed + 1)

    half_pool = CentSystem(config.scaled(num_devices // 2), model)
    half_engine = ServingEngine(half_pool, context_step=context_step)
    cap_qps = half_engine.estimated_capacity_qps(early_queries)
    rate_qps = overload * cap_qps
    burst_s = queries_per_tenant / rate_qps
    drain_s = queries_per_tenant / cap_qps
    sla_s = sla_drain_fraction * drain_s
    epoch_s = epoch_drain_fraction * drain_s

    early = TenantSpec(
        "early", model=model, sla_latency_s=sla_s,
        trace=with_arrivals(
            early_queries,
            bursty_arrivals(queries_per_tenant, rate_qps,
                            burstiness=burstiness, seed=seed)),
    )
    late = TenantSpec(
        "late", model=model, sla_latency_s=sla_s,
        trace=with_arrivals(
            late_queries,
            bursty_arrivals(queries_per_tenant, rate_qps,
                            burstiness=burstiness, seed=seed + 1,
                            start_s=drain_s + burst_s)),
    )
    return config, (early, late), rate_qps, sla_s, epoch_s


def closed_loop_study(
    model: ModelConfig = LLAMA2_7B,
    # 12, not the policy study's 8: two Llama2-7B tenants' feasibility
    # floors consume an 8-device pool outright, leaving re-placement no
    # devices to move; the closed loop needs slack above the floors.
    num_devices: int = 12,
    queries_per_tenant: int = 60,
    overload: float = 3.0,
    burstiness: float = 4.0,
    sla_drain_fraction: float = 0.4,
    epoch_drain_fraction: float = 0.13,
    seed: int = 2025,
    context_samples: int = 3,
    context_step: int = 512,
    control: Optional[ControlConfig] = None,
    telemetry: Optional[TraceRecorder] = None,
) -> Dict[str, object]:
    """Compare static ``sla_aware`` placement against the closed loop.

    The mix is calibrated from the estimated half-pool capacity ``cap``:
    each burst arrives at ``overload x cap`` (Gamma-renewal arrivals with
    the given burstiness, i.e. heavy-tailed inter-arrival gaps), the
    ``late`` tenant starts where the ``early`` burst would finish draining
    on a half pool, the per-query SLO is ``sla_drain_fraction`` of the
    half-pool drain time (generous against service, unreachable once a
    static half-share queues a whole burst), and the control epoch is
    ``epoch_drain_fraction`` of the drain time so the loop gets several
    observations per burst.  An explicit ``control`` overrides the
    calibrated epoch.

    Returns per-mode rows, the closed-loop goodput gain, and
    ``static_bit_exact`` — whether two open-loop runs of the mix agree
    exactly (the open-loop determinism check).  A ``telemetry`` recorder,
    when given, traces the closed-loop run (the static runs stay
    untraced); recording never changes the simulated outcome.
    """
    config, tenants, rate_qps, sla_s, epoch_s = _calibrated_bursty_mix(
        model, num_devices, queries_per_tenant, overload, burstiness,
        sla_drain_fraction, epoch_drain_fraction, seed, context_samples,
        context_step)

    engine = ClusterEngine(
        config, tenants,
        default_model=model,
        context_step=context_step,
    )
    if control is None:
        control = ControlConfig(epoch_s=epoch_s)

    static = engine.run(placement_policy="sla_aware")
    static_again = engine.run(placement_policy="sla_aware", rebalance="off")
    closed = engine.run(placement_policy="sla_aware", control=control,
                        telemetry=telemetry)

    def row(mode: str, result: ClusterResult) -> Dict[str, object]:
        fractions = result.tenant_goodput_fractions
        return {
            "mode": mode,
            "aggregate_goodput_tokens_per_s": result.aggregate_goodput_tokens_per_s,
            "aggregate_throughput_tokens_per_s":
                result.aggregate_throughput_tokens_per_s,
            "early_goodput_fraction": fractions["early"],
            "late_goodput_fraction": fractions["late"],
            "early_devices": result.tenant_devices["early"],
            "late_devices": result.tenant_devices["late"],
            "num_rebalances": result.num_rebalances,
            "migration_stall_s": result.migration_stall_s,
            "max_min_goodput_ratio": result.max_min_goodput_ratio,
            "pool_utilization": result.pool_utilization,
        }

    rows: List[Dict[str, object]] = [
        row("static_sla_aware", static),
        row("closed_loop", closed),
    ]
    baseline = static.aggregate_goodput_tokens_per_s
    gain = (closed.aggregate_goodput_tokens_per_s / baseline
            if baseline > 0 else float("inf"))
    return {
        "rows": rows,
        "closed_loop_gain": gain,
        "static_bit_exact": static == static_again,
        "best_mode": max(rows, key=lambda r: r["aggregate_goodput_tokens_per_s"])["mode"],
        "rate_qps": rate_qps,
        "sla_s": sla_s,
        "epoch_s": control.epoch_s,
        "num_rebalances": closed.num_rebalances,
        "migration_stall_s": closed.migration_stall_s,
        "epoch_timeline": closed.epoch_timeline,
        "num_migrated_requests": closed.num_migrated_requests,
        "migrated_kv_bytes": closed.migrated_kv_bytes,
        "kv_migration_time_s": closed.kv_migration_time_s,
        "restored_progress_tokens": closed.restored_progress_tokens,
        # The full closed-loop result, for consumers that want more than
        # the flattened keys above (alert log, metrics timeline, reports).
        "closed_result": closed,
    }


def migration_study(
    model: ModelConfig = LLAMA2_7B,
    num_devices: int = 12,
    queries_per_tenant: int = 60,
    overload: float = 3.0,
    burstiness: float = 4.0,
    sla_drain_fraction: float = 0.4,
    epoch_drain_fraction: float = 0.13,
    seed: int = 2025,
    context_samples: int = 3,
    context_step: int = 512,
) -> Dict[str, object]:
    """Live KV migration vs restart-on-migrate on the closed-loop mix.

    Runs the phase-shifted bursty two-tenant mix of :func:`closed_loop_study`
    through the closed loop twice, holding everything but the migration mode
    fixed: ``restart`` throws a dismantled replica's in-flight progress away
    (the rebalancer pays for its re-placement twice — the priced weight
    reload *and* the unpriced lost work), ``live`` swaps the KV through host
    memory so requests resume at their original token.  Returns per-mode
    rows, the live-over-restart goodput gain, and the migration economics
    (requests moved, KV bytes, CXL time, progress tokens preserved).
    """
    config, tenants, rate_qps, sla_s, epoch_s = _calibrated_bursty_mix(
        model, num_devices, queries_per_tenant, overload, burstiness,
        sla_drain_fraction, epoch_drain_fraction, seed, context_samples,
        context_step)

    engine = ClusterEngine(
        config, tenants,
        default_model=model,
        context_step=context_step,
    )
    results = {
        mode: engine.run(
            placement_policy="sla_aware",
            control=ControlConfig(epoch_s=epoch_s, migration=mode))
        for mode in ("restart", "live")
    }

    def row(mode: str, result: ClusterResult) -> Dict[str, object]:
        return {
            "mode": mode,
            "aggregate_goodput_tokens_per_s": result.aggregate_goodput_tokens_per_s,
            "num_rebalances": result.num_rebalances,
            "migration_stall_s": result.migration_stall_s,
            "num_migrated_requests": result.num_migrated_requests,
            "migrated_kv_bytes": result.migrated_kv_bytes,
            "kv_migration_time_s": result.kv_migration_time_s,
            "restored_progress_tokens": result.restored_progress_tokens,
            "max_min_goodput_ratio": result.max_min_goodput_ratio,
        }

    rows = [row(mode, result) for mode, result in results.items()]
    baseline = results["restart"].aggregate_goodput_tokens_per_s
    live = results["live"]
    gain = (live.aggregate_goodput_tokens_per_s / baseline
            if baseline > 0 else float("inf"))
    return {
        "rows": rows,
        "live_gain": gain,
        "best_mode": max(rows, key=lambda r: r["aggregate_goodput_tokens_per_s"])["mode"],
        "rate_qps": rate_qps,
        "sla_s": sla_s,
        "epoch_s": epoch_s,
        "num_migrated_requests": live.num_migrated_requests,
        "migrated_kv_bytes": live.migrated_kv_bytes,
        "kv_migration_time_s": live.kv_migration_time_s,
        "restored_progress_tokens": live.restored_progress_tokens,
        "migration_stall_s": live.migration_stall_s,
    }
