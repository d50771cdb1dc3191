"""Result containers of the CENT inference and serving simulations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.metrics import MetricsRegistry, MetricsSnapshot
from repro.telemetry.slo import AlertLog

__all__ = [
    "LatencyBreakdown",
    "InferenceResult",
    "LatencyStats",
    "ServingResult",
    "ClusterResult",
    "check_sla_latency_s",
    "percentile",
]


def check_sla_latency_s(sla_latency_s: Optional[float]) -> None:
    """Reject an SLA latency bound that is not a finite positive number
    (``None`` means no bound).  A NaN bound would otherwise pass a
    ``<= 0`` check and count no request as within the SLA."""
    if sla_latency_s is not None and not (math.isfinite(sla_latency_s)
                                          and sla_latency_s > 0):
        raise ValueError("sla_latency_s, the SLA latency bound, must be a "
                         f"finite positive number, got {sla_latency_s!r}")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` with linear interpolation.

    ``numpy.percentile``'s default (``linear``) method, plus a total
    behaviour for the empty sample set (0.0) so result containers need no
    special cases.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    values = np.array(list(samples), dtype=np.float64)
    if not values.size:
        return 0.0
    return linear_percentiles(values, (q,))[0]


def linear_percentiles(values: np.ndarray, qs: Sequence[float]) -> List[float]:
    """``np.percentile(values, qs)`` (``linear`` method) bit for bit.

    ``values`` is a non-empty 1-D float64 array; it is left partitioned.
    The steps are numpy's own (virtual index ``(n - 1) * q / 100``, one
    partition at the neighbouring ranks, numpy's two-sided lerp), minus
    its ``np.unique`` call, whose first use in a process imports
    ``numpy.ma`` (~16 ms of every cold serve call).
    """
    last = values.size - 1
    ranks = []
    for q in qs:
        virtual = last * (q / 100)
        # A rank at or past the end reads the last value; numpy marks it
        # -1, which also enters the interpolation weight.
        low = int(math.floor(virtual)) if virtual < last else -1
        ranks.append((virtual, low, low + 1 if low >= 0 else -1))
    kth = sorted({0, -1}.union(*((low, high) for _, low, high in ranks)))
    values.partition(np.array(kth, dtype=np.intp))
    if math.isnan(values[-1]):
        return [float(values[-1])] * len(ranks)
    out = []
    for virtual, low, high in ranks:
        a, b = float(values[low]), float(values[high])
        t = virtual - low
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


#: Samples per ``cumsum`` slice of :func:`_left_fold`; bounds its scratch.
FOLD_CHUNK = 1 << 16


def _left_fold(values: np.ndarray) -> float:
    """``values[0] + values[1] + ...`` folded left to right.

    Each slice's ``cumsum`` is seeded with the running total, so the result
    has the bits of one full-length ``cumsum`` without its full-size
    temporary.
    """
    scratch = np.empty(min(values.size, FOLD_CHUNK) + 1)
    total = values[0]
    for start in range(1, values.size, FOLD_CHUNK):
        chunk = values[start:start + FOLD_CHUNK]
        seeded = scratch[:chunk.size + 1]
        seeded[0] = total
        seeded[1:] = chunk
        total = np.cumsum(seeded, out=seeded)[-1]
    return float(total)


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample set (all values in seconds)."""

    count: int = 0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p90_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Summary statistics of ``samples``.

        The mean is the sequential left fold ``s[0] + s[1] + ...`` (the
        builtin ``sum`` order) bit for bit; the percentiles are
        ``np.percentile``'s (:func:`linear_percentiles`).  A float64 array
        is used as is and left reordered (the percentiles partition it in
        place rather than copy it), so pass a copy to keep its order.
        """
        values = np.asarray(samples, dtype=np.float64)
        if values.size == 0:
            return cls()
        mean_s = _left_fold(values) / values.size
        p50, p90, p99 = linear_percentiles(values.ravel(), (50.0, 90.0, 99.0))
        return cls(
            count=int(values.size),
            mean_s=mean_s,
            p50_s=float(p50),
            p90_s=float(p90),
            p99_s=float(p99),
            max_s=float(values.max()),
        )


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency components of one transformer block (or one token), in ns."""

    pim_ns: float = 0.0
    pnm_ns: float = 0.0
    cxl_ns: float = 0.0
    host_ns: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pim_ns", "pnm_ns", "cxl_ns", "host_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_ns(self) -> float:
        return self.pim_ns + self.pnm_ns + self.cxl_ns + self.host_ns

    def scaled(self, factor: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            pim_ns=self.pim_ns * factor,
            pnm_ns=self.pnm_ns * factor,
            cxl_ns=self.cxl_ns * factor,
            host_ns=self.host_ns * factor,
        )

    def plus(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            pim_ns=self.pim_ns + other.pim_ns,
            pnm_ns=self.pnm_ns + other.pnm_ns,
            cxl_ns=self.cxl_ns + other.cxl_ns,
            host_ns=self.host_ns + other.host_ns,
        )

    def fractions(self) -> Dict[str, float]:
        """Relative share of each component (used by Figure 14c)."""
        total = self.total_ns
        if total == 0:
            return {"pim": 0.0, "pnm": 0.0, "cxl": 0.0, "host": 0.0}
        return {
            "pim": self.pim_ns / total,
            "pnm": self.pnm_ns / total,
            "cxl": self.cxl_ns / total,
            "host": self.host_ns / total,
        }


@dataclass
class InferenceResult:
    """End-to-end outcome of serving one batch of identical queries."""

    model_name: str
    plan_name: str
    prompt_tokens: int
    decode_tokens: int
    queries_in_flight: int
    prefill_latency_s: float
    decode_latency_s: float
    prefill_throughput_tokens_per_s: float
    decode_throughput_tokens_per_s: float
    token_latency_breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    devices_used: int = 0
    average_power_w: float = 0.0
    energy_per_token_j: float = 0.0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.decode_tokens < 0:
            raise ValueError("token counts must be non-negative")
        if self.queries_in_flight <= 0:
            raise ValueError("at least one query must be in flight")

    # ------------------------------------------------------------------ latency

    @property
    def query_latency_s(self) -> float:
        """End-to-end latency of one query (prefill + decoding)."""
        return self.prefill_latency_s + self.decode_latency_s

    @property
    def token_latency_s(self) -> float:
        """Average decoding latency per output token of one query."""
        if self.decode_tokens == 0:
            return 0.0
        return self.decode_latency_s / self.decode_tokens

    # ------------------------------------------------------------------ throughput

    @property
    def end_to_end_throughput_tokens_per_s(self) -> float:
        """Output tokens per second across all in-flight queries, counting the
        whole query duration (prefill + decode)."""
        if self.query_latency_s == 0:
            return 0.0
        total_output_tokens = self.decode_tokens * self.queries_in_flight
        return total_output_tokens / self.query_latency_s

    # ------------------------------------------------------------------ efficiency

    @property
    def tokens_per_joule(self) -> float:
        if self.energy_per_token_j <= 0:
            return 0.0
        return 1.0 / self.energy_per_token_j

    def tokens_per_dollar(self, dollars_per_hour: float) -> float:
        """Cost efficiency given a total cost of ownership rate."""
        if dollars_per_hour <= 0:
            raise ValueError("cost rate must be positive")
        tokens_per_hour = self.end_to_end_throughput_tokens_per_s * 3600.0
        return tokens_per_hour / dollars_per_hour


@dataclass(frozen=True)
class ServingResult:
    """Measured outcome of one trace-driven serving run.

    Produced by :class:`repro.serving.ServingEngine`; all latency statistics
    are measured per request over the event-driven run, not derived from
    closed-form batch math.
    """

    model_name: str
    plan_name: str
    num_requests: int
    num_completed: int
    num_rejected: int
    makespan_s: float
    ttft: LatencyStats = field(default_factory=LatencyStats)
    tbt: LatencyStats = field(default_factory=LatencyStats)
    query_latency: LatencyStats = field(default_factory=LatencyStats)
    #: Per-request time from first to last token (query latency minus TTFT).
    decode_latency: LatencyStats = field(default_factory=LatencyStats)
    total_prompt_tokens: int = 0
    total_decode_tokens: int = 0
    prefill_time_s: float = 0.0
    decode_time_s: float = 0.0
    decode_step_tokens: int = 0
    peak_memory_bytes: int = 0
    memory_capacity_bytes: int = 0
    sla_latency_s: Optional[float] = None
    completed_within_sla: int = 0
    sla_decode_tokens: int = 0
    #: Evictions under paged admission (``repro.kvstore``); all zero on the
    #: legacy ``admission="reserve"`` path.
    num_preemptions: int = 0
    num_swap_outs: int = 0
    num_swap_ins: int = 0
    #: Total CXL time spent staging KV caches out and back (swap restore).
    swap_time_s: float = 0.0
    #: Tokens re-prefilled to rebuild evicted KV (recompute restore).
    recompute_tokens: int = 0
    #: Total time preempted requests spent off the device (eviction to
    #: decode-ready), summed over requests.
    preemption_stall_time_s: float = 0.0
    #: Requests this engine received mid-flight through live KV migration,
    #: and the host-staged KV bytes that travelled with them.
    num_migrated_in: int = 0
    migrated_kv_bytes: int = 0
    #: Shared-prefix KV cache accounting (``prefix_sharing`` in paged
    #: mode): admissions of prefix-tagged requests, the subset that
    #: attached to a resident chain, the prefix tokens whose prefill those
    #: hits skipped, and the copy-on-write blocks taken of partial chain
    #: tails.  All zero with sharing off or a prefix-free trace.
    num_prefix_lookups: int = 0
    num_prefix_hits: int = 0
    prefix_hit_tokens: int = 0
    num_cow_blocks: int = 0
    #: Per-iteration ``(time_s, queued, running)`` samples: ``queued`` are
    #: arrived requests not currently running (admission queue plus any
    #: preempted victims awaiting restore).  The measured backlog signal a
    #: cluster router can feed back into its dispatch decisions.
    queue_depth_timeline: Tuple[Tuple[float, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.num_requests < 0 or self.num_completed < 0 or self.num_rejected < 0:
            raise ValueError("request counts must be non-negative")
        if self.num_completed + self.num_rejected > self.num_requests:
            raise ValueError("completed + rejected cannot exceed the trace size")
        if self.makespan_s < 0:
            raise ValueError("makespan must be non-negative")
        if (self.num_preemptions < 0 or self.num_swap_outs < 0
                or self.num_swap_ins < 0):
            raise ValueError("preemption counters must be non-negative")
        if (self.swap_time_s < 0 or self.recompute_tokens < 0
                or self.preemption_stall_time_s < 0):
            raise ValueError("preemption costs must be non-negative")
        if self.num_migrated_in < 0 or self.migrated_kv_bytes < 0:
            raise ValueError("migration counters must be non-negative")
        if (self.num_prefix_lookups < 0 or self.num_prefix_hits < 0
                or self.prefix_hit_tokens < 0 or self.num_cow_blocks < 0):
            raise ValueError("prefix-cache counters must be non-negative")
        if self.num_prefix_hits > self.num_prefix_lookups:
            raise ValueError("prefix hits cannot exceed prefix lookups")

    # ------------------------------------------------------------------ throughput

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per wall-clock second over the whole run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_decode_tokens / self.makespan_s

    @property
    def queries_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.num_completed / self.makespan_s

    @property
    def decode_throughput_tokens_per_s(self) -> float:
        """Tokens per second over the time the engine spent in decode steps.

        For the static special case (all arrivals at t=0, identical queries,
        full batch) this equals the closed-form decode throughput of
        ``CentSystem.run_inference``.
        """
        if self.decode_time_s <= 0:
            return 0.0
        return self.decode_step_tokens / self.decode_time_s

    # ------------------------------------------------------------------ goodput

    @property
    def goodput_queries_per_s(self) -> float:
        """SLA-compliant completed queries per second (all, without an SLA)."""
        if self.makespan_s <= 0:
            return 0.0
        if self.sla_latency_s is None:
            return self.queries_per_s
        return self.completed_within_sla / self.makespan_s

    @property
    def goodput_tokens_per_s(self) -> float:
        """Generated tokens of SLA-compliant queries per second."""
        if self.makespan_s <= 0:
            return 0.0
        if self.sla_latency_s is None:
            return self.throughput_tokens_per_s
        return self.sla_decode_tokens / self.makespan_s

    @property
    def sla_violation_fraction(self) -> float:
        if self.sla_latency_s is None or self.num_completed == 0:
            return 0.0
        return 1.0 - self.completed_within_sla / self.num_completed

    @property
    def rejection_fraction(self) -> float:
        if self.num_requests == 0:
            return 0.0
        return self.num_rejected / self.num_requests

    # ------------------------------------------------------------------ preemption

    @property
    def preemptions_per_completed(self) -> float:
        """Mean evictions per completed request (thrash indicator)."""
        if self.num_completed == 0:
            return 0.0
        return self.num_preemptions / self.num_completed

    # ------------------------------------------------------------------ prefix cache

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-tagged admissions that reused a resident
        chain (zero when the trace carries no prefixes)."""
        if self.num_prefix_lookups == 0:
            return 0.0
        return self.num_prefix_hits / self.num_prefix_lookups

    # ------------------------------------------------------------------ backlog

    @property
    def peak_queue_depth(self) -> int:
        """Largest number of arrived-but-not-running requests observed."""
        return max((queued for _, queued, _ in self.queue_depth_timeline),
                   default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean backlog over the run.

        Each sample holds until the next one (the last until the makespan),
        matching the event loop's piecewise-constant view of the queue.
        """
        timeline = self.queue_depth_timeline
        if not timeline:
            return 0.0
        end = max(self.makespan_s, timeline[-1][0])
        start = timeline[0][0]
        span = end - start
        if span <= 0:
            return float(timeline[-1][1])
        weighted = 0.0
        for (t, queued, _), (t_next, _, _) in zip(
                timeline, list(timeline[1:]) + [(end, 0, 0)], strict=True):
            weighted += queued * (t_next - t)
        return weighted / span

    # ------------------------------------------------------------------ telemetry

    @property
    def metrics(self) -> MetricsSnapshot:
        """This run's scattered counters behind one namespace.

        One :class:`~repro.telemetry.MetricsSnapshot` (``serving.*`` /
        ``kv.*`` names) so dashboards and the BENCH harness read every run
        the same way regardless of which subsystem produced the number.
        """
        registry = MetricsRegistry()
        registry.set_counter("serving.requests", self.num_requests)
        registry.set_counter("serving.completed", self.num_completed)
        registry.set_counter("serving.rejected", self.num_rejected)
        registry.set_counter("serving.preemptions", self.num_preemptions)
        registry.set_counter("serving.swap_outs", self.num_swap_outs)
        registry.set_counter("serving.swap_ins", self.num_swap_ins)
        registry.set_counter("serving.recompute_tokens", self.recompute_tokens)
        registry.set_counter("serving.migrated_in", self.num_migrated_in)
        registry.set_counter("serving.prompt_tokens", self.total_prompt_tokens)
        registry.set_counter("serving.decode_tokens", self.total_decode_tokens)
        registry.set_gauge("serving.makespan_s", self.makespan_s)
        registry.set_gauge("serving.throughput_tokens_per_s",
                           self.throughput_tokens_per_s)
        registry.set_gauge("serving.goodput_tokens_per_s",
                           self.goodput_tokens_per_s)
        registry.set_gauge("serving.preemption_stall_s",
                           self.preemption_stall_time_s)
        registry.set_gauge("serving.swap_time_s", self.swap_time_s)
        registry.set_gauge("serving.peak_queue_depth",
                           float(self.peak_queue_depth))
        registry.set_counter("kv.prefix_lookups", self.num_prefix_lookups)
        registry.set_counter("kv.prefix_hits", self.num_prefix_hits)
        registry.set_counter("kv.prefix_hit_tokens", self.prefix_hit_tokens)
        registry.set_counter("kv.cow_blocks", self.num_cow_blocks)
        registry.set_gauge("serving.prefix_hit_rate", self.prefix_hit_rate)
        registry.set_counter("kv.migrated_bytes", self.migrated_kv_bytes)
        registry.set_gauge("kv.peak_memory_bytes",
                           float(self.peak_memory_bytes))
        if self.memory_capacity_bytes:
            registry.set_gauge(
                "kv.pool_occupancy",
                self.peak_memory_bytes / self.memory_capacity_bytes)
        return registry.snapshot(self.makespan_s, record=False)


@dataclass(frozen=True)
class ClusterResult:
    """Measured outcome of one multi-tenant run on a shared device pool.

    Produced by ``repro.cluster``: one :class:`ServingResult` per tenant
    (each against that tenant's own SLA), plus the pool-level aggregates a
    capacity planner compares placement policies by — aggregate SLA
    goodput, fairness across tenants, and device-pool utilisation.

    Horizon semantics: each tenant's :class:`ServingResult` rates are
    measured over *that tenant's own completion horizon* (so a
    single-tenant cluster reproduces ``ServingEngine.run`` exactly, and a
    short-lived tenant's rate reflects the service it saw), while the
    ``aggregate_*`` properties divide by the *cluster makespan*.  Summing
    per-tenant rates therefore over-counts relative to the aggregates;
    compare tenants through :attr:`tenant_goodput_fractions`, which is
    horizon-free.
    """

    placement_policy: str
    pool_devices: int
    devices_used: int
    makespan_s: float
    #: Per-tenant measured serving statistics, keyed by tenant name.
    tenant_results: Dict[str, ServingResult] = field(default_factory=dict)
    #: Devices of each tenant's replica in the final placement.
    tenant_devices: Dict[str, int] = field(default_factory=dict)
    #: Decode-token demand of each tenant's full trace (including requests
    #: later rejected), the denominator of the fairness normalisation.
    tenant_offered_decode_tokens: Dict[str, int] = field(default_factory=dict)
    #: Sum over replicas of (busy seconds x devices); busy = prefill + decode.
    busy_device_seconds: float = 0.0
    #: Epoch length of a closed-loop run (``repro.cluster.control``); ``None``
    #: for the open-loop single-shot path, whose fields below stay empty.
    epoch_s: Optional[float] = None
    #: Re-placements the control loop actually applied.
    num_rebalances: int = 0
    #: Total time newly (re)built replicas spent reloading weights over the
    #: CXL fabric before serving (summed over rebalance events; concurrent
    #: reloads within one event count once at the slowest replica).
    migration_stall_s: float = 0.0
    #: Per-epoch pool-level rows ``(epoch_start_s, goodput_tokens_per_s,
    #: mean_queue_depth)``: SLA-compliant decode tokens finishing in the
    #: epoch over the epoch length, and the time-weighted mean measured
    #: backlog across all replicas.
    epoch_timeline: Tuple[Tuple[float, float, float], ...] = ()
    #: ``(time_s, stall_s)`` per applied re-placement, in epoch order.
    rebalance_log: Tuple[Tuple[float, float], ...] = ()
    #: In-flight requests live-migrated (KV through host memory) when their
    #: replica was dismantled; ``migration="restart"`` leaves all four zero.
    num_migrated_requests: int = 0
    #: KV bytes live migrations streamed through host memory.
    migrated_kv_bytes: int = 0
    #: CXL time spent streaming migrated KV out of dismantled replicas and
    #: into their destinations (per-request swap pricing, summed).
    kv_migration_time_s: float = 0.0
    #: Prefill + decode progress tokens live migration preserved that a
    #: restart-on-migrate would have recomputed from scratch.
    restored_progress_tokens: int = 0
    #: Epoch index (simulated time / ``epoch_s``) at which a closed-loop
    #: run hit ``ControlConfig.max_epochs`` and drained the rest open loop
    #: (no further measurement or re-placement); ``None`` when the run
    #: drained under control, and for the open loop.  Idle gaps advance the
    #: index without being measured, so it can exceed
    #: ``len(epoch_timeline)``.
    control_stopped_epoch: Optional[int] = None
    #: One :class:`~repro.telemetry.MetricsSnapshot` per control epoch when
    #: the run was traced (``telemetry=`` on :meth:`ClusterEngine.run`);
    #: empty for untraced and open-loop runs.
    metrics_timeline: Tuple[MetricsSnapshot, ...] = ()
    #: Alerts the :class:`~repro.telemetry.slo.SloMonitor` raised while the
    #: run was traced; empty (and no rules evaluated) for untraced and
    #: open-loop runs.
    alert_log: AlertLog = AlertLog()

    def __post_init__(self) -> None:
        if self.pool_devices <= 0:
            raise ValueError("the pool needs at least one device")
        if self.devices_used > self.pool_devices:
            raise ValueError("cannot use more devices than the pool holds")
        if self.makespan_s < 0 or self.busy_device_seconds < 0:
            raise ValueError("times must be non-negative")
        if self.epoch_s is not None and self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive when set")
        if self.num_rebalances < 0 or self.migration_stall_s < 0:
            raise ValueError("rebalance accounting must be non-negative")
        if (self.num_migrated_requests < 0 or self.migrated_kv_bytes < 0
                or self.kv_migration_time_s < 0
                or self.restored_progress_tokens < 0):
            raise ValueError("migration accounting must be non-negative")
        missing = set(self.tenant_results) - set(self.tenant_offered_decode_tokens)
        if missing:
            raise ValueError(
                f"tenants {sorted(missing)} have results but no offered-token "
                "demand; the fairness normalisation needs both"
            )

    # ------------------------------------------------------------------ aggregates

    @property
    def num_tenants(self) -> int:
        return len(self.tenant_results)

    @property
    def aggregate_throughput_tokens_per_s(self) -> float:
        """Generated tokens of all tenants per wall-clock second of the run."""
        if self.makespan_s <= 0:
            return 0.0
        total = sum(r.total_decode_tokens for r in self.tenant_results.values())
        return total / self.makespan_s

    @property
    def aggregate_goodput_tokens_per_s(self) -> float:
        """SLA-compliant generated tokens (per tenant SLA) per second."""
        if self.makespan_s <= 0:
            return 0.0
        total = sum(r.sla_decode_tokens for r in self.tenant_results.values())
        return total / self.makespan_s

    # ------------------------------------------------------------------ fairness

    @property
    def tenant_goodput_fractions(self) -> Dict[str, float]:
        """Per tenant: SLA-compliant decode tokens over offered decode tokens.

        The natural normalised-service metric for asymmetric demand: a value
        of 1.0 means every offered token was delivered within the tenant's
        SLA, regardless of how large the tenant's traffic is.
        """
        fractions = {}
        for name, result in self.tenant_results.items():
            offered = self.tenant_offered_decode_tokens[name]
            fractions[name] = result.sla_decode_tokens / offered if offered else 0.0
        return fractions

    @property
    def max_min_goodput_ratio(self) -> float:
        """Min over max of the tenants' normalised goodput (1.0 = perfectly fair).

        A run where *no* tenant got any goodput is total collapse, not
        fairness, and scores 0.0 so it cannot tie with a genuinely fair
        policy when ranking.
        """
        fractions = list(self.tenant_goodput_fractions.values())
        if not fractions:
            return 1.0
        worst, best = min(fractions), max(fractions)
        if best <= 0:
            return 0.0
        return worst / best

    @property
    def jain_fairness_index(self) -> float:
        """Jain's index over the tenants' normalised goodput, in [0, 1].

        0.0 when every tenant's goodput is zero (total collapse), like
        :attr:`max_min_goodput_ratio`.
        """
        fractions = list(self.tenant_goodput_fractions.values())
        if not fractions:
            return 1.0
        total = sum(fractions)
        squares = sum(f * f for f in fractions)
        if squares <= 0:
            return 0.0
        return total * total / (len(fractions) * squares)

    # ------------------------------------------------------------------ utilisation

    @property
    def pool_utilization(self) -> float:
        """Busy device-seconds over available device-seconds of the run."""
        if self.makespan_s <= 0:
            return 0.0
        return self.busy_device_seconds / (self.makespan_s * self.pool_devices)

    # ------------------------------------------------------------------ preemption

    @property
    def total_preemptions(self) -> int:
        """Pool-wide evictions under paged admission, across all tenants."""
        return sum(r.num_preemptions for r in self.tenant_results.values())

    @property
    def total_swap_time_s(self) -> float:
        """Pool-wide CXL time spent swapping KV caches out and back."""
        return sum(r.swap_time_s for r in self.tenant_results.values())

    @property
    def total_preemption_stall_s(self) -> float:
        """Pool-wide time requests spent evicted, summed over requests."""
        return sum(r.preemption_stall_time_s for r in self.tenant_results.values())

    # ------------------------------------------------------------------ telemetry

    @property
    def metrics(self) -> MetricsSnapshot:
        """Pool-level counters behind one namespace (``cluster.*`` plus the
        tenants' summed ``serving.*``), mirroring
        :attr:`ServingResult.metrics`."""
        tenants = self.tenant_results.values()
        registry = MetricsRegistry()
        registry.set_counter("serving.requests",
                             sum(r.num_requests for r in tenants))
        registry.set_counter("serving.completed",
                             sum(r.num_completed for r in tenants))
        registry.set_counter("serving.rejected",
                             sum(r.num_rejected for r in tenants))
        registry.set_counter("serving.preemptions", self.total_preemptions)
        registry.set_gauge("serving.swap_time_s", self.total_swap_time_s)
        registry.set_gauge("serving.preemption_stall_s",
                           self.total_preemption_stall_s)
        registry.set_counter("cluster.rebalances", self.num_rebalances)
        registry.set_counter("cluster.migrated_requests",
                             self.num_migrated_requests)
        registry.set_counter("kv.migrated_bytes", self.migrated_kv_bytes)
        registry.set_gauge("cluster.migration_stall_s", self.migration_stall_s)
        registry.set_gauge("cluster.kv_migration_time_s",
                           self.kv_migration_time_s)
        registry.set_gauge("cluster.goodput_tokens_per_s",
                           self.aggregate_goodput_tokens_per_s)
        registry.set_gauge("cluster.throughput_tokens_per_s",
                           self.aggregate_throughput_tokens_per_s)
        registry.set_gauge("cluster.pool_utilization", self.pool_utilization)
        registry.set_gauge("cluster.fairness_jain", self.jain_fairness_index)
        return registry.snapshot(self.makespan_s, record=False)
