"""Aggregation of per-request measurements into a :class:`ServingResult`.

The percentile machinery (``percentile``, :class:`LatencyStats`) lives in
``repro.core.results`` next to the result containers; this module re-exports
it and adds the trace-level aggregation the engine runs after the event loop
drains.
"""

from __future__ import annotations

from itertools import compress, groupby
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.results import LatencyStats, ServingResult, percentile
from repro.serving.request import RequestState, ServingRequest

__all__ = [
    "LatencyStats",
    "percentile",
    "aggregate_serving_result",
    "merge_queue_depth_timelines",
    "window_decode_tokens",
    "window_mean_queue_depth",
]


def window_decode_tokens(
    requests: Sequence[ServingRequest],
    start_s: float,
    end_s: float,
    *,
    sla_latency_s: Optional[float] = None,
) -> int:
    """Decode tokens of requests that finished within ``[start_s, end_s)``.

    With ``sla_latency_s`` only SLA-compliant finishes count, making this the
    per-epoch goodput numerator the closed-loop cluster controller feeds back
    to its router and rebalancer; without one it is plain epoch throughput.
    """
    if end_s < start_s:
        raise ValueError(f"window end {end_s} precedes start {start_s}")
    total = 0
    for request in requests:
        finish = request.finish_time_s
        if finish is None or not start_s <= finish < end_s:
            continue
        if (sla_latency_s is not None and request.latency_s is not None
                and request.latency_s > sla_latency_s):
            continue
        total += request.query.decode_tokens
    return total


def window_mean_queue_depth(
    timeline: Sequence[Tuple[float, int, int]],
    start_s: float,
    end_s: float,
) -> float:
    """Time-weighted mean backlog of a queue-depth signal over one window.

    The timeline is piecewise-constant (each ``(time_s, queued, running)``
    sample holds until the next), so the sample in force at ``start_s`` is
    the last one at or before it; a window before the first sample (or an
    empty timeline) reads as zero backlog.
    """
    if end_s < start_s:
        raise ValueError(f"window end {end_s} precedes start {start_s}")
    span = end_s - start_s
    if span <= 0:
        return 0.0
    weighted = 0.0
    current = 0  # queued count in force at the window cursor
    cursor = start_s
    for time_s, queued, _ in timeline:
        if time_s <= start_s:
            current = queued
            continue
        if time_s >= end_s:
            break
        weighted += current * (time_s - cursor)
        cursor = time_s
        current = queued
    weighted += current * (end_s - cursor)
    return weighted / span


def merge_queue_depth_timelines(
    timelines: Sequence[Sequence[Tuple[float, int, int]]],
) -> list:
    """Sum concurrent per-replica backlog signals into one timeline.

    Each input is a piecewise-constant ``(time_s, queued, running)`` signal;
    the merged signal carries, at every sample time, the *sum* of each
    replica's most recent value — simply interleaving the samples would
    report one replica's backlog where the caller expects the pool's.  A
    single input comes back unchanged, so the single-replica tenant keeps
    engine parity.  Samples apply in ``(time, replica, queued, running)``
    order, each moving the integer sums by its change from its replica's
    previous sample.
    """
    timelines = [list(t) for t in timelines if t]
    if len(timelines) <= 1:
        return timelines[0] if timelines else []
    samples = np.array([sample for timeline in timelines
                        for sample in timeline], dtype=np.float64)
    replica = np.repeat(np.arange(len(timelines)), [len(t) for t in timelines])
    order = np.lexsort((samples[:, 2], samples[:, 1], replica, samples[:, 0]))
    times, replica = samples[order, 0], replica[order]
    counts = samples[order, 1:].astype(np.int64)
    # Stable: each replica's samples stay in the order they apply.
    by_replica = np.argsort(replica, kind="stable")
    follows = replica[by_replica[1:]] == replica[by_replica[:-1]]
    steps = counts.copy()
    steps[by_replica[1:][follows]] -= counts[by_replica[:-1][follows]]
    totals = np.cumsum(steps, axis=0)
    first = np.flatnonzero(np.append(True, times[1:] != times[:-1]))
    last = np.append(first[1:], len(times)) - 1
    return list(zip(times[first].tolist(), *totals[last].T.tolist()))


def _completed_samples(
    completed: Sequence[ServingRequest],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TTFT, query-latency and TBT samples of ``completed``, in request
    order, as new float64 arrays gathered straight out of each request
    store's columns.  The TBT samples dominate result volume on
    long-generation traces (one per generated token), so they are copied
    exactly once.  An unset timestamp (NaN) yields no sample, like the
    ``None`` of :attr:`ServingRequest.ttft_s`."""
    tbt, first, finish, arrival = [], [], [], []
    for columns, group in groupby(completed, key=lambda r: r.columns):
        rows = np.fromiter((r.row for r in group), dtype=np.intp)
        tbt.extend(columns.tbt_views(rows))
        first.append(columns.first_token_time_s[rows])
        finish.append(columns.finish_time_s[rows])
        arrival.append(columns.arrival_time_s[rows])
    if not tbt:
        return np.empty(0), np.empty(0), np.empty(0)
    arrival_s = np.concatenate(arrival)
    ttft = np.concatenate(first) - arrival_s
    latency = np.concatenate(finish) - arrival_s
    return ttft, latency, np.concatenate(tbt)


def aggregate_serving_result(
    requests: Sequence[ServingRequest],
    *,
    model_name: str,
    plan_name: str,
    makespan_s: float,
    prefill_time_s: float,
    decode_time_s: float,
    decode_step_tokens: int,
    peak_memory_bytes: int,
    memory_capacity_bytes: int,
    sla_latency_s: Optional[float] = None,
    queue_depth_timeline: Sequence[Tuple[float, int, int]] = (),
) -> ServingResult:
    """Fold the finished request set into a :class:`ServingResult`.

    Preemption, swap and stall counters are summed straight off the
    requests, so callers that re-attribute a run's requests to subsets
    (the multi-tenant cluster layer) get exact per-subset accounting for
    free; only the queue-depth timeline is engine-level and passed in.
    """
    completed = [r for r in requests if r.state is RequestState.FINISHED]
    rejected = [r for r in requests if r.state is RequestState.REJECTED]

    ttft, latency, tbts = _completed_samples(completed)
    decode = latency - ttft

    within_sla = completed
    if sla_latency_s is not None:
        within_sla = list(compress(completed,
                                   (latency <= sla_latency_s).tolist()))

    return ServingResult(
        model_name=model_name,
        plan_name=plan_name,
        num_requests=len(requests),
        num_completed=len(completed),
        num_rejected=len(rejected),
        makespan_s=makespan_s,
        ttft=LatencyStats.from_samples(ttft[~np.isnan(ttft)]),
        tbt=LatencyStats.from_samples(tbts),
        query_latency=LatencyStats.from_samples(latency[~np.isnan(latency)]),
        decode_latency=LatencyStats.from_samples(decode[~np.isnan(decode)]),
        total_prompt_tokens=sum(r.query.prompt_tokens for r in completed),
        total_decode_tokens=sum(r.query.decode_tokens for r in completed),
        prefill_time_s=prefill_time_s,
        decode_time_s=decode_time_s,
        decode_step_tokens=decode_step_tokens,
        peak_memory_bytes=peak_memory_bytes,
        memory_capacity_bytes=memory_capacity_bytes,
        sla_latency_s=sla_latency_s,
        completed_within_sla=len(within_sla),
        sla_decode_tokens=sum(r.query.decode_tokens for r in within_sla),
        num_preemptions=sum(r.preempted_count for r in requests),
        num_swap_outs=sum(r.num_swap_outs for r in requests),
        num_swap_ins=sum(r.num_swap_ins for r in requests),
        swap_time_s=sum(r.swap_time_s for r in requests),
        recompute_tokens=sum(r.recompute_tokens for r in requests),
        preemption_stall_time_s=sum(r.stall_s for r in requests),
        num_migrated_in=sum(r.migrated_count for r in requests),
        migrated_kv_bytes=sum(r.migrated_kv_bytes for r in requests),
        num_prefix_lookups=sum(r.prefix_lookups for r in requests),
        num_prefix_hits=sum(r.prefix_hits for r in requests),
        prefix_hit_tokens=sum(r.prefix_hit_tokens for r in requests),
        num_cow_blocks=sum(r.cow_blocks for r in requests),
        # The engine and merge_queue_depth_timelines already emit builtin
        # (float, int, int) samples.
        queue_depth_timeline=tuple(queue_depth_timeline),
    )
