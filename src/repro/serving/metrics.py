"""Aggregation of per-request measurements into a :class:`ServingResult`.

The percentile machinery (``percentile``, :class:`LatencyStats`) lives in
``repro.core.results`` next to the result containers; this module re-exports
it and adds the trace-level aggregation the engine runs after the event loop
drains.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import FOLD_CHUNK, LatencyStats, ServingResult, percentile
from repro.serving.request import RequestColumns, RequestState, ServingRequest

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


def _stretch_samples(gaps: np.ndarray, heads: np.ndarray, first: np.ndarray,
                     last: np.ndarray, chunk: int) -> Iterator[np.ndarray]:
    """The samples of stretches ``(heads, first, last)`` in order, in
    arrays of about ``chunk`` samples (one long stretch may exceed it):
    each stretch's ``head``, then ``gaps[first + 1 .. last]``."""
    lengths = last - first + 1
    ends = np.cumsum(lengths)
    start = 0
    while start < ends.size:
        base = int(ends[start] - lengths[start])
        stop = max(int(np.searchsorted(ends, base + chunk, side="right")),
                   start + 1)
        spans = lengths[start:stop]
        offsets = ends[start:stop] - spans - base
        samples = gaps[np.arange(int(ends[stop - 1]) - base)
                       + np.repeat(first[start:stop] - offsets, spans)]
        samples[offsets] = heads[start:stop]
        yield samples
        start = stop


def _completed_samples(
    completed: Sequence[ServingRequest],
) -> Tuple[np.ndarray, np.ndarray, LatencyStats]:
    """TTFT and query-latency samples of ``completed``, in request order,
    gathered straight out of each request store's columns, and the TBT
    statistics of the same requests (:func:`_tbt_stats`).  An unset
    timestamp (NaN) yields no sample, like the ``None`` of
    :attr:`ServingRequest.ttft_s`."""
    ttft, latency = np.empty(len(completed)), np.empty(len(completed))
    stores: Dict[int, Tuple[RequestColumns, List[int], List[int]]] = {}
    for position, request in enumerate(completed):
        columns = request.columns
        entry = stores.get(id(columns))
        if entry is None:
            entry = stores[id(columns)] = (columns, [], [])
        entry[1].append(request.row)
        entry[2].append(position)
    for columns, rows, positions in stores.values():
        arrival = columns.arrival_time_s[rows]
        ttft[positions] = columns.first_token_time_s[rows] - arrival
        latency[positions] = columns.finish_time_s[rows] - arrival
    return ttft, latency, _tbt_stats(list(stores.values()))


def _tbt_stats(
    stores: Sequence[Tuple[RequestColumns, List[int], List[int]]],
) -> LatencyStats:
    """TBT statistics of each store's ``rows``, ordered by ``positions``.

    The samples are rebuilt from each store's step clocks and stretches
    (:class:`~repro.serving.request.RequestColumns`), never all at once.
    The stores' step gaps are laid end to end behind one leading pad, so
    one set of stretch arrays indexes them all.  The mean folds the
    samples in request order, chunk by chunk.  The percentiles read
    ``(value, count)`` pairs: every step gap, counted once per stretch
    that covers it (a +1/-1 difference array), plus each stretch's first
    sample once.  Every temporary is O(steps + stretches).
    """
    total = 1 + sum(columns.steps for columns, _, _ in stores)
    gap = np.zeros(total)
    owners, heads, firsts, lasts = [], [], [], []
    offset = 1
    for columns, rows, positions in stores:
        clocks = columns.step_clocks[:columns.steps]
        np.subtract(clocks[1:], clocks[:-1],
                    out=gap[offset + 1:offset + columns.steps])
        rank = np.full(columns.size, -1)
        rank[rows] = positions
        owner = rank[columns.stretch_row[:columns.stretches]]
        mine = np.flatnonzero(owner >= 0)
        owners.append(owner[mine])
        heads.append(columns.stretch_gap[mine])
        firsts.append(columns.stretch_first[mine] + offset)
        lasts.append(columns.stretch_ends()[mine] + offset)
        offset += columns.steps
    if not owners:
        return LatencyStats()
    head, first, last = (np.concatenate(parts)
                         for parts in (heads, firsts, lasts))
    cover = np.bincount(first + 1, minlength=total + 1)
    cover -= np.bincount(last + 1, minlength=total + 1)
    cover = np.cumsum(cover[:total], out=cover[:total])
    covered = np.flatnonzero(cover)
    values = np.empty(covered.size + head.size)
    counts = np.ones(values.size, dtype=np.int64)
    np.take(gap, covered, out=values[:covered.size])
    np.take(cover, covered, out=counts[:covered.size])
    values[covered.size:] = head
    del cover, covered
    # Stable: a request's stretches stay oldest first.
    order = np.argsort(np.concatenate(owners), kind="stable")
    return LatencyStats.from_counts(
        _stretch_samples(gap, head[order], first[order], last[order],
                         FOLD_CHUNK),
        values, counts)


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

    ttft, latency, tbt = _completed_samples(completed)
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
        tbt=tbt,
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
