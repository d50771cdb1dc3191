"""Time and resource attribution: where did the simulated seconds go?

The dynamic-serving generalisation of the paper's static analyses: the
per-request latency breakdown (Fig 14c decomposed per *phase* instead of
per hardware block) and the device-utilization accounting (Fig 2, measured
over an event-driven run instead of a closed-form batch).

Two complementary inputs:

* :func:`attribute_run` consumes an :class:`~repro.serving.engine.EngineRun`
  (the object ``ServingEngine.simulate`` returns) and decomposes **exact
  simulated time**: each finished request's latency splits into
  queued / prefill / prefill-stall / decode-stall / decode segments, each
  replica's makespan into prefill / decode / idle, and the CXL link's
  swap/migration traffic is totalled.  It needs no trace — the engine's
  per-request counters carry everything — so it works identically on
  traced and untraced, scalar and vectorized runs.
* :func:`attribute_trace` consumes the flat JSONL event dicts
  (``read_jsonl`` / ``iter_scope_events``) so ``python -m repro.telemetry``
  can answer the same questions about any *saved* trace: per-request
  phase walls with preempted overlays, per-scope busy/idle from the
  coalesced window spans, the KV block-pool occupancy timeline from the
  ``kv.*`` events, and CXL-link bytes from swap/migration records.

**Conservation invariant.**  Attribution that silently loses time is worse
than none: every :class:`RequestAttribution`'s segments sum *bit-exactly*
to its measured latency, and every :class:`ReplicaAttribution`'s segments
to its makespan.  The final segment of each decomposition is computed as
the residual of the same left-to-right fold ``segment_sum_s`` performs, so
the identity holds by construction — and :func:`verify_conservation`
(called by :func:`attribute_run` itself) additionally cross-checks the
residual against its independent closed form, so a subsystem that forgets
to account a stall fails loudly instead of shifting time into "decode".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ConservationError",
    "LinkAttribution",
    "ReplicaAttribution",
    "RequestAttribution",
    "RunAttribution",
    "TraceAttribution",
    "attribute_run",
    "attribute_trace",
    "attribution_table",
    "utilization_summary",
    "verify_conservation",
]

Event = Dict[str, Any]

#: Tolerance of the *cross-check* between a residual segment and its
#: independent closed form (never of the conservation identity itself,
#: which is exact): generous against float noise, far below any real
#: unaccounted stall.
_CROSS_CHECK_TOL_S = 1e-6


class ConservationError(AssertionError):
    """A time decomposition failed to add up to the measured total."""


# ---------------------------------------------------------------------------
# exact attribution over an EngineRun
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestAttribution:
    """One finished request's latency, decomposed.

    ``queued + prefill + prefill_stall + decode_stall + decode`` summed
    left to right reproduces ``latency_s`` bit-exactly (``decode_s`` is
    the residual of that fold).  The stall segments are the request's
    off-device time (eviction to decode-ready, swap-in drain, recompute
    rebuild) split at the first token; ``swap_s`` is the request's CXL
    time and overlaps the stalls, so it is reported alongside rather than
    summed.
    """

    request_id: int
    arrival_s: float
    latency_s: float
    queued_s: float
    prefill_s: float
    prefill_stall_s: float
    decode_stall_s: float
    decode_s: float
    #: CXL time of this request's swap-outs and swap-ins (informational).
    swap_s: float
    num_preemptions: int
    migrated_count: int

    #: Segment order of the conservation fold.
    SEGMENT_KINDS = ("queued", "prefill", "prefill_stall",
                     "decode_stall", "decode")

    @property
    def segments(self) -> Tuple[Tuple[str, float], ...]:
        return (("queued", self.queued_s),
                ("prefill", self.prefill_s),
                ("prefill_stall", self.prefill_stall_s),
                ("decode_stall", self.decode_stall_s),
                ("decode", self.decode_s))

    @property
    def segment_sum_s(self) -> float:
        """Left-to-right fold of the segments (the conserved total)."""
        total = 0.0
        for _, seconds in self.segments:
            total += seconds
        return total


@dataclass(frozen=True)
class ReplicaAttribution:
    """One replica's makespan, decomposed into busy and idle time.

    ``prefill_busy + decode_busy + idle`` summed left to right reproduces
    ``makespan_s`` bit-exactly (``idle_s`` is the fold's residual).  Idle
    covers everything the engine did not spend in iterations: arrival
    gaps, swap serialisation, weight-reload stalls.
    """

    name: str
    makespan_s: float
    prefill_busy_s: float
    decode_busy_s: float
    idle_s: float

    @property
    def segments(self) -> Tuple[Tuple[str, float], ...]:
        return (("prefill", self.prefill_busy_s),
                ("decode", self.decode_busy_s),
                ("idle", self.idle_s))

    @property
    def segment_sum_s(self) -> float:
        total = 0.0
        for _, seconds in self.segments:
            total += seconds
        return total

    @property
    def busy_fraction(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return (self.prefill_busy_s + self.decode_busy_s) / self.makespan_s


@dataclass(frozen=True)
class LinkAttribution:
    """CXL-link traffic of a run: swap restores plus live migrations."""

    #: Link time spent staging KV out and back (summed over requests).
    swap_busy_s: float
    num_swap_outs: int
    num_swap_ins: int
    #: KV bytes that travelled through host memory for live migrations.
    migrated_kv_bytes: int
    num_migrated_in: int


@dataclass(frozen=True)
class RunAttribution:
    """Full attribution of one engine run (conservation-verified)."""

    replica: ReplicaAttribution
    #: One row per *finished* request, in request-id order; unfinished and
    #: rejected requests have no complete latency to decompose and are
    #: counted instead.
    requests: Tuple[RequestAttribution, ...]
    num_requests: int
    num_finished: int
    num_rejected: int
    num_unfinished: int
    link: LinkAttribution

    def totals(self) -> Dict[str, float]:
        """Summed request segments (seconds per kind, across requests)."""
        sums = {kind: 0.0 for kind in RequestAttribution.SEGMENT_KINDS}
        for row in self.requests:
            for kind, seconds in row.segments:
                sums[kind] += seconds
        return sums


def _residual(total: float, acc: float) -> float:
    """The final segment that makes ``acc``'s fold reach ``total`` exactly.

    ``total - acc`` is the residual up to one rounding of the re-fold
    ``acc + residual``; a couple of Dekker-style corrections pin
    ``acc + residual == total`` bit-exactly whenever ``acc`` and
    ``total`` are of comparable magnitude (always true for non-negative
    segments).  :func:`verify_conservation` remains the backstop for the
    pathological magnitudes where no exact residual exists.
    """
    residual = total - acc
    for _ in range(4):
        if acc + residual == total:
            break
        residual += total - (acc + residual)
    # A round-to-even tie can leave ``acc + residual`` oscillating one ulp
    # around ``total`` with no exact fixed point; callers therefore report
    # the re-fold ``acc + residual`` as the conserved total, which equals
    # the measured one whenever an exact residual exists and is one ulp
    # off in the tie cases.
    return residual


def _attribute_request(request) -> Optional[RequestAttribution]:
    """Decompose one finished :class:`ServingRequest`; None if unfinished."""
    finish = request.finish_time_s
    if finish is None:
        return None
    arrival = request.arrival_time_s
    admitted = request.admitted_time_s
    first = request.first_token_time_s
    latency = finish - arrival
    prefill_stall = request.prefill_stall_s
    decode_stall = request.stall_s - request.prefill_stall_s
    # The conservation fold: decode is the residual of the exact
    # left-to-right sum, so segment_sum_s reproduces latency bit-exactly.
    acc = 0.0
    queued = admitted - arrival
    acc += queued
    prefill = (first - admitted) - prefill_stall
    acc += prefill
    acc += prefill_stall
    acc += decode_stall
    decode = _residual(latency, acc)
    row = RequestAttribution(
        request_id=request.request_id,
        arrival_s=arrival,
        # The conserved total is the fold itself (``acc + decode`` is the
        # same operation sequence ``segment_sum_s`` performs), equal to
        # the measured ``finish - arrival`` up to the tie ulp.
        latency_s=acc + decode,
        queued_s=queued,
        prefill_s=prefill,
        prefill_stall_s=prefill_stall,
        decode_stall_s=decode_stall,
        decode_s=decode,
        swap_s=request.swap_time_s,
        num_preemptions=request.preempted_count,
        migrated_count=request.migrated_count,
    )
    # Cross-check the residual against its independent closed form: any
    # real unaccounted time (a stall path missing its accrual) lands here.
    direct = (finish - first) - decode_stall
    if abs(decode - direct) > _CROSS_CHECK_TOL_S * max(1.0, abs(latency)):
        raise ConservationError(
            f"request {request.request_id}: residual decode segment "
            f"{decode:.9f}s disagrees with (finish - first_token) - "
            f"decode_stall = {direct:.9f}s — unaccounted time in the run")
    return row


def attribute_run(run, *, name: str = "engine") -> RunAttribution:
    """Exact time attribution of one :class:`~repro.serving.engine.EngineRun`.

    Works identically on traced and untraced, scalar and vectorized runs:
    everything derives from the engine's per-request timing marks and
    counters, never from the event stream.  The result is conservation-
    verified before it is returned.
    """
    from repro.serving.request import RequestState

    rows: List[RequestAttribution] = []
    num_rejected = 0
    swap_busy = 0.0
    swap_outs = swap_ins = 0
    migrated_bytes = 0
    migrated_in = 0
    for request in run.requests:
        swap_busy += request.swap_time_s
        swap_outs += request.num_swap_outs
        swap_ins += request.num_swap_ins
        if request.state is RequestState.REJECTED:
            num_rejected += 1
            continue
        if request.migrated_count:
            migrated_bytes += request.migrated_kv_bytes
            migrated_in += 1
        row = _attribute_request(request)
        if row is not None:
            rows.append(row)

    makespan = run.makespan_s
    acc = 0.0
    prefill_busy = run.prefill_time_s
    acc += prefill_busy
    decode_busy = run.decode_time_s
    acc += decode_busy
    idle = _residual(makespan, acc)
    replica = ReplicaAttribution(
        name=name,
        makespan_s=acc + idle,
        prefill_busy_s=prefill_busy,
        decode_busy_s=decode_busy,
        idle_s=idle,
    )

    attribution = RunAttribution(
        replica=replica,
        requests=tuple(rows),
        num_requests=len(run.requests),
        num_finished=len(rows),
        num_rejected=num_rejected,
        num_unfinished=len(run.requests) - len(rows) - num_rejected,
        link=LinkAttribution(
            swap_busy_s=swap_busy,
            num_swap_outs=swap_outs,
            num_swap_ins=swap_ins,
            migrated_kv_bytes=migrated_bytes,
            num_migrated_in=migrated_in,
        ),
    )
    verify_conservation(attribution)
    return attribution


def verify_conservation(attribution: RunAttribution) -> None:
    """Raise :class:`ConservationError` unless every decomposition adds up.

    Checks, bit-exactly: each request's segment fold equals its measured
    latency, and the replica's segment fold equals its makespan.  Also
    rejects meaningfully negative segments (a negative residual beyond
    float noise means some other segment was over-charged).
    """
    problems: List[str] = []
    for row in attribution.requests:
        if row.segment_sum_s != row.latency_s:
            problems.append(
                f"request {row.request_id}: segments sum to "
                f"{row.segment_sum_s!r}, latency is {row.latency_s!r}")
        for kind, seconds in row.segments:
            if seconds < -_CROSS_CHECK_TOL_S:
                problems.append(
                    f"request {row.request_id}: negative {kind} segment "
                    f"{seconds!r}")
    replica = attribution.replica
    if replica.segment_sum_s != replica.makespan_s:
        problems.append(
            f"replica {replica.name}: segments sum to "
            f"{replica.segment_sum_s!r}, makespan is {replica.makespan_s!r}")
    for kind, seconds in replica.segments:
        if seconds < -_CROSS_CHECK_TOL_S:
            problems.append(
                f"replica {replica.name}: negative {kind} segment "
                f"{seconds!r}")
    if problems:
        raise ConservationError(
            "time attribution does not conserve:\n  " + "\n  ".join(problems))


# ---------------------------------------------------------------------------
# post-hoc attribution over a saved trace
# ---------------------------------------------------------------------------

_WINDOW_KINDS = {
    "engine.decode_window": "decode",
    "engine.prefill_window": "prefill",
}


@dataclass(frozen=True)
class TraceAttribution:
    """Post-hoc attribution of a saved JSONL trace.

    ``request_rows`` carry phase *walls* (queued: arrival→admission,
    prefill: admission→first token, decode: first token→finish) per scope,
    with the preempted overlay summed from preempt→resume pairs — the
    same derivation as the Perfetto request tracks.  ``scope_busy`` maps
    each scope to its summed window-span seconds per kind plus the scope's
    observed time range; ``kv_occupancy`` maps each scope to a
    ``(ts_s, used_fraction)`` timeline.
    """

    #: ``{scope: {"decode": s, "prefill": s, "start_s": t0, "end_s": t1}}``
    scope_busy: Dict[str, Dict[str, float]]
    #: One dict per request per scope: scope, request_id, queued_s,
    #: prefill_s, decode_s, preempted_s, finished.
    request_rows: Tuple[Dict[str, Any], ...]
    #: ``{scope: [(ts_s, used_fraction), ...]}`` from the kv.* events.
    kv_occupancy: Dict[str, List[Tuple[float, float]]]
    #: KV bytes preemption swaps moved over the CXL link (swap-outs +
    #: swap-ins); live migrations count in ``link_migrated_bytes``.
    link_swap_bytes: int
    #: KV bytes live migrations moved through host memory.
    link_migrated_bytes: int

    def scope_utilization(self, scope: str) -> float:
        busy = self.scope_busy.get(scope)
        if not busy:
            return 0.0
        span = busy["end_s"] - busy["start_s"]
        if span <= 0:
            return 0.0
        return (busy["decode"] + busy["prefill"]) / span


def _scope_busy(events: Sequence[Event]) -> Dict[str, Dict[str, float]]:
    busy: Dict[str, Dict[str, float]] = {}
    for event in events:
        scope = event["scope"]
        entry = busy.setdefault(scope, {"decode": 0.0, "prefill": 0.0,
                                        "start_s": event["ts_s"],
                                        "end_s": event["ts_s"]})
        entry["start_s"] = min(entry["start_s"], event["ts_s"])
        entry["end_s"] = max(entry["end_s"],
                             event["ts_s"] + event.get("dur_s", 0.0))
        kind = _WINDOW_KINDS.get(event["name"])
        if kind is not None:
            entry[kind] += event.get("dur_s", 0.0)
    return busy


def _request_rows(events: Sequence[Event]) -> List[Dict[str, Any]]:
    marks: Dict[Tuple[str, int], Dict[str, float]] = {}
    preempts: Dict[Tuple[str, int], List[float]] = {}
    resumes: Dict[Tuple[str, int], List[float]] = {}
    last_seen: Dict[Tuple[str, int], float] = {}
    for event in events:
        rid = event.get("request_id")
        if rid is None or event["name"].startswith("cluster."):
            continue
        key = (event["scope"], rid)
        end = event["ts_s"] + event.get("dur_s", 0.0)
        last_seen[key] = max(last_seen.get(key, end), end)
        if event["name"] == "serving.preempt":
            preempts.setdefault(key, []).append(event["ts_s"])
        elif event["name"] == "request.resume":
            resumes.setdefault(key, []).append(event["ts_s"])
        elif event["name"].startswith("request."):
            marks.setdefault(key, {}).setdefault(event["name"],
                                                 event["ts_s"])

    rows: List[Dict[str, Any]] = []
    for key in sorted(marks):
        scope, rid = key
        seen = marks[key]
        arrival = seen.get("request.queued", seen.get("request.migrate_in"))
        if arrival is None:
            continue
        finish = seen.get("request.finished")
        closed = seen.get("request.finished",
                          seen.get("request.migrate_out",
                                   seen.get("request.rejected",
                                            last_seen[key])))
        admitted = seen.get("request.admitted",
                            seen.get("request.resume", closed))
        first = seen.get("request.first_token")
        preempted = 0.0
        for start, stop in zip(preempts.get(key, []),
                               resumes.get(key, []) + [closed],
                               strict=False):
            preempted += max(stop - start, 0.0)
        rows.append({
            "scope": scope,
            "request_id": rid,
            "queued_s": max(admitted - arrival, 0.0),
            "prefill_s": max((first if first is not None else closed)
                             - admitted, 0.0),
            "decode_s": max(closed - first, 0.0) if first is not None else 0.0,
            "preempted_s": preempted,
            "finished": finish is not None,
        })
    return rows


def _kv_occupancy(events: Sequence[Event]) -> Dict[str, List[Tuple[float, float]]]:
    """Per-scope occupancy timeline."""
    capacity: Dict[str, int] = {}
    timelines: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        name = event["name"]
        if not name.startswith("kv."):
            continue
        scope = event["scope"]
        args = event.get("args") or {}
        if name == "kv.pool":
            capacity[scope] = int(args.get("total_blocks", 0))
            continue
        free = args.get("free_blocks")
        if free is not None:
            # Without a kv.pool record (older traces) fall back to the
            # largest free count ever observed as the capacity estimate.
            total = capacity.get(scope, 0)
            if total <= 0:
                capacity[scope] = total = max(
                    int(free), capacity.get(scope, 0))
            used = max(total - int(free), 0)
            timelines.setdefault(scope, []).append(
                (event["ts_s"], used / total if total else 0.0))
    return timelines


def attribute_trace(events: Iterable[Event]) -> TraceAttribution:
    """Post-hoc attribution of a saved trace (JSONL event dicts)."""
    events = list(events)
    # Each swap-out (serving.preempt) and swap-in (request.resume) of a
    # preemption names the bytes the engine priced for it.
    swapped = sum(int((event.get("args") or {}).get("swap_bytes", 0))
                  for event in events
                  if event["name"] in ("serving.preempt", "request.resume"))
    migrated = sum(int((event.get("args") or {}).get("kv_bytes", 0))
                   for event in events
                   if event["name"] == "cluster.migrate"
                   and (event.get("args") or {}).get("accepted", True))
    return TraceAttribution(
        scope_busy=_scope_busy(events),
        request_rows=tuple(_request_rows(events)),
        kv_occupancy=_kv_occupancy(events),
        link_swap_bytes=swapped,
        link_migrated_bytes=migrated,
    )


# ---------------------------------------------------------------------------
# text renderers (CLI + examples)
# ---------------------------------------------------------------------------


def attribution_table(events: Iterable[Event], *, top: int = 15) -> str:
    """Per-request latency breakdown of a saved trace, slowest first."""
    rows = attribute_trace(events).request_rows
    if not rows:
        return "no request lifecycle events recorded"
    ranked = sorted(
        rows, key=lambda row: -(row["queued_s"] + row["prefill_s"]
                                + row["decode_s"]))
    lines = [f"{len(rows)} request lifecycles "
             f"({sum(1 for r in rows if r['finished'])} finished); "
             f"slowest {min(top, len(ranked))} by wall time:",
             f"  {'scope':<14} {'req':>4}  {'queued':>9} {'prefill':>9} "
             f"{'decode':>9} {'preempted':>9}  total"]
    for row in ranked[:top]:
        total = row["queued_s"] + row["prefill_s"] + row["decode_s"]
        flag = "" if row["finished"] else "  (unfinished)"
        lines.append(
            f"  {row['scope']:<14} {row['request_id']:>4}  "
            f"{row['queued_s'] * 1e3:>7.1f}ms {row['prefill_s'] * 1e3:>7.1f}ms "
            f"{row['decode_s'] * 1e3:>7.1f}ms {row['preempted_s'] * 1e3:>7.1f}ms"
            f"  {total * 1e3:7.1f}ms{flag}")
    return "\n".join(lines)


def utilization_summary(events: Iterable[Event]) -> str:
    """Per-scope busy/idle accounting plus KV-pool and CXL-link activity."""
    attribution = attribute_trace(events)
    if not attribution.scope_busy:
        return "empty trace"
    lines = ["per-scope utilization (window-span seconds over observed span):",
             f"  {'scope':<14} {'span':>9} {'prefill':>9} {'decode':>9}"
             "  busy%"]
    for scope in sorted(attribution.scope_busy):
        busy = attribution.scope_busy[scope]
        span = busy["end_s"] - busy["start_s"]
        if busy["decode"] == 0.0 and busy["prefill"] == 0.0 \
                and scope == "control":
            continue
        lines.append(
            f"  {scope:<14} {span:>8.3f}s {busy['prefill']:>8.3f}s "
            f"{busy['decode']:>8.3f}s "
            f"{attribution.scope_utilization(scope):>6.1%}")
    if attribution.kv_occupancy:
        lines.append("")
        lines.append("KV block-pool occupancy (fraction of pool blocks):")
        for scope in sorted(attribution.kv_occupancy):
            timeline = attribution.kv_occupancy[scope]
            total = 0.0
            for _, fraction in timeline:  # explicit left fold (float-fold)
                total += fraction
            mean = total / len(timeline)
            peak = max(f for _, f in timeline)
            lines.append(f"  {scope:<14} {len(timeline):>5} samples  "
                         f"mean {mean:>6.1%}  peak {peak:>6.1%}")
    lines.append("")
    lines.append(
        f"CXL link: {attribution.link_swap_bytes / 2**20:.1f} MiB KV "
        f"swapped (swap-out + swap-in), "
        f"{attribution.link_migrated_bytes / 2**20:.1f} MiB live-migrated "
        "through host memory")
    return "\n".join(lines)
