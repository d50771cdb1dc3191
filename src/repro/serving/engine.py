"""Event-driven serving engine with vLLM-style continuous batching.

``ServingEngine`` replays a trace of timed :class:`~repro.workloads.queries.Query`
requests against a :class:`~repro.core.system.CentSystem`:

* requests arrive according to their ``arrival_time_s`` (an open-loop
  arrival process, e.g. :func:`~repro.workloads.queries.poisson_arrivals`);
* admission is **KV-capacity aware**.  The default ``admission="reserve"``
  admits a request only when a batch slot (a pipeline-stage position) is
  free and its *full-context* KV cache fits the memory left over from the
  weights, so in-flight context never exceeds ``memory_capacity_bytes``.
  ``admission="paged"`` admits on the *current* context in fixed-size
  token blocks (:class:`~repro.kvstore.BlockPool`) grown one token per
  decode step; when the pool runs dry a
  :class:`~repro.kvstore.PreemptionPolicy` evicts a victim whose KV is
  swapped over the CXL fabric and back (``preemption_restore="swap"``) or
  dropped and re-prefilled (``"recompute"``).  Eviction is all-or-nothing:
  a victim gives up its whole allocation (vLLM's choice too);
* requests can be **live-migrated** between engines mid-flight
  (:meth:`ServingEngine.migrate_out` / :meth:`ServingEngine.migrate_in`):
  the KV streams through host memory priced like a swap, and the request
  resumes on the destination at its original progress — the mechanism the
  closed-loop cluster controller (``repro.cluster.control``) uses when a
  re-placement dismantles a replica with work in flight;
* batching is **continuous**: newly admitted requests prefill in bounded
  chunks, every decode step advances all running requests at once, and
  finished requests free their slot immediately — no waiting for the
  slowest request of a static batch.  Prefill has strict priority over
  decoding (vLLM's default scheduler): an iteration runs either prefill
  chunks or one decode step, and decode stalls until the prefill backlog
  drains, which the measured time-between-tokens captures;
* iteration costs come from :class:`~repro.core.iteration.IterationCostModel`,
  which prices a mixed-context batch step from the same compiled-program
  block simulations as the static batch path (shared performance-model
  cache), without re-simulating whole inferences.

The paper-shaped static batch — identical queries, all arriving at ``t=0``,
one per pipeline slot — is the degenerate case: every request prefills, then
the batch decodes in lockstep, and the measured decode throughput matches
``CentSystem.run_inference``.

Inside, :meth:`ServingEngine.advance` is a short loop over phase
methods that each take the :class:`EngineState`: admit/resume, build the
iteration (``_build_vectorized``, or ``_build_scalar``, its reference
oracle), then fast-forward or one ordinary iteration: grow-or-preempt,
price, then apply and retire.  Under paged pressure the fast-forward also
runs the eviction iterations that end its windows, for as long as the loop
top between them provably changes nothing.  Every
reserve-vs-paged decision sits behind one admission seam: ``begin`` picks
``_ReserveAdmission`` or ``_PagedAdmission`` once and the phases ask it.

Quickstart::

    from repro import CentConfig, CentSystem, LLAMA2_70B
    from repro.serving import ServingEngine
    from repro.workloads import poisson_arrivals, sharegpt_like_queries, with_arrivals

    system = CentSystem(CentConfig(num_devices=32), LLAMA2_70B)
    trace = with_arrivals(sharegpt_like_queries(200), poisson_arrivals(200, rate_qps=0.5))
    result = ServingEngine(system).run(trace, sla_latency_s=120.0)
    print(result.ttft.p99_s, result.tbt.p50_s, result.goodput_tokens_per_s)

Overload the same deployment and let paged admission absorb it::

    paged = ServingEngine(system, admission="paged", preemption_restore="swap")
    overloaded = paged.run(trace, sla_latency_s=120.0)
    print(overloaded.num_preemptions, overloaded.goodput_tokens_per_s)
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat, takewhile
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.iteration import IterationCostModel
from repro.core.results import ServingResult, check_sla_latency_s
from repro.core.system import CentSystem
from repro.kvstore.allocator import KvAllocator
from repro.kvstore.block_pool import BlockPool
from repro.kvstore.preemption import (
    PreemptionPolicy,
    VictimCandidates,
    VictimOrder,
    kv_swap_time_s,
    last_use_s,
)
from repro.mapping.parallelism import ParallelismPlan
from repro.mapping.placement import validate_capacity
from repro.models.memory import ModelMemoryProfile
from repro.serving.metrics import aggregate_serving_result
from repro.serving.request import RequestColumns, RequestState, ServingRequest
from repro.telemetry.recorder import ScopedRecorder, TraceRecorder
from repro.workloads.queries import Query

__all__ = ["ADMISSION_MODES", "EngineRun", "EngineState", "KvMigration",
           "ServingEngine", "evict_to_bound"]


def evict_to_bound(cache: Dict, bound: int) -> None:
    """Drop oldest-inserted entries until ``cache`` has room under ``bound``.

    The FIFO counterpart of the performance model's LRU: setup-style caches
    (here and in ``repro.cluster``) are built once per configuration and
    re-hit with the same key, so insertion order is recency enough.
    """
    while len(cache) >= bound:
        cache.pop(next(iter(cache)))


@dataclass
class EngineMeasurements:
    """Measurement channels shared by :class:`EngineRun` / :class:`EngineState`.

    Plain lists, traced or not: with tracing on, :meth:`ServingEngine.begin`
    makes the timeline the recorder scope's own ``queue_signal`` list, and
    each eviction also emits a ``serving.preempt`` event.
    """

    #: Event sink when tracing is on; ``None`` (the default) disables
    #: telemetry with zero per-iteration overhead.
    recorder: Optional["ScopedRecorder"] = field(
        default=None, kw_only=True, repr=False, compare=False)
    #: Per-iteration ``(time_s, queued, running)`` samples; ``queued``
    #: counts arrived-but-not-running requests (waiting plus preempted).
    queue_depth_timeline: List[Tuple[float, int, int]] = field(
        default_factory=list, kw_only=True)
    #: ``(time_s, request_id)`` per eviction, in victim order (paged mode).
    preemption_log: List[Tuple[float, int]] = field(
        default_factory=list, kw_only=True)
    # Engine work counters: deterministic for a given trace and engine, so
    # tests pin them; the scalar oracle never fast-forwards.
    #: Trips through the top of the ``advance`` loop (admission phase runs).
    loop_tops: int = field(default=0, kw_only=True, compare=False)
    #: Fast-forward windows of at least one decode step.
    ff_windows: int = field(default=0, kw_only=True, compare=False)
    #: Eviction iterations a fast-forward ran in place of a loop top.
    window_evictions: int = field(default=0, kw_only=True, compare=False)


@dataclass
class EngineRun(EngineMeasurements):
    """Raw outcome of one event-driven run, before aggregation.

    :meth:`ServingEngine.simulate` returns this instead of a folded
    :class:`~repro.core.results.ServingResult` so callers that need
    per-request outcomes — the multi-tenant cluster layer attributes each
    request back to its tenant — can aggregate subsets themselves with
    :func:`~repro.serving.metrics.aggregate_serving_result`.  ``requests``
    preserves trace order (``requests[i]`` is the i-th query of the trace).
    """

    plan: ParallelismPlan
    requests: List[ServingRequest]
    makespan_s: float
    prefill_time_s: float
    decode_time_s: float
    decode_step_tokens: int
    peak_memory_bytes: int
    memory_capacity_bytes: int


@dataclass
class EngineState(EngineMeasurements):
    """Resumable event-loop state of one serving run.

    Produced by :meth:`ServingEngine.begin`, advanced (possibly in several
    time-bounded segments) by :meth:`ServingEngine.advance`, and fed new
    arrivals between segments by :meth:`ServingEngine.extend`.  The closed-
    loop cluster controller (``repro.cluster.control``) uses this to pause
    every replica at epoch boundaries, read the measured backlog, and resume
    — or migrate the unfinished work — in the next epoch.

    The plain :meth:`ServingEngine.simulate` path is ``begin`` followed by a
    single unbounded ``advance`` and is bit-exact with the pre-segmentation
    engine: segmentation only changes *when* the loop returns control, never
    what an iteration computes.
    """

    plan: ParallelismPlan
    cost: IterationCostModel
    slots: int
    kv_budget: int
    weight_bytes: int
    #: Largest context the plan was searched/validated for; ``extend`` may
    #: only add queries at or below it (begin's ``planning_trace`` bounds it).
    planned_context: int
    #: The admission mode's KV bookkeeping, picked once by ``begin``.
    admission: "_Admission"
    bytes_per_token: int
    #: Every request ever fed to this state, in feed order
    #: (``requests[i].request_id == i``).
    requests: List[ServingRequest] = field(default_factory=list)
    #: Struct-of-arrays store behind the requests' hot fields; the
    #: vectorized advance paths gather and scatter whole batches here.
    columns: RequestColumns = field(default_factory=RequestColumns)
    #: Times ``extend`` had to fall back to a full re-sort of ``pending``
    #: (out-of-order feed); stays zero for arrival-ordered segment feeds.
    pending_resorts: int = 0
    pending: Deque[ServingRequest] = field(default_factory=deque)
    waiting: Deque[ServingRequest] = field(default_factory=deque)
    preempted: Deque[ServingRequest] = field(default_factory=deque)
    running: List[ServingRequest] = field(default_factory=list)
    clock: float = 0.0
    peak_memory: int = 0
    prefill_time_s: float = 0.0
    decode_time_s: float = 0.0
    decode_step_tokens: int = 0
    #: Row indices of ``running`` in ``columns``, gathered lazily by the
    #: vectorized build; every change to ``running`` resets it to ``None``.
    running_rows: Optional[np.ndarray] = field(default=None, repr=False,
                                               compare=False)

    @property
    def allocator(self) -> Optional[KvAllocator]:
        """The paged KV block allocator; ``None`` under reserve admission."""
        return self.admission.allocator

    @property
    def drained(self) -> bool:
        """True when no fed request still needs engine time."""
        return not (self.pending or self.waiting or self.preempted or self.running)

    @property
    def unfinished(self) -> List[ServingRequest]:
        """Requests still owed work, in feed order (migration candidates).

        Excludes requests already handed to another engine by a live
        migration: the receiving engine owns them now.
        """
        done = (RequestState.FINISHED, RequestState.REJECTED,
                RequestState.MIGRATED)
        return [r for r in self.requests if r.state not in done]


@dataclass(frozen=True)
class KvMigration:
    """One in-flight request's state, staged in host memory mid-migration.

    Produced by :meth:`ServingEngine.migrate_out` on the dismantled engine
    and consumed by :meth:`ServingEngine.migrate_in` on the destination.
    Carries the request's progress (so it resumes decoding where it left
    off), its measured history (arrival-anchored TTFT/latency and TBT
    samples survive the move), and its cost counters (the destination's
    result keeps the whole journey's preemption/swap/stall accounting).
    """

    query: Query
    tokens_generated: int
    prefill_remaining: int
    #: Materialised KV tokens travelling through host memory.
    kv_tokens: int
    #: Bytes of KV the destination swaps in (``kv_tokens`` worth).
    swap_bytes: int
    #: CXL time the source spent streaming not-yet-staged KV out; zero when
    #: the request was already swap-staged in host memory at migration.
    swap_out_s: float
    #: Absolute time the whole host copy is in place — the migration
    #: instant plus ``swap_out_s``, or later when an eviction's swap-out
    #: was still draining; the destination's swap-in serialises behind it.
    host_ready_s: float
    #: True when the chain's single destination swap-in was already priced
    #: by an earlier hop (the request re-migrated before it ever resumed).
    swap_in_priced: bool
    # ---- measured history carried across the move ----
    admitted_time_s: Optional[float]
    first_token_time_s: Optional[float]
    last_token_time_s: Optional[float]
    tbt_samples_s: Tuple[float, ...]
    # ---- cost counters carried across the move ----
    preempted_count: int
    num_swap_outs: int
    num_swap_ins: int
    swap_time_s: float
    recompute_tokens: int
    stall_s: float
    prefill_stall_s: float
    migrated_count: int
    migrated_kv_bytes: int
    #: Prefix-cache history travels too (the destination's result keeps
    #: the whole journey's hit accounting); the chain itself stays on the
    #: source pool — the destination receives the full context's KV and
    #: holds it privately.
    prefix_lookups: int = 0
    prefix_hits: int = 0
    prefix_hit_tokens: int = 0
    cow_blocks: int = 0


#: Request fields a live migration carries to the destination unchanged
#: (same names on :class:`ServingRequest` and :class:`KvMigration`).
_CARRIED_FIELDS = (
    "tokens_generated", "prefill_remaining", "admitted_time_s", "first_token_time_s",
    "last_token_time_s", "preempted_count", "num_swap_outs", "num_swap_ins", "swap_time_s",
    "recompute_tokens", "stall_s", "prefill_stall_s", "migrated_count", "migrated_kv_bytes",
    "prefix_lookups", "prefix_hits", "prefix_hit_tokens", "cow_blocks")


# ------------------------------------------------------------------ admission


class _Admission:
    """How KV capacity gates admission: the engine's one admission seam.

    :meth:`ServingEngine.begin` picks :class:`_ReserveAdmission` or
    :class:`_PagedAdmission` once per run, and the event loop asks it,
    never the mode string.  ``fits`` and ``slot_cap`` answer per engine,
    before any state exists: which total contexts could ever be admitted,
    and how many requests the KV budget lets decode at once.  The defaults
    below are for KV that never grows once admitted.
    """

    __slots__ = ()
    #: The paged block allocator (``EngineState.allocator``).
    allocator: Optional[KvAllocator] = None

    def book(self, engine: "ServingEngine", request: ServingRequest) -> None:
        """The booking made when a request enters the state."""

    def cap_window(self, state: EngineState, ctx0: np.ndarray, steps: int) -> int:
        """How many of ``steps`` fast-forward decode steps the KV covers."""
        return steps

    def commit_window(self, state: EngineState, ctx0: np.ndarray, steps: int) -> None:
        """Hold the KV of ``steps`` fast-forwarded decode steps (after the
        same window's :meth:`cap_window`)."""

    def stamped(self, requests: List[ServingRequest], clock: float) -> None:
        """``requests`` (running) emitted a token at ``clock``."""

    def grow(self, state: EngineState,
             decode_batch: List[ServingRequest]) -> List[ServingRequest]:
        """Grow the decode batch's KV by one token each, evicting on
        exhaustion; returns the requests that decode."""
        return decode_batch

    def blocked(self, state: EngineState) -> bool:
        """Whether the next loop top's resume/admission phase provably
        changes nothing (every try it makes is refused without side
        effects); ``False`` whenever that is not certain."""
        return False

    def note_peak(self, state: EngineState) -> None:
        state.peak_memory = max(state.peak_memory,
                                state.weight_bytes + self.resident_bytes())


class _ReserveAdmission(_Admission):
    """``admission="reserve"``: a request books the KV of its *full* future
    context at arrival and holds it while running, so it never grows and is
    never evicted.  Only a migrated-in request waits in ``preempted``."""

    __slots__ = ("reserved_bytes",)

    def __init__(self, engine, plan, kv_budget, recorder) -> None:
        self.reserved_bytes = 0

    @staticmethod
    def reservation_bytes(engine: "ServingEngine", context_length: int) -> int:
        """KV bytes one request reserves for its full context, scaled by
        ``kv_occupancy`` exactly like the static path's capacity check."""
        return int(engine._profile.kv_cache_bytes_per_query(context_length)
                   * engine.system.config.kv_occupancy)

    @staticmethod
    def fits(engine: "ServingEngine", total_contexts: np.ndarray,
             kv_budget: int) -> np.ndarray:
        # Same operation order as reservation_bytes: the exact integer byte
        # count first, then one float scale and truncation.
        per_query = total_contexts * engine._profile.kv_cache_bytes_per_token()
        return np.trunc(per_query * engine.system.config.kv_occupancy) <= kv_budget

    @classmethod
    def slot_cap(cls, engine: "ServingEngine", kv_budget: int,
                 mean_prompt: float, mean_decode: float, slots: int) -> int:
        reservation = cls.reservation_bytes(engine, int(mean_prompt + mean_decode))
        if reservation > 0:
            slots = max(1, min(slots, kv_budget // reservation))
        return slots

    def book(self, engine: "ServingEngine", request: ServingRequest) -> None:
        request.kv_reserved_bytes = self.reservation_bytes(
            engine, request.query.total_context)

    def try_admit(self, state: EngineState, request: ServingRequest) -> bool:
        """Whether ``request`` fits now; holds its KV when it does."""
        booked = self.reserved_bytes + request.kv_reserved_bytes
        if booked > state.kv_budget:
            return False
        self.reserved_bytes = booked
        return True

    try_resume = try_admit

    def admitted_args(self, request: ServingRequest) -> dict:
        return {"kv_reserved_bytes": request.kv_reserved_bytes}

    def resident_bytes(self) -> int:
        return self.reserved_bytes

    def release(self, request: ServingRequest, now_s: float, *,
                resident: bool = True) -> None:
        """Free ``request``'s KV on finish or ``migrate_out``."""
        if resident:  # only a running request holds its reservation
            self.reserved_bytes -= request.kv_reserved_bytes


def _covered_steps(ctx0: np.ndarray, kv0: np.ndarray, held: np.ndarray,
                   block_tokens: int, free_blocks: int, steps: int) -> int:
    """How many of ``steps`` decode steps ``free_blocks`` pool blocks cover
    for a batch at contexts ``ctx0`` holding ``kv0`` tokens in ``held``
    blocks (each step grows every request by one token)."""
    # Growth targets only rise, so the last step's target sets the blocks
    # the whole window needs; off pressure this decides.
    needs = -(-np.maximum(ctx0 + (steps - 1), kv0) // block_tokens) - held
    if int(needs.sum()) <= free_blocks:
        return steps
    # Request i takes its (held_i + m + 1)-th block at step
    # (held_i + m) * B - ctx0_i + 2 (m = 0, 1, ...; a step below 1 means the
    # first step), so the window ends one step before the batch's
    # (F + 1)-th crossing, F the free blocks.  A request adds at most F + 1
    # crossings to the earliest F + 1, and only its ``needs`` crossings fall
    # inside the window.
    per_request = min(free_blocks + 1, int(needs.max()))
    crossings = ((held * block_tokens - ctx0 + 2)[:, None]
                 + block_tokens * np.arange(per_request))
    kth = int(np.partition(crossings.ravel(), free_blocks)[free_blocks])
    return max(kth - 1, 0)


class _PagedAdmission(_Admission):
    """``admission="paged"``: blocks for the request's *current* context,
    grown one token per decode step; on pool exhaustion the preemption
    policy evicts a whole victim (swap or recompute)."""

    __slots__ = ("allocator", "policy", "victims", "prefix_sharing",
                 "kv_scale", "link", "pp_stages", "_window_kv")

    def __init__(self, engine, plan, kv_budget, recorder) -> None:
        self.allocator = KvAllocator(self.make_pool(engine, kv_budget),
                                     recorder=recorder)
        if recorder is not None:
            # Static pool geometry, once per run: post-hoc consumers (the
            # attribution layer's occupancy timeline) turn the kv.* events'
            # free_blocks into fractions with it.
            recorder.event("kv.pool", recorder.now_s,
                           total_blocks=self.allocator.pool.num_blocks,
                           block_bytes=self.allocator.pool.block_bytes)
        self.policy = PreemptionPolicy(engine.preemption_restore)
        #: The running requests in the policy's victim order.
        self.victims = VictimOrder()
        self.prefix_sharing = engine.prefix_sharing
        # The pool is sized to budget / kv_occupancy in block bytes; reported
        # memory applies the same discount, so peak_memory_bytes stays
        # within the physical capacity in both admission modes.
        self.kv_scale = engine.system.config.kv_occupancy
        self.link = engine.system.config.link
        self.pp_stages = plan.pp_stages

    @staticmethod
    def make_pool(engine: "ServingEngine", kv_budget: int) -> BlockPool:
        """The block pool over the post-weight KV budget."""
        return BlockPool(
            kv_budget,
            engine._profile.kv_cache_bytes_per_token(),
            block_tokens=engine.kv_block_tokens,
            occupancy=engine.system.config.kv_occupancy,
        )

    @classmethod
    def fits(cls, engine: "ServingEngine", total_contexts: np.ndarray,
             kv_budget: int) -> np.ndarray:
        pool = cls.make_pool(engine, kv_budget)
        return -(-total_contexts // pool.block_tokens) <= pool.num_blocks

    @classmethod
    def slot_cap(cls, engine: "ServingEngine", kv_budget: int,
                 mean_prompt: float, mean_decode: float, slots: int) -> int:
        pool = cls.make_pool(engine, kv_budget)
        blocks_per_query = pool.blocks_for(
            max(int(mean_prompt + mean_decode / 2), 1))
        if blocks_per_query > 0:
            slots = max(1, min(slots, pool.num_blocks // blocks_per_query))
        return slots

    def try_resume(self, state: EngineState, request: ServingRequest) -> bool:
        # All-or-nothing, so a failure holds nothing; a retry that cannot
        # succeed is not even made (same outcome, no allocator call).
        allocator = self.allocator
        owner, tokens = request.request_id, request.resume_kv_tokens
        if allocator.would_refuse(owner, tokens):
            return False
        if not allocator.allocate(owner, tokens, now_s=state.clock):
            return False
        self.victims.join(request, last_use_s(request))
        return True

    def _prefix_key(self, request: ServingRequest):
        return request.query.prefix_key if self.prefix_sharing else None

    def try_admit(self, state: EngineState, head: ServingRequest) -> bool:
        """Allocate the waiting head's prompt blocks, prefix-aware: a
        resident chain for its prefix admits it with only the suffix's
        blocks and pre-completes the shared prefill (one prompt token always
        remains, so the first-token path is untouched); a miss allocates the
        full prompt and promotes its prefix into a chain once prefilled."""
        allocator = self.allocator
        query = head.query
        key = self._prefix_key(head)
        if allocator.would_refuse(head.request_id, query.prompt_tokens,
                                  prefix=key):
            return False
        if key is None:
            if not allocator.allocate(head.request_id, query.prompt_tokens):
                return False
        else:
            if not allocator.allocate(head.request_id, query.prompt_tokens,
                                      prefix=key, now_s=state.clock):
                return False
            head.prefix_lookups += 1
            if allocator.shared_key(head.request_id) is not None:
                head.prefix_hits += 1
                skip = min(query.prefix_tokens, query.prompt_tokens - 1)
                head.prefix_hit_tokens += skip
                head.prefill_remaining -= skip
                if query.prefix_tokens % allocator.pool.block_tokens:
                    head.cow_blocks += 1
            else:
                head.prefix_pending = True
        head.kv_tokens = query.prompt_tokens
        # ``_admit`` stamps the admission with this clock.
        self.victims.join(head, state.clock)
        return True

    def admitted_args(self, request: ServingRequest) -> dict:
        return {"kv_tokens": request.kv_tokens}

    def blocked(self, state: EngineState) -> bool:
        # With a parked request, fresh admission waits; otherwise only the
        # waiting head is tried.  Either way every try must be refused.
        if len(state.running) >= state.slots:
            return True
        refuses = self.allocator.would_refuse
        if state.preempted:
            return all(refuses(r.request_id, r.resume_kv_tokens)
                       for r in state.preempted)
        if state.waiting:
            head = state.waiting[0]
            return refuses(head.request_id, head.query.prompt_tokens,
                           prefix=self._prefix_key(head))
        return True

    def resident_bytes(self) -> int:
        return int(self.allocator.allocated_bytes * self.kv_scale)

    def cap_window(self, state: EngineState, ctx0: np.ndarray, steps: int) -> int:
        # Zero sends the iteration to the growth loop, which evicts.
        pool = self.allocator.pool
        kv0 = state.columns.kv_tokens[state.running_rows]
        held = -(-kv0 // pool.block_tokens)
        self._window_kv = (kv0, held)
        return _covered_steps(ctx0, kv0, held, pool.block_tokens,
                              pool.free_blocks, steps)

    def commit_window(self, state: EngineState, ctx0: np.ndarray, steps: int) -> None:
        kv0, held = self._window_kv
        targets = np.maximum(ctx0 + (steps - 1), kv0)
        needs = -(-targets // self.allocator.pool.block_tokens) - held
        if not self.allocator.grow_many(
                [r.request_id for r in state.running],
                targets.tolist(), needs.tolist()):
            raise RuntimeError(
                "fast-forward window overdrew the block pool; this is a bug")
        state.columns.kv_tokens[state.running_rows] = targets
        self.note_peak(state)

    def stamped(self, requests: List[ServingRequest], clock: float) -> None:
        self.victims.stamp(requests, clock)

    def grow(self, state: EngineState,
             decode_batch: List[ServingRequest]) -> List[ServingRequest]:
        decode_batch = self._grow_or_preempt(state, decode_batch)
        self.note_peak(state)
        return decode_batch

    def release(self, request: ServingRequest, now_s: float, *,
                resident: bool = True) -> None:
        # A full release also detaches any shared-prefix chain reference
        # (the chain stays cached on the pool).
        self.allocator.release(request.request_id, now_s=now_s)
        request.kv_tokens = 0
        self.victims.leave(request)

    # ------------------------------------------------------------ eviction

    def _grow_or_preempt(self, state: EngineState,
                         candidates: List[ServingRequest]) -> List[ServingRequest]:
        """Grow each decodable request's KV to its context, evicting on
        pool exhaustion; returns the requests that may decode now.

        Decode never shares an iteration with prefill work, so every
        candidate victim (ready, not the one growing) is decoding too: no
        victim is ever mid-prefill or mid-rebuild."""
        allocator, policy, victims = self.allocator, self.policy, self.victims
        clock, cols = state.clock, state.columns
        # A candidate's target changes only when it grows itself, so one
        # gather reads every target the walk below grows to.  Candidates
        # as many as ``running`` are ``running`` (builds filter it in
        # order), whose rows may already be gathered.
        rows = state.running_rows
        if rows is None or len(candidates) != len(state.running):
            rows = np.fromiter((r._row for r in candidates), dtype=np.intp,
                               count=len(candidates))
        kv_tokens = cols.kv_tokens
        targets = np.maximum(
            cols.prompt_tokens[rows] - cols.prefill_remaining[rows]
            + cols.tokens_generated[rows], kv_tokens[rows]).tolist()
        pool = allocator.pool
        batch: List[ServingRequest] = []
        evicted = set()
        for request, target in zip(candidates, targets, strict=True):
            if request in evicted:
                continue  # evicted by an earlier candidate's growth
            grown = allocator.grow(request.request_id, target)
            while not grown:
                kind, victim = policy.select_eviction(
                    VictimCandidates(victims, request, clock),
                    allocator.evictable_prefixes()
                    if self.prefix_sharing and pool.idle_chains else ())
                if kind == "chain":
                    # The coldest blocks pool-wide belong to an idle
                    # (refcount-zero) shared prefix: reclaim it before
                    # preempting any live request.
                    allocator.evict_prefix(victim.key)
                elif victim is not None:
                    self._preempt(state, victim)
                    evicted.add(victim)
                    if victim in batch:
                        batch.remove(victim)
                else:
                    break
                grown = allocator.grow(request.request_id, target)
            if grown:
                kv_tokens[request._row] = target
                batch.append(request)
        return batch

    def _preempt(self, state: EngineState, victim: ServingRequest) -> None:
        """Evict the decoding ``victim``: free its blocks, set up its
        restore path."""
        clock = state.clock
        restore = self.policy.restore
        tokens_with_kv = victim.kv_tokens
        context = victim.context_length
        # A shared-prefix reader keeps its chain pinned across the park
        # (keep_prefix): its shared blocks never leave the device, so they
        # neither travel on a swap nor rebuild on a recompute.
        shared_tokens = (self.allocator.shared_tokens(victim.request_id)
                         if self.prefix_sharing else 0)
        self.allocator.release(victim.request_id, keep_prefix=True)
        victim.kv_tokens = 0
        victim.preempted_count += 1
        victim.preempt_time_s = clock
        victim.state = RequestState.PREEMPTED
        victim.restore_ready_s = 0.0
        victim.restore_via = restore
        if restore == "swap":
            # Only materialised KV travels; the chain's device-resident
            # shared blocks do not.
            victim.resume_kv_tokens = tokens_with_kv
            victim.swap_bytes = (max(context - shared_tokens, 0)
                                 * state.bytes_per_token)
            out_s = kv_swap_time_s(victim.swap_bytes, self.link,
                                   pp_stages=self.pp_stages)
            victim.num_swap_outs += 1
            victim.swap_time_s += out_s
            victim.swap_done_s = clock + out_s
        else:
            # Recompute: rebuild the whole context (less the pinned shared
            # prefix) through the restore path; the rebuild span counts as
            # stall.
            victim.resume_kv_tokens = context
            rebuild = max(context - shared_tokens, 0)
            victim.recompute_tokens += rebuild
            victim.restore_remaining = rebuild
            victim.restore_total = rebuild
        state.running.remove(victim)
        state.running_rows = None
        self.victims.leave(victim)
        state.preempted.append(victim)
        state.preemption_log.append((clock, victim.request_id))
        rec = state.recorder
        if rec is not None:
            # A swap names the bytes it staged out, so a saved trace can
            # total the link traffic (``attribute_trace``).
            priced = {"swap_bytes": victim.swap_bytes} if restore == "swap" else {}
            rec.event("serving.preempt", clock, victim.request_id,
                      restore=restore, kv_tokens=tokens_with_kv,
                      context=context, **priced)


#: The one place an admission mode string picks its implementation.
_ADMISSIONS = {"reserve": _ReserveAdmission, "paged": _PagedAdmission}

#: Supported admission modes: full-context reservation vs paged blocks.
ADMISSION_MODES = tuple(_ADMISSIONS)


class ServingEngine:
    """Discrete-event continuous-batching scheduler over a CENT system.

    Parameters
    ----------
    system:
        The deployment to serve on; its :class:`PerformanceModel` (and its
        bounded block-cost cache) is shared with the engine.
    plan:
        Parallelisation plan.  Defaults to the system's throughput plan for
        the trace's longest context, matching ``run_inference``.
    max_batch_size:
        Optional cap on concurrently running requests; defaults to the
        plan's ``queries_in_flight`` (one request per pipeline slot).
    prefill_chunk_tokens:
        Prompt tokens processed per engine iteration across all prefilling
        requests (FCFS within the chunk): the granularity at which
        concurrent prefills interleave.  Prefill has priority over decode,
        so the static special case exactly reproduces the batch path.
    context_step:
        Grid granularity (tokens) of the iteration cost model's block-cost
        interpolation.
    memory_capacity_bytes:
        Override of the system's memory capacity, for what-if studies and
        for tests that force admission pressure.
    admission:
        ``"reserve"`` (default) — the bit-exact legacy path: admit on the
        full-context KV reservation.  ``"paged"`` — admit on the current
        context with block-granular growth and preemption on pool
        exhaustion (see ``repro.kvstore``).
    kv_block_tokens:
        Tokens per KV block in paged mode (vLLM's ``block_size``).
    preemption_restore:
        How a paged-mode victim (the least recently used request) gets its
        KV back: ``"swap"`` (CXL-priced staging to host memory and back) or
        ``"recompute"`` (drop and re-prefill).
    prefix_sharing:
        Shared-prefix KV reuse in paged mode (``True`` by default).  A
        query tagged with ``prefix_id``/``prefix_tokens`` whose prefix
        chain is resident admits with only its suffix's blocks (plus one
        copy-on-write duplicate of a partial chain tail) and skips the
        shared prefix's prefill; a miss prefills normally and promotes its
        prefix blocks into a chain for later arrivals.  Preempted
        requests keep their chain pinned across the park, eviction ranks
        idle chains jointly with requests (coldest blocks pool-wide go
        first), and unreferenced chains are reclaimed under admission
        pressure.  A trace without prefix tags — and any
        ``prefix_sharing=False`` run — is served bit-exactly as before;
        reserve mode ignores prefix tags entirely.  ``False`` is the
        no-reuse arm of ``repro.evaluation.prefix_reuse_study``
        (``benchmarks/test_prefix_reuse_goodput.py``).
    vectorize:
        ``True`` (default): price mixed batches with the cost model's
        vectorized entry points and fast-forward uneventful all-decode
        stretches in closed form, running the paged evictions that end
        them inside the fast-forward.  ``False`` forces the scalar
        per-request, per-iteration loop.  Both paths are bit-exact with
        each other (the vectorized folds reproduce the scalar float
        arithmetic operation for operation); ``False`` is the reference
        oracle of ``tests/test_vectorized_engine.py`` and
        ``tests/test_telemetry.py``, and the baseline of
        ``benchmarks/test_sim_speed.py``.
    """

    def __init__(
        self,
        system: CentSystem,
        plan: Optional[ParallelismPlan] = None,
        *,
        max_batch_size: Optional[int] = None,
        prefill_chunk_tokens: int = 512,
        context_step: int = 256,
        memory_capacity_bytes: Optional[int] = None,
        admission: str = "reserve",
        kv_block_tokens: int = 16,
        preemption_restore: str = "swap",
        prefix_sharing: bool = True,
        vectorize: bool = True,
    ) -> None:
        if max_batch_size is not None and max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive")
        if context_step <= 0:
            raise ValueError("context_step must be positive")
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {admission!r}; choose from {ADMISSION_MODES}"
            )
        if kv_block_tokens <= 0:
            raise ValueError("kv_block_tokens must be positive")
        # Fail fast on a bad restore mode with the policy's own validation
        # (one definition of the valid set and message).
        PreemptionPolicy(preemption_restore)
        self.system = system
        self.model = system.model
        self.plan = plan
        self.max_batch_size = max_batch_size
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.context_step = context_step
        self.memory_capacity_bytes = (
            memory_capacity_bytes if memory_capacity_bytes is not None
            else system.memory_capacity_bytes
        )
        if self.memory_capacity_bytes <= 0:
            raise ValueError("memory capacity must be positive")
        self.admission = admission
        self.kv_block_tokens = kv_block_tokens
        self.preemption_restore = preemption_restore
        self.prefix_sharing = prefix_sharing
        self.vectorize = vectorize
        self._profile = ModelMemoryProfile(self.model)
        # _setup results keyed by the servable context length (the only
        # trace-dependent input) plus the engine knobs that feed _setup:
        # repeated runs and capacity estimates over same-shaped traces reuse
        # plan validation and the warmed-up iteration cost model instead of
        # redoing both, while mutating e.g. ``max_batch_size`` between runs
        # still takes effect.  FIFO-bounded like the block-cost cache below
        # it, so sweeps over many trace shapes cannot grow it forever.
        self._setup_cache: Dict[
            tuple, Tuple[ParallelismPlan, IterationCostModel, int, int]] = {}
        self._setup_cache_entries = 8

    # ------------------------------------------------------------------ planning

    @property
    def _admission_type(self):
        return _ADMISSIONS[self.admission]

    def _servable_mask(self, total_contexts: np.ndarray, kv_budget: int) -> np.ndarray:
        """Whether admission could ever accept each of ``total_contexts``
        under ``kv_budget``: one block pool (paged) or one reservation
        formula (reserve) prices the whole array."""
        mask = total_contexts <= self.model.max_context
        if kv_budget <= 0:
            # Weights alone overflow; run() raises the precise error.
            return mask
        return mask & self._admission_type.fits(self, total_contexts, kv_budget)

    def _setup(self, trace: Sequence[Query]):
        """Shared run/estimate setup: (plan, iteration cost model, slots,
        planned context).

        Cached per (servable context length, engine knobs), so ``run``
        after ``estimated_capacity_qps`` (or repeated runs in a sweep)
        skips the plan search, capacity validation and cost-model warm-up,
        while reconfiguring the engine between runs still takes effect.
        The servable context is the one the plan was chosen and validated
        for; ``begin`` bounds later ``extend`` calls by it.
        """
        if not trace:
            raise ValueError("the trace must contain at least one query")
        # Plan for the largest context admission could ever accept: a
        # request beyond the model's limit, or whose KV alone overflows the
        # post-weight budget, is rejected and must not drive planning.  With
        # a yet-unknown plan the single-replica budget bounds any plan's.
        dp_replicas = 1 if self.plan is None else self.plan.dp_replicas
        totals = np.fromiter((q.total_context for q in trace),
                             dtype=np.int64, count=len(trace))
        servable = totals[self._servable_mask(
            totals, self.memory_capacity_bytes
            - self._profile.parameter_bytes * dp_replicas)]
        context = int(servable.max()) if servable.size else self.model.max_context
        key = (context, self.plan, self.max_batch_size, self.context_step,
               self.memory_capacity_bytes)
        if key in self._setup_cache:
            return self._setup_cache[key]
        if self.plan is None:
            plan = self.system.throughput_plan(context_length=context)
        else:
            plan = self.plan
        slots = plan.queries_in_flight
        if self.max_batch_size is not None:
            slots = min(slots, self.max_batch_size)
        if self.plan is not None:
            # Mirror the static path: an explicit plan must place the model
            # (weights plus the in-flight KV caches) on the devices.  A
            # max_batch_size below the plan's slot count proportionally
            # shrinks the KV footprint the devices must hold.
            occupancy = (self.system.config.kv_occupancy
                         * slots / plan.queries_in_flight)
            validate_capacity(self.model, plan, context,
                              geometry=self.system.config.geometry,
                              kv_occupancy=occupancy)
        cost = IterationCostModel(
            self.system.performance, self.model, plan, context_step=self.context_step
        )
        entry = (plan, cost, slots, context)
        evict_to_bound(self._setup_cache, self._setup_cache_entries)
        self._setup_cache[key] = entry
        return entry

    def _kv_budget_bytes(self, plan: ParallelismPlan) -> int:
        weight_bytes = self._profile.parameter_bytes * plan.dp_replicas
        budget = self.memory_capacity_bytes - weight_bytes
        if budget <= 0:
            raise MemoryError(
                f"{self.model.name} weights ({weight_bytes / 2**30:.1f} GiB x "
                f"{plan.dp_replicas} replicas) exceed the "
                f"{self.memory_capacity_bytes / 2**30:.1f} GiB capacity"
            )
        return budget

    # ------------------------------------------------------------------ serving

    def run(
        self,
        trace: Sequence[Query],
        *,
        sla_latency_s: Optional[float] = None,
        telemetry: Optional[TraceRecorder] = None,
    ) -> ServingResult:
        """Serve ``trace`` to completion and return measured statistics."""
        check_sla_latency_s(sla_latency_s)
        run = self.simulate(trace, telemetry=telemetry)
        return aggregate_serving_result(
            run.requests,
            model_name=self.model.name,
            plan_name=run.plan.name,
            makespan_s=run.makespan_s,
            prefill_time_s=run.prefill_time_s,
            decode_time_s=run.decode_time_s,
            decode_step_tokens=run.decode_step_tokens,
            peak_memory_bytes=run.peak_memory_bytes,
            memory_capacity_bytes=run.memory_capacity_bytes,
            sla_latency_s=sla_latency_s,
            queue_depth_timeline=run.queue_depth_timeline,
        )

    def simulate(
        self,
        trace: Sequence[Query],
        *,
        telemetry: Optional[TraceRecorder] = None,
    ) -> EngineRun:
        """Run the event loop over ``trace`` and return per-request outcomes.

        The building block of :meth:`run` (which folds the outcome into a
        :class:`ServingResult`) and of ``repro.cluster`` (which serves one
        trace per replica and re-attributes requests to tenants).
        ``telemetry`` attaches a :class:`~repro.telemetry.TraceRecorder`
        (or one of its scopes) that the run emits lifecycle events into.

        Equivalent to :meth:`begin` plus one unbounded :meth:`advance`;
        callers that need epoch segmentation use those directly.
        """
        return self.advance(self.begin(trace, telemetry=telemetry))

    # ---------------------------------------------------------- segmented runs

    def begin(
        self,
        trace: Sequence[Query],
        *,
        planning_trace: Optional[Sequence[Query]] = None,
        telemetry: Optional["TraceRecorder | ScopedRecorder"] = None,
    ) -> EngineState:
        """Set up a resumable run and enqueue ``trace`` (which may be empty).

        ``planning_trace`` decouples plan search/validation from the initial
        arrivals: the closed-loop cluster controller plans each replica
        against every query its tenants *might* route to it, then feeds the
        actually-routed arrivals epoch by epoch through :meth:`extend`.
        When omitted, the plan comes from ``trace`` itself (the
        :meth:`simulate` path).

        ``telemetry`` enables tracing for this state: pass a whole
        :class:`~repro.telemetry.TraceRecorder` (the run records into a
        fresh ``engine`` scope) or a specific
        :class:`~repro.telemetry.ScopedRecorder` (the cluster controller
        names one scope per replica).  The recorder belongs to the *state*,
        never the engine, so cluster-shared engines stay reentrant.
        """
        queries = list(trace)
        planning = list(planning_trace) if planning_trace is not None else queries
        plan, cost, slots, planned_context = self._setup(planning)
        kv_budget = self._kv_budget_bytes(plan)
        weight_bytes = self.memory_capacity_bytes - kv_budget

        recorder = (telemetry if telemetry is None
                    or isinstance(telemetry, ScopedRecorder)
                    else telemetry.scope("engine"))

        state = EngineState(
            plan=plan,
            cost=cost,
            slots=slots,
            kv_budget=kv_budget,
            weight_bytes=weight_bytes,
            planned_context=planned_context,
            admission=self._admission_type(self, plan, kv_budget, recorder),
            bytes_per_token=self._profile.kv_cache_bytes_per_token(),
            columns=RequestColumns.sized_for(queries),
            # Weights are resident for the whole run (feasibility checked
            # above), even if every request ends up rejected.
            peak_memory=weight_bytes,
            recorder=recorder,
            # Traced, the scope's queue signal *is* the timeline: one list.
            queue_depth_timeline=([] if recorder is None
                                  else recorder.queue_signal),
        )
        self.extend(state, queries)
        return state

    @staticmethod
    def _unplanned(state: EngineState, query: Query) -> ValueError:
        return ValueError(
            f"query context {query.total_context} exceeds the planned "
            f"context {state.planned_context}; pass a planning_trace "
            "covering every query this state may serve"
        )

    def extend(
        self, state: EngineState, queries: Sequence[Query]
    ) -> List[ServingRequest]:
        """Feed new arrivals into a (possibly mid-run) state.

        Returns the created requests in feed order.  Queries the engine can
        never serve are marked ``REJECTED`` exactly as at :meth:`begin`; a
        servable query longer than the state's planned context is a caller
        error (its cost would extrapolate past the validated plan), raised
        before any request of the batch is created, so a refused call
        leaves the state as it found it.
        """
        if not queries:
            return []
        totals = np.fromiter((q.total_context for q in queries),
                             dtype=np.int64, count=len(queries))
        servable = self._servable_mask(totals, state.kv_budget)
        unplanned = servable & (totals > state.planned_context)
        if unplanned.any():
            raise self._unplanned(state, queries[int(unplanned.argmax())])
        new = [ServingRequest(len(state.requests) + i, q, columns=state.columns)
               for i, q in enumerate(queries)]
        state.requests.extend(new)
        batch = sorted(zip(new, servable.tolist(), strict=True),
                       key=lambda pair: pair[0].arrival_time_s)
        accepted: List[ServingRequest] = []
        rec = state.recorder
        book = state.admission.book
        for request, ok in batch:
            # A request whose KV cache alone can never fit (or whose context
            # exceeds the model) is refused outright rather than queued.
            if not ok:
                request.state = RequestState.REJECTED
                if rec is not None:
                    rec.event("request.rejected", request.arrival_time_s,
                              request.request_id)
                continue
            if rec is not None:
                rec.event("request.queued", request.arrival_time_s,
                          request.request_id, **request.trace_args())
            book(self, request)
            accepted.append(request)
        # ``pending`` is kept arrival-sorted as an invariant (it is consumed
        # from the left and extended with sorted batches), so only the batch
        # boundary needs checking: later segments usually append strictly
        # later arrivals, and the O(n log n) re-sort runs — and is counted —
        # only for a genuinely out-of-order feed.
        pending = state.pending
        if accepted:
            in_order = (not pending
                        or accepted[0].arrival_time_s >= pending[-1].arrival_time_s)
            pending.extend(accepted)
            if not in_order:
                state.pending = deque(
                    sorted(pending, key=lambda r: r.arrival_time_s))
                state.pending_resorts += 1
        return new

    def snapshot(self, state: EngineState) -> EngineRun:
        """The cumulative :class:`EngineRun` view of ``state`` so far."""
        return EngineRun(
            plan=state.plan,
            requests=state.requests,
            makespan_s=state.clock,
            prefill_time_s=state.prefill_time_s,
            decode_time_s=state.decode_time_s,
            decode_step_tokens=state.decode_step_tokens,
            peak_memory_bytes=state.peak_memory,
            memory_capacity_bytes=self.memory_capacity_bytes,
            recorder=state.recorder,
            queue_depth_timeline=state.queue_depth_timeline,
            preemption_log=state.preemption_log,
            loop_tops=state.loop_tops,
            ff_windows=state.ff_windows,
            window_evictions=state.window_evictions,
        )

    # --------------------------------------------------------------- event loop

    def advance(self, state: EngineState, until_s: Optional[float] = None) -> EngineRun:
        """Run the event loop until drained (or until the clock passes
        ``until_s``) and return the cumulative outcome so far.

        With ``until_s`` the loop stops *before* starting an iteration at or
        beyond the bound (an iteration underway may overshoot it: engine
        iterations are atomic), leaving a state that :meth:`extend` and a
        later ``advance`` continue seamlessly.  ``until_s=None`` drains the
        state completely and reproduces the unsegmented engine bit-exactly.
        """
        if until_s is not None and not math.isfinite(until_s):
            raise ValueError(f"until_s must be finite or None, got {until_s!r}")
        build = self._build_vectorized if self.vectorize else self._build_scalar
        while state.pending or state.waiting or state.preempted or state.running:
            if until_s is not None and state.clock >= until_s:
                break
            state.loop_tops += 1
            self._admit(state)
            if not state.running:
                # Idle: jump to the next arrival (or stop at the segment
                # bound; a later extend may add earlier work).
                if self._jump(state, until_s, [],
                              "queued requests but no admissible work"):
                    continue
                break
            prefill_work, decode_batch, all_decode_ready = build(state)
            if all_decode_ready:
                advanced = self._fast_forward(state, until_s)
            else:
                advanced = self._iterate(state, until_s, prefill_work,
                                         decode_batch)
            if not advanced:
                break
        return self.snapshot(state)

    @staticmethod
    def _jump(state: EngineState, until_s: Optional[float],
              horizon: List[float], stalled: str) -> bool:
        """Move the clock to the earliest of ``horizon`` and the next
        arrival; ``False`` when the segment must stop instead."""
        if state.pending:
            horizon.append(state.pending[0].arrival_time_s)
        if not horizon:
            # Mid-segment the next extend may bring the arrival that
            # unblocks us; with the input drained it never will.
            if until_s is not None:
                return False
            raise RuntimeError(
                f"serving engine stalled with {stalled}; this is a bug")
        next_s = min(horizon)
        if until_s is not None and next_s >= until_s:
            return False
        state.clock = next_s
        return True

    @staticmethod
    def _arrive(state: EngineState) -> None:
        """A loop top's first step: arrivals up to the clock join
        ``waiting``, and passive emitters (the KV allocator) stamp their
        events with the engine clock from here on."""
        clock, pending, waiting = state.clock, state.pending, state.waiting
        while pending and pending[0].arrival_time_s <= clock:
            waiting.append(pending.popleft())
        rec = state.recorder
        if rec is not None:
            rec.now_s = clock

    @staticmethod
    def _sample_top(state: EngineState) -> None:
        """A loop top's last step: its ``(time_s, queued, running)`` sample."""
        sample = (state.clock, len(state.waiting) + len(state.preempted),
                  len(state.running))
        # An unsegmented run never repeats a sample (the clock strictly
        # advances between loop tops); resuming a segment would, so the
        # guard keeps segmented timelines identical to unsegmented ones.
        timeline = state.queue_depth_timeline
        if not timeline or timeline[-1] != sample:
            timeline.append(sample)

    def _admit(self, state: EngineState) -> None:
        """Admit/resume phase: arrivals join ``waiting``; preempted requests
        resume first (eviction order), so fresh admissions cannot starve a
        victim's restore; then FCFS admission while a slot and the KV
        capacity allow.  Ends with the loop top's queue-depth sample."""
        self._arrive(state)
        clock, rec = state.clock, state.recorder
        waiting, preempted, running = state.waiting, state.preempted, state.running
        admission = state.admission
        slots = state.slots
        n_running = len(running)
        # An unresumable head is skipped, not waited on: a parked victim's
        # residency (or a large migrated-in allocation) must never wedge
        # the queue while a smaller one fits.
        index = 0
        while index < len(preempted) and len(running) < slots:
            request = preempted[index]
            if not admission.try_resume(state, request):
                index += 1
                continue
            del preempted[index]
            self._resume(state, request)
            running.append(request)
        while (not preempted and waiting and len(running) < slots
               and admission.try_admit(state, waiting[0])):
            request = waiting.popleft()
            request.state = RequestState.PREFILL
            request.admitted_time_s = clock
            if rec is not None:
                rec.event("request.admitted", clock, request.request_id,
                          **admission.admitted_args(request))
            running.append(request)
        admission.note_peak(state)
        if len(running) != n_running:
            # Admission only appends, so a length change is the exact
            # signal that the row gather went stale.
            state.running_rows = None
        self._sample_top(state)

    def _resume(self, state: EngineState, request: ServingRequest) -> None:
        """Bring a preempted request back; its KV is already held again."""
        clock = state.clock
        via = request.restore_via
        migrated = request.migration_pending
        request.kv_tokens = request.resume_kv_tokens
        before_first = request.first_token_time_s is None
        parked_s = clock - request.preempt_time_s
        request.stall_s += parked_s
        if before_first:
            request.prefill_stall_s += parked_s
        if via == "swap":
            in_s = kv_swap_time_s(request.swap_bytes, self.system.config.link,
                                  pp_stages=state.plan.pp_stages)
            request.num_swap_ins += 1
            request.swap_time_s += in_s
            # Swap-in serialises behind any still-draining swap-out.
            request.restore_ready_s = max(clock, request.swap_done_s) + in_s
            request.stall_s += request.restore_ready_s - clock
            if before_first:
                request.prefill_stall_s += request.restore_ready_s - clock
        request.restore_via = ""
        request.migration_pending = False
        if request.restore_remaining > 0:
            # Recompute restore: the re-prefill ahead still keeps the
            # request off decode, so its span counts as stall too (accrued
            # when the rebuild completes).
            request.restore_started_s = clock
        rebuilding = request.prefill_remaining > 0 or request.restore_remaining > 0
        request.state = RequestState.PREFILL if rebuilding else RequestState.DECODE
        rec = state.recorder
        if rec is not None:
            # A preemption's swap-in names its bytes like the swap-out did;
            # a migration's swap-in is ``cluster.migrate`` traffic instead.
            priced = ({"swap_bytes": request.swap_bytes}
                      if via == "swap" and not migrated else {})
            rec.event("request.resume", clock, request.request_id,
                      via=via, ready_s=request.restore_ready_s,
                      rebuild_tokens=request.restore_remaining, **priced)

    # Building one iteration (prefill-priority, vLLM's stock scheduler): an
    # iteration runs either a bounded chunk of prefill work or one decode
    # step for the whole running batch; decode stalls until the prefill
    # backlog drains, and the stall surfaces in the measured
    # time-between-tokens.  The static special case (everything prefilled,
    # then lockstep decoding) thereby reproduces the closed-form batch
    # decode throughput.  Recompute restores share the prefill chunk
    # budget: rebuilding a victim's KV is prompt work.  Both builds return
    # ``(prefill_work, decode_batch, all_decode_ready)``, and at most one
    # of the two lists is non-empty.

    def _build_scalar(self, state: EngineState):
        """The per-request reference build (the vectorized build's oracle)."""
        clock = state.clock
        running = state.running
        prefill_work: List[tuple] = []
        chunk_budget = self.prefill_chunk_tokens
        for request in running:
            if chunk_budget <= 0:
                break
            if request.restore_ready_s > clock:
                continue  # swap-in still in flight
            remaining = (request.restore_remaining
                         if request.restore_remaining > 0
                         else request.prefill_remaining)
            if remaining <= 0:
                continue
            tokens = min(remaining, chunk_budget)
            prefill_work.append((request, tokens))
            chunk_budget -= tokens
        if prefill_work:
            decode_batch: List[ServingRequest] = []
        else:
            decode_batch = [r for r in running
                            if r.prefill_remaining == 0
                            and r.restore_remaining == 0
                            and r.restore_ready_s <= clock]
        return prefill_work, decode_batch, False

    @staticmethod
    def _rows(state: EngineState) -> np.ndarray:
        """Row indices of ``running`` in ``columns``, gathered on demand."""
        rows = state.running_rows
        if rows is None:
            running = state.running
            rows = state.running_rows = np.fromiter(
                (r._row for r in running), dtype=np.intp, count=len(running))
        return rows

    def _build_vectorized(self, state: EngineState):
        """One gather per column replaces the scalar build's per-request
        property walk; the resulting lists are identical."""
        running = state.running
        rows = self._rows(state)
        cols = state.columns
        pre = cols.prefill_remaining[rows]
        res = cols.restore_remaining[rows]
        ready = cols.restore_ready_s[rows] <= state.clock
        decode_ready = ready & (pre == 0) & (res == 0)
        if decode_ready.all():
            return [], list(running), True
        prefill_work: List[tuple] = []
        needy = np.flatnonzero(ready & ((pre > 0) | (res > 0)))
        chunk_budget = self.prefill_chunk_tokens
        if needy.size:
            pre_list, res_list = pre.tolist(), res.tolist()
            for index in needy.tolist():
                if chunk_budget <= 0:
                    break
                remaining = (res_list[index] if res_list[index] > 0
                             else pre_list[index])
                tokens = min(remaining, chunk_budget)
                prefill_work.append((running[index], tokens))
                chunk_budget -= tokens
        if prefill_work:
            decode_batch: List[ServingRequest] = []
        else:
            decode_batch = [running[i]
                            for i in np.flatnonzero(decode_ready).tolist()]
        return prefill_work, decode_batch, False

    def _fast_forward(self, state: EngineState, until_s: Optional[float]) -> bool:
        """Advance an all-decode-ready batch, the dominant large-trace
        regime, through closed-form windows (:meth:`_window`).  A window
        ends at the first event: a completion, an admission-changing
        arrival, the segment bound — or a decode step the block pool cannot
        cover.  On that last one the eviction iteration runs here, exactly
        as the loop would run it: the loop top's queue sample and clock
        stamp (:meth:`_stand_in_top`), then the grow-or-preempt walk.  When
        the loop top after it provably changes nothing, the surviving
        batch's decode step opens the next window instead of being priced
        alone (the window prices it identically).  Any other event, or a
        loop top that might admit or resume, returns to the loop.  ``False``
        when the segment must stop."""
        while True:
            steps, exhausted = self._window(state, until_s)
            if not exhausted:
                if steps:
                    return True
                return self._iterate(state, until_s, [], list(state.running))
            if steps:
                if not self._stand_in_top(state, until_s):
                    return True
                state.window_evictions += 1
            decode_batch = state.admission.grow(state, list(state.running))
            # A non-empty batch is the whole surviving ``running`` list.
            if not decode_batch or not state.admission.blocked(state):
                return self._execute(state, until_s, [], decode_batch)

    def _stand_in_top(self, state: EngineState, until_s: Optional[float]) -> bool:
        """Take the next loop top's place when it provably changes nothing:
        the segment bound is not reached and every resume or admission try
        it would make is refused without side effects (``blocked``).
        Records what that loop top records (crossed arrivals join
        ``waiting``, the clock stamp, the queue sample); ``False`` when the
        real loop top must run instead."""
        if until_s is not None and state.clock >= until_s:
            return False
        self._arrive(state)
        if not state.admission.blocked(state):
            return False
        self._sample_top(state)
        return True

    def _window(self, state: EngineState,
                until_s: Optional[float]) -> Tuple[int, bool]:
        """One event-horizon window: advance as many one-token iterations
        as provably hold no event in one closed-form step whose float
        arithmetic replays the scalar loop operation for operation (see
        ``decode_span_s``).  Returns ``(steps, exhausted)``: ``exhausted``
        when the window stopped only because the block pool cannot cover
        the next decode step (``steps`` may then be zero)."""
        rows, cols = self._rows(state), state.columns
        running, clock = state.running, state.clock
        gen = cols.tokens_generated[rows]
        ctx0 = cols.prompt_tokens[rows] + gen
        remaining_tokens = cols.decode_tokens[rows] - gen
        # No request may complete mid-window (its slot would free), so the
        # first completion bounds it; the span-matrix cap only splits a
        # longer window, which prices identically.
        horizon = int(remaining_tokens.min())
        limit = min(horizon, 4096)
        covered = state.admission.cap_window(state, ctx0, limit)
        if covered == 0:
            return 0, True
        k = covered
        # An iteration runs only while its loop-top clock stays under the
        # segment bound — and under the next arrival when admission could
        # accept it.  With a full batch, a non-empty waiting/preempted
        # queue, or (FCFS) a blocked head, admission stays blocked for the
        # whole window (reservations are constant and free blocks only
        # shrink), so arrivals merely cross into the backlog.
        bound = until_s
        if (state.pending and len(running) < state.slots
                and not state.waiting and not state.preempted):
            arrival = state.pending[0].arrival_time_s
            bound = arrival if bound is None else min(bound, arrival)
        if bound is not None and k > 1:
            # Estimate how many iterations fit under the bound from the
            # first iteration's span and shrink the span matrix before
            # pricing it; an off estimate merely splits the window across
            # loop trips, which prices identically (the fold resumes from
            # the same float clock).
            span0 = float(state.cost.decode_span_s(ctx0, 1)[0])
            if span0 > 0.0:
                k_cap = int((bound - clock) / span0) + 2
                if k_cap < k:
                    k = max(k_cap, 1)
        span = state.cost.decode_span_s(ctx0, k)
        # clocks[j] is the clock after j window iterations; the fold seeds
        # the running clock so each entry equals the scalar loop's sequence
        # of += operations exactly.
        clocks = np.empty(k + 1)
        clocks[0] = clock
        clocks[1:] = span
        clocks = clocks.cumsum()
        steps = k
        if bound is not None:
            steps = min(steps, int(np.searchsorted(clocks[:k], bound,
                                                   side="left")))
        if steps == 0:
            return 0, False
        clock_end = float(clocks[steps])
        state.admission.commit_window(state, ctx0, steps)
        if steps > 1:
            self._sample_window(state, clocks, span, steps)
        # Every request's first in-window gap runs from its own last token;
        # the later gaps are the shared clock deltas, broadcast over the
        # rows' next sample slots.
        cursor = cols.tbt_offset[rows] + (gen - 1)
        samples = cols.tbt_samples
        samples[cursor] = clocks[1] - cols.last_token_time_s[rows]
        if steps > 1:
            samples[cursor[:, None] + np.arange(1, steps)] = (
                clocks[2:steps + 1] - clocks[1:steps])
        cols.tokens_generated[rows] = gen + steps
        cols.last_token_time_s[rows] = clock_end
        state.admission.stamped(running, clock_end)
        decode_fold = np.empty(steps + 1)
        decode_fold[0] = state.decode_time_s
        decode_fold[1:] = span[:steps]
        state.decode_time_s = float(decode_fold.cumsum()[-1])
        state.decode_step_tokens += len(running) * steps
        rec = state.recorder
        if rec is not None:
            # One span for the whole window, never per-token events: the
            # scalar loop merges the identical iterations one step at a
            # time into the same span.
            rec.window_step("decode", (tuple(r.request_id for r in running), ()),
                            clock, clock_end, steps, 0)
            rec.now_s = clock_end
        state.clock = clock_end
        state.ff_windows += 1
        if steps == horizon:
            done = (remaining_tokens == steps).tolist()
            self._retire(state, [r for r, last in zip(running, done, strict=True)
                                 if last])
        return steps, steps == covered < limit

    @staticmethod
    def _sample_window(state: EngineState, clocks: np.ndarray,
                       span: np.ndarray, steps: int) -> None:
        """Queue-depth samples of a fast-forward window's in-window loop
        tops; crossed arrivals count as queued exactly as the scalar tops
        count them (they join ``waiting`` at the next real loop top)."""
        timeline = state.queue_depth_timeline
        last_top = clocks[steps - 1]
        crossed = list(takewhile(lambda arrival_s: arrival_s <= last_top,
                                 (r.arrival_time_s for r in state.pending)))
        queued_base = len(state.waiting) + len(state.preempted)
        n_running = len(state.running)
        tops = clocks[1:steps]
        if crossed:
            queued = (queued_base + np.searchsorted(
                np.asarray(crossed), tops, side="right")).tolist()
        else:
            queued = [queued_base] * (steps - 1)
        if float(span[:steps - 1].min()) > 0.0:
            # Strictly increasing tops: no sample can repeat its predecessor
            # (nor the pre-window one), so extend at C speed, unguarded.
            timeline.extend(zip(tops.tolist(), queued, repeat(n_running),
                                strict=False))
        else:  # zero-span iteration: keep the exact guard
            for index, top in enumerate(tops.tolist()):
                sample = (top, queued[index], n_running)
                if not timeline or timeline[-1] != sample:
                    timeline.append(sample)

    def _iterate(self, state: EngineState, until_s: Optional[float],
                 prefill_work: List[tuple],
                 decode_batch: List[ServingRequest]) -> bool:
        """One ordinary iteration: grow the decode batch's KV (evicting on
        exhaustion), then price and apply it.  When everyone runnable is
        waiting on a swap-in, jump to the first restore completion (or the
        next arrival, whichever is sooner) instead of spinning.  ``False``
        when the segment must stop."""
        if decode_batch:
            decode_batch = state.admission.grow(state, decode_batch)
        return self._execute(state, until_s, prefill_work, decode_batch)

    def _execute(self, state: EngineState, until_s: Optional[float],
                 prefill_work: List[tuple],
                 decode_batch: List[ServingRequest]) -> bool:
        """Price and apply an iteration whose KV is held, or jump when it
        has no work (see :meth:`_iterate`)."""
        if not prefill_work and not decode_batch:
            clock = state.clock
            restores = [r.restore_ready_s for r in state.running
                        if r.restore_ready_s > clock]
            return self._jump(state, until_s, restores,
                              "running requests but no schedulable work")
        batch_rows = self._price(state, prefill_work, decode_batch)
        self._apply(state, prefill_work, decode_batch, batch_rows)
        return True

    def _price(self, state: EngineState, prefill_work: List[tuple],
               decode_batch: List[ServingRequest]) -> Optional[np.ndarray]:
        """Price one iteration and advance the clock past it.  Returns the
        decode batch's column rows when it was priced vectorized."""
        cost, cols, vectorize = state.cost, state.columns, self.vectorize
        chunk_sizes: List[int] = []
        chunk_midpoints: List[int] = []
        for request, tokens in prefill_work:
            if request.restore_remaining > 0:
                done = request.restore_total - request.restore_remaining
            else:
                done = request.query.prompt_tokens - request.prefill_remaining
            chunk_sizes.append(tokens)
            chunk_midpoints.append(max(done + tokens // 2, 1))
        # The batch entry points replay the scalar folds bit for bit; below
        # a handful of items the scalar loop is simply faster.
        if vectorize and len(prefill_work) >= 8:
            prefill_s = cost.prefill_chunk_batch_s(
                np.asarray(chunk_sizes, dtype=np.int64),
                np.asarray(chunk_midpoints, dtype=np.int64))
        else:
            prefill_s = 0.0
            for tokens, midpoint in zip(chunk_sizes, chunk_midpoints, strict=True):
                prefill_s += cost.prefill_chunk_s(tokens, midpoint)
        batch_rows: Optional[np.ndarray] = None
        if vectorize and len(decode_batch) >= 8:
            batch_rows = np.fromiter((r._row for r in decode_batch),
                                     dtype=np.intp, count=len(decode_batch))
            decode_s = cost.decode_iteration_batch_s(
                cols.prompt_tokens[batch_rows]
                - cols.prefill_remaining[batch_rows]
                + cols.tokens_generated[batch_rows])
        else:
            decode_s = cost.decode_iteration_s(
                [r.context_length for r in decode_batch])
        start_s = state.clock
        state.clock = clock = start_s + (prefill_s + decode_s)
        state.prefill_time_s += prefill_s
        if decode_batch:
            state.decode_time_s += decode_s
            state.decode_step_tokens += len(decode_batch)
        rec = state.recorder
        if rec is not None:
            decode_ids = tuple(r.request_id for r in decode_batch)
            prefill_ids = tuple(r.request_id for r, _ in prefill_work)
            kind = "decode" if decode_ids else "prefill"
            rec.window_step(kind, (decode_ids, prefill_ids), start_s, clock, 1,
                            sum(chunk_sizes) if prefill_ids else 0)
            rec.now_s = clock
        return batch_rows

    def _apply(self, state: EngineState, prefill_work: List[tuple],
               decode_batch: List[ServingRequest],
               batch_rows: Optional[np.ndarray]) -> None:
        """Apply a priced iteration: advance prefills and rebuilds, emit one
        token per decoding request, and retire whoever finished."""
        clock, rec = state.clock, state.recorder
        prefill_completed: List[ServingRequest] = []
        for request, tokens in prefill_work:
            if request.restore_remaining > 0:
                # KV rebuilt, nothing emitted: the request already owns its
                # generated tokens and rejoins decode next iteration.
                request.restore_remaining -= tokens
                if request.restore_remaining == 0:
                    # Victims are decoding requests, so the rebuilt one
                    # decodes next; the rebuild span joins the off-device
                    # time already accrued at resume.
                    request.state = RequestState.DECODE
                    request.stall_s += clock - request.restore_started_s
                continue
            request.prefill_remaining -= tokens
            if request.prefill_remaining == 0:
                # The chunk completing the prefill emits the first token.
                request.state = RequestState.DECODE
                request.first_token_time_s = clock
                request.last_token_time_s = clock
                request.tokens_generated = 1
                if rec is not None:
                    rec.event("request.first_token", clock, request.request_id)
                if request.prefix_pending:
                    # Cache-miss promotion (paged only): the prefix KV just
                    # prefilled becomes the chain later arrivals attach to
                    # (best-effort — skipped when another request won the
                    # race or the pool cannot spare the tail snapshot block).
                    request.prefix_pending = False
                    state.allocator.register_prefix(
                        request.query.prefix_key, request.query.prefix_tokens,
                        request.request_id, now_s=clock)
                prefill_completed.append(request)
        # Time between tokens, including any prefill stalls since each
        # request's previous token.  Only a request whose token count changed
        # can newly finish: the decode batch plus the completed prefills.
        if batch_rows is not None:
            cols = state.columns
            gen = cols.tokens_generated[batch_rows]
            cols.tbt_samples[cols.tbt_offset[batch_rows] + (gen - 1)] = (
                clock - cols.last_token_time_s[batch_rows])
            cols.tokens_generated[batch_rows] = gen + 1
            cols.last_token_time_s[batch_rows] = clock
            finished = [decode_batch[i] for i in np.flatnonzero(
                cols.tokens_generated[batch_rows]
                >= cols.decode_tokens[batch_rows]).tolist()]
        else:
            for request in decode_batch:
                request.emit_token(clock)
            finished = [r for r in decode_batch
                        if r.tokens_generated >= r.query.decode_tokens]
        for request in prefill_completed:
            if request.tokens_generated >= request.query.decode_tokens:
                finished.append(request)
        # Decode never shares an iteration with prefill work.
        stamped = decode_batch or prefill_completed
        if stamped:
            state.admission.stamped(stamped, clock)
        if finished:
            self._retire(state, finished)

    @staticmethod
    def _retire(state: EngineState, finished: List[ServingRequest]) -> None:
        """Finish ``finished`` at the current clock, free their KV and drop
        them from ``running`` (in place: the state owns the list)."""
        clock, rec = state.clock, state.recorder
        release = state.admission.release
        for request in finished:
            request.state = RequestState.FINISHED
            request.finish_time_s = clock
            if rec is not None:
                rec.event("request.finished", clock, request.request_id,
                          tokens=request.tokens_generated)
            release(request, clock)
        done = set(finished)
        state.running[:] = [r for r in state.running if r not in done]
        state.running_rows = None

    # ------------------------------------------------------------- migration

    def migrate_out(self, state: EngineState, request: ServingRequest,
                    *, now_s: float) -> KvMigration:
        """Hand ``request`` off to another engine, staging its KV in host
        memory.

        Used by the closed-loop cluster controller when a re-placement
        dismantles a replica with work in flight: the request's
        materialised KV streams out over the CXL fabric (KV a swap eviction
        already staged pays no fresh transfer), its blocks or reservation
        are freed, and the returned :class:`KvMigration` carries everything
        :meth:`migrate_in` needs to resume it elsewhere at its original
        progress.  A recompute-evicted request has no KV to move (restart
        it instead); a finished, rejected or already-migrated request
        cannot move at all.
        """
        if request.state in (RequestState.FINISHED, RequestState.REJECTED,
                             RequestState.MIGRATED):
            raise ValueError(
                f"request {request.request_id} is {request.state.value}; "
                "only in-flight requests can migrate"
            )
        if request.restore_remaining > 0:
            raise ValueError(
                f"request {request.request_id} awaits a recompute rebuild; "
                "its KV is gone — restart it on the destination instead"
            )
        context = request.context_length
        total_bytes = context * state.bytes_per_token
        parked = request.state is RequestState.PREEMPTED
        # KV already swap-staged in host memory travels for free; only the
        # device-resident remainder pays a fresh swap-out on this fabric.
        staged_bytes = request.swap_bytes if parked else 0
        fresh_bytes = max(total_bytes - staged_bytes, 0)
        out_s = (kv_swap_time_s(fresh_bytes, self.system.config.link,
                                pp_stages=state.plan.pp_stages)
                 if fresh_bytes else 0.0)
        # The host copy is whole once the fresh transfer finishes AND any
        # still-draining eviction swap-out has landed.
        host_ready_s = now_s + out_s
        if parked:
            host_ready_s = max(host_ready_s, request.swap_done_s)
        carried = {name: getattr(request, name) for name in _CARRIED_FIELDS}
        # A request migrated while parked has been stalled since its
        # eviction; close that span here (the destination's resume counts
        # only from the migration instant onward).
        parked_s = max(now_s - request.preempt_time_s, 0.0) if parked else 0.0
        carried.update(
            num_swap_outs=request.num_swap_outs + (1 if fresh_bytes else 0),
            swap_time_s=request.swap_time_s + out_s,
            stall_s=request.stall_s + parked_s,
            prefill_stall_s=request.prefill_stall_s + (
                parked_s if request.first_token_time_s is None else 0.0),
        )
        moved = KvMigration(
            query=request.query,
            kv_tokens=context,
            swap_bytes=total_bytes,
            swap_out_s=out_s,
            host_ready_s=host_ready_s,
            swap_in_priced=request.migration_pending,
            tbt_samples_s=tuple(request.tbt_samples_s),
            **carried,
        )
        rec = state.recorder
        if rec is not None:
            rec.event("request.migrate_out", now_s, request.request_id,
                      kv_bytes=total_bytes, swap_out_s=out_s,
                      host_ready_s=host_ready_s,
                      tokens_generated=request.tokens_generated)
            rec.now_s = now_s
        # Strip the request from the (frozen) source state: free its blocks
        # or reservation and drop it from whichever queue still holds it.
        running = request in state.running
        state.admission.release(request, now_s, resident=running)
        for queue in (state.pending, state.waiting, state.preempted):
            if request in queue:
                queue.remove(request)
        if running:
            state.running.remove(request)
            state.running_rows = None
        request.kv_tokens = 0
        request.restore_via = ""
        request.migration_pending = False
        request.state = RequestState.MIGRATED
        return moved

    def migrate_in(self, state: EngineState, moved: KvMigration,
                   *, now_s: float) -> ServingRequest:
        """Admit a migrated request with its progress and history intact.

        The request joins the destination like a swap-evicted victim whose
        KV sits in host memory: it queues as ``PREEMPTED`` and resumes —
        ahead of fresh admissions — once the destination can hold its KV
        (block re-allocation in paged mode, a full-context reservation in
        reserve mode), paying a swap-in priced on *this* engine's fabric
        serialised behind the source's still-draining swap-out.  TTFT,
        latency and SLA classification stay anchored to the original
        arrival time, which travels inside ``moved.query``.
        """
        # Validate before creating anything: a refused call leaves the
        # state as it found it.
        servable = bool(self._servable_mask(
            np.array([moved.query.total_context], dtype=np.int64),
            state.kv_budget)[0])
        if servable and moved.query.total_context > state.planned_context:
            raise self._unplanned(state, moved.query)
        request = ServingRequest(len(state.requests), moved.query,
                                 columns=state.columns)
        state.requests.append(request)
        for name in _CARRIED_FIELDS:
            setattr(request, name, getattr(moved, name))
        # The carried history fills the new row's first reserved slots.
        start = int(state.columns.tbt_offset[request.row])
        state.columns.tbt_samples[start:start + len(moved.tbt_samples_s)] = (
            moved.tbt_samples_s)
        request.migrated_count += 1
        request.migrated_kv_bytes += moved.swap_bytes
        rec = state.recorder
        if not servable:
            request.state = RequestState.REJECTED
            if rec is not None:
                rec.event("request.migrate_in", now_s, request.request_id,
                          accepted=False)
            return request
        request.state = RequestState.PREEMPTED
        request.restore_via = "swap"
        request.migration_pending = True
        request.preempt_time_s = now_s
        request.swap_bytes = moved.swap_bytes
        request.swap_done_s = moved.host_ready_s
        # Blocks on resume: the whole prompt for a mid-prefill request
        # (mirroring paged admission), the materialised context otherwise.
        request.resume_kv_tokens = (moved.query.prompt_tokens
                                    if moved.prefill_remaining > 0
                                    else moved.kv_tokens)
        state.admission.book(self, request)
        state.preempted.append(request)
        if rec is not None:
            rec.event("request.migrate_in", now_s, request.request_id,
                      accepted=True, kv_bytes=moved.swap_bytes,
                      tokens_generated=moved.tokens_generated,
                      host_ready_s=moved.host_ready_s)
        return request

    # ------------------------------------------------------------------ sizing

    def estimated_capacity_qps(self, trace: Sequence[Query]) -> float:
        """Rough sustainable arrival rate (queries/s) for ``trace``'s shape.

        Models the engine's actual steady state: prefills serialise (one
        request's prompt streams exclusively, and decoding stalls while it
        does), whereas decode iterations advance the whole batch at
        once, so a query's decode share is ``decode_tokens`` iterations
        divided across the occupied slots.  Useful for choosing an arrival
        rate that loads, but does not drown, the system.  The memory-side
        slot cap is the admission mode's: ``reserve`` books each query's
        full-context KV up front, while ``paged`` fits as many mid-decode
        contexts as the block pool holds.
        """
        queries = list(trace)
        plan, cost, slots, _ = self._setup(queries)
        # Estimate from the queries admission could actually accept, with the
        # same predicate (and weight-feasibility error) run() applies.
        kv_budget = self._kv_budget_bytes(plan)
        mask = self._servable_mask(
            np.fromiter((q.total_context for q in queries),
                        dtype=np.int64, count=len(queries)),
            kv_budget)
        servable = [q for q, ok in zip(queries, mask.tolist(), strict=True) if ok]
        if servable:
            queries = servable
        mean_prompt = sum(q.prompt_tokens for q in queries) / len(queries)
        mean_decode = sum(q.decode_tokens for q in queries) / len(queries)
        mid_context = int(mean_prompt + mean_decode / 2)
        # On memory-bound configs the KV budget, not the plan, caps how many
        # requests decode concurrently.
        slots = self._admission_type.slot_cap(self, kv_budget, mean_prompt,
                                              mean_decode, slots)
        prefill_s = cost.prefill_chunk_s(int(mean_prompt), max(int(mean_prompt) // 2, 1))
        decode_share_s = mean_decode * cost.decode_iteration_s([mid_context]) / slots
        return 1.0 / (prefill_s + decode_share_s)
