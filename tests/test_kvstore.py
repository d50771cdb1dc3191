"""Tests for the paged KV-cache manager and preemption-aware serving."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import CentConfig
from repro.core.results import ServingResult
from repro.core.system import CentSystem
from repro.cxl.link import CXL_3_0_LINK
from repro.evaluation import overload_preemption_study
from repro.kvstore import (
    PREEMPTION_POLICIES,
    RESTORE_MODES,
    BlockPool,
    KvAllocator,
    PreemptionPolicy,
    kv_swap_time_s,
)
from repro.mapping.parallelism import PipelineParallel
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import ADMISSION_MODES, RequestState, ServingEngine, ServingRequest
from repro.workloads import (
    Query,
    fixed_queries,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024, num_heads=16,
                       num_kv_heads=4, d_ff=2816, vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    config = CentConfig(num_devices=4, context_samples=2)
    return CentSystem(config, small_model)


@pytest.fixture(scope="module")
def pp_plan(small_model):
    return PipelineParallel(4, small_model)


@pytest.fixture(scope="module")
def profile(small_model):
    return ModelMemoryProfile(small_model)


def tight_capacity(profile, contexts, context_length):
    """Capacity fitting the weights plus ``contexts`` full KV caches."""
    return int(profile.parameter_bytes
               + contexts * profile.kv_cache_bytes_per_query(context_length))


class TestBlockPool:
    def test_sizing_rounds_down_to_whole_blocks(self):
        pool = BlockPool(budget_bytes=1000, bytes_per_token=10, block_tokens=16)
        assert pool.block_bytes == 160
        assert pool.num_blocks == 6          # 960 of 1000 bytes usable
        assert pool.capacity_tokens == 96
        assert pool.free_blocks == 6

    def test_blocks_for_rounds_up(self):
        pool = BlockPool(budget_bytes=1000, bytes_per_token=10, block_tokens=16)
        assert pool.blocks_for(0) == 0
        assert pool.blocks_for(1) == 1
        assert pool.blocks_for(16) == 1
        assert pool.blocks_for(17) == 2
        with pytest.raises(ValueError):
            pool.blocks_for(-1)

    def test_occupancy_matches_reserve_effective_capacity(self):
        # kv_occupancy discounts the reserve path's per-query booking, so
        # an occupancy of 0.5 means the budget effectively holds twice the
        # worst-case contexts; the paged pool must see the same capacity,
        # or reserve-vs-paged comparisons at occupancy < 1 are skewed.
        full = BlockPool(budget_bytes=1600, bytes_per_token=10, block_tokens=16)
        half = BlockPool(budget_bytes=1600, bytes_per_token=10, block_tokens=16,
                         occupancy=0.5)
        assert half.num_blocks == 2 * full.num_blocks

    def test_paged_servability_matches_reserve_at_low_occupancy(self):
        # A query the occupancy-discounted reserve path admits must not be
        # permanently rejected by paged admission (up to block rounding).
        model = ModelConfig(name="tiny", num_layers=8, d_model=1024, num_heads=16,
                            num_kv_heads=4, d_ff=2816, vocab_size=32000,
                            max_context=2048)
        config = CentConfig(num_devices=4, context_samples=2, kv_occupancy=0.8)
        system = CentSystem(config, model)
        profile = ModelMemoryProfile(model)
        # Full-context KV is 90% of the budget: reserve books 72% and
        # admits; the paged pool (budget / 0.8) must admit it too.
        budget = int(profile.kv_cache_bytes_per_query(1024) / 0.9)
        capacity = profile.parameter_bytes + budget
        query = Query(512, 512)
        for admission in ("reserve", "paged"):
            engine = ServingEngine(system, memory_capacity_bytes=capacity,
                                   admission=admission)
            totals = np.array([query.total_context], dtype=np.int64)
            assert engine._servable_mask(totals, budget)[0], admission

    def test_allocate_release_bounds(self):
        pool = BlockPool(budget_bytes=480, bytes_per_token=10, block_tokens=16)
        assert pool.num_blocks == 3
        assert pool.allocate(2)
        assert pool.used_blocks == 2
        assert pool.allocated_bytes == 320
        assert not pool.allocate(2)          # only one block left
        assert pool.free_blocks == 1         # failed allocate is side-effect free
        pool.release(1)
        assert pool.allocate(2)
        assert pool.utilization == 1.0
        with pytest.raises(ValueError):
            pool.release(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockPool(budget_bytes=-1, bytes_per_token=10)
        with pytest.raises(ValueError):
            BlockPool(budget_bytes=100, bytes_per_token=0)
        with pytest.raises(ValueError):
            BlockPool(budget_bytes=100, bytes_per_token=10, block_tokens=0)
        with pytest.raises(ValueError):
            BlockPool(budget_bytes=100, bytes_per_token=10, occupancy=1.5)

    def test_swap_out_frees_device_blocks_and_tracks_host_copies(self):
        pool = BlockPool(budget_bytes=640, bytes_per_token=10, block_tokens=16)
        assert pool.num_blocks == 4
        assert pool.allocate(3)
        pool.swap_out(2)
        # Device blocks freed for others, host copies remembered.
        assert pool.free_blocks == 3
        assert pool.used_blocks == 1
        assert pool.swapped_blocks == 2
        assert pool.free_blocks + pool.used_blocks == pool.num_blocks

    def test_swap_in_is_all_or_nothing(self):
        pool = BlockPool(budget_bytes=640, bytes_per_token=10, block_tokens=16)
        assert pool.allocate(3)
        pool.swap_out(3)                     # free 3, staged 3
        assert pool.allocate(2)              # someone else takes 2
        assert not pool.swap_in(3)           # only 2 free: refused whole
        assert pool.swapped_blocks == 3      # nothing partially granted
        assert pool.free_blocks == 2
        pool.release(2)
        assert pool.swap_in(3)
        assert pool.swapped_blocks == 0
        assert pool.used_blocks == 3

    def test_swap_bounds(self):
        pool = BlockPool(budget_bytes=640, bytes_per_token=10, block_tokens=16)
        assert pool.allocate(2)
        with pytest.raises(ValueError):
            pool.swap_out(3)                 # only 2 in use
        with pytest.raises(ValueError):
            pool.swap_in(1)                  # nothing staged
        pool.swap_out(2)
        with pytest.raises(ValueError):
            pool.drop_swapped(3)             # only 2 staged
        pool.drop_swapped(2)
        assert pool.swapped_blocks == 0
        with pytest.raises(ValueError):
            pool.swap_out(-1)


class TestKvAllocator:
    def make(self, blocks=4, block_tokens=16):
        pool = BlockPool(budget_bytes=blocks * 16 * 10, bytes_per_token=10,
                         block_tokens=block_tokens)
        assert pool.num_blocks == blocks
        return KvAllocator(pool)

    def test_allocate_then_grow_within_block_is_free(self):
        alloc = self.make(blocks=4)
        assert alloc.allocate("a", 10)       # 1 block covers 16 tokens
        assert alloc.holds_blocks("a") == 1
        assert alloc.grow("a", 16)           # same block
        assert alloc.holds_blocks("a") == 1
        assert alloc.grow("a", 17)           # crosses the boundary
        assert alloc.holds_blocks("a") == 2
        assert alloc.holds_tokens("a") == 17

    def test_grow_fails_cleanly_when_pool_dry(self):
        alloc = self.make(blocks=2)
        assert alloc.allocate("a", 16)
        assert alloc.allocate("b", 16)
        assert not alloc.grow("a", 17)       # no third block
        assert alloc.holds_tokens("a") == 16  # failure had no side effects
        assert alloc.release("b") == 16
        assert alloc.grow("a", 17)

    def test_release_frees_everything(self):
        alloc = self.make(blocks=4)
        assert alloc.allocate("a", 50)       # 4 blocks
        assert alloc.pool.free_blocks == 0
        assert alloc.release("a") == 50
        assert alloc.pool.free_blocks == 4
        assert alloc.release("a") == 0       # idempotent for unknown owners

    def test_errors(self):
        alloc = self.make()
        assert alloc.allocate("a", 8)
        with pytest.raises(ValueError):
            alloc.allocate("a", 8)           # double allocation
        with pytest.raises(ValueError):
            alloc.grow("a", 4)               # shrink
        with pytest.raises(ValueError):
            alloc.grow("ghost", 8)           # unknown owner

    def test_partial_evict_and_readmit_roundtrip(self):
        alloc = self.make(blocks=6)
        assert alloc.allocate("a", 80)       # 5 blocks
        assert alloc.evict_blocks("a", 2) == 2
        assert alloc.holds_resident_blocks("a") == 3
        assert alloc.holds_swapped_blocks("a") == 2
        assert alloc.holds_blocks("a") == 5  # logical allocation unchanged
        assert alloc.holds_tokens("a") == 80
        assert alloc.pool.free_blocks == 3   # 1 spare + 2 staged out
        assert alloc.readmit("a")
        assert alloc.holds_resident_blocks("a") == 5
        assert alloc.holds_swapped_blocks("a") == 0
        assert alloc.pool.swapped_blocks == 0

    def test_evict_blocks_bounded_by_residency(self):
        alloc = self.make(blocks=4)
        assert alloc.allocate("a", 40)       # 3 blocks
        assert alloc.evict_blocks("a", 10) == 3   # capped at resident count
        assert alloc.holds_resident_blocks("a") == 0
        with pytest.raises(ValueError):
            alloc.evict_blocks("a", 0)
        with pytest.raises(ValueError):
            alloc.evict_blocks("ghost", 1)
        with pytest.raises(ValueError):
            alloc.readmit("ghost")

    def test_readmit_is_all_or_nothing_when_pool_exhausted_mid_grant(self):
        """Satellite regression: a swap-in that cannot be granted in full
        must not leak partially-granted blocks — the pool is exhausted
        mid-grant and everything must come back side-effect free."""
        alloc = self.make(blocks=6)
        assert alloc.allocate("victim", 80)  # 5 blocks
        assert alloc.evict_blocks("victim", 4) == 4
        # Another owner takes 3 of the 5 free blocks: the victim's 4-block
        # readmission can only be half-granted, so it must not be at all.
        assert alloc.allocate("squatter", 48)
        free_before = alloc.pool.free_blocks
        assert not alloc.readmit("victim")
        assert alloc.pool.free_blocks == free_before
        assert alloc.holds_swapped_blocks("victim") == 4
        assert alloc.holds_resident_blocks("victim") == 1
        assert alloc.pool.swapped_blocks == 4
        # Once the squatter leaves, the same readmission succeeds whole.
        alloc.release("squatter")
        assert alloc.readmit("victim")
        assert alloc.holds_resident_blocks("victim") == 5

    def test_release_drops_host_staged_blocks_too(self):
        alloc = self.make(blocks=4)
        assert alloc.allocate("a", 50)       # 4 blocks
        assert alloc.evict_blocks("a", 2) == 2
        assert alloc.pool.swapped_blocks == 2
        assert alloc.release("a") == 50
        assert alloc.pool.free_blocks == 4
        assert alloc.pool.swapped_blocks == 0
        assert alloc.holds_blocks("a") == 0

    def test_grow_counts_staged_blocks_as_held(self):
        alloc = self.make(blocks=6)
        assert alloc.allocate("a", 64)       # 4 blocks
        assert alloc.evict_blocks("a", 2) == 2
        # Growing within the logically-held 4 blocks allocates nothing new.
        assert alloc.grow("a", 64)
        assert alloc.holds_resident_blocks("a") == 2
        assert alloc.grow("a", 65)           # 5th block: one fresh allocation
        assert alloc.holds_resident_blocks("a") == 3
        assert alloc.holds_blocks("a") == 5


def make_request(request_id, *, arrival=0.0, priority=1.0, last_token=None,
                 admitted=None):
    request = ServingRequest(
        request_id, Query(64, 64, arrival_time_s=arrival, priority=priority))
    request.last_token_time_s = last_token
    request.admitted_time_s = admitted
    return request


class TestPreemptionPolicy:
    def test_lru_evicts_stalest_then_latest_arrival(self):
        stale = make_request(0, last_token=1.0)
        fresh = make_request(1, last_token=5.0)
        assert PreemptionPolicy("lru").select_victim([fresh, stale], 6.0) is stale
        # Ties on last use break toward the later arrival, then larger id.
        a = make_request(0, arrival=0.0, last_token=2.0)
        b = make_request(1, arrival=1.0, last_token=2.0)
        assert PreemptionPolicy("lru").select_victim([a, b], 3.0) is b

    def test_lru_falls_back_to_admission_then_arrival(self):
        admitted = make_request(0, admitted=4.0)
        arrived = make_request(1, arrival=2.0)
        assert PreemptionPolicy("lru").select_victim([admitted, arrived], 5.0) \
            is arrived

    def test_priority_evicts_lowest_priority_first(self):
        high = make_request(0, priority=2.0, last_token=0.0)
        low = make_request(1, priority=0.5, last_token=9.0)
        assert PreemptionPolicy("priority").select_victim([high, low], 10.0) is low

    def test_sla_deadline_evicts_most_slack(self):
        early = make_request(0, arrival=0.0)
        late = make_request(1, arrival=5.0)
        policy = PreemptionPolicy("sla_deadline", sla_latency_s=10.0)
        # The later arrival's deadline is further out: it has the most slack.
        assert policy.select_victim([early, late], 7.0) is late

    def test_selection_is_deterministic(self):
        requests = [make_request(i, arrival=float(i % 3)) for i in range(6)]
        for name in PREEMPTION_POLICIES:
            policy = PreemptionPolicy(name, sla_latency_s=5.0)
            first = policy.select_victim(requests, 4.0)
            assert all(policy.select_victim(requests, 4.0) is first
                       for _ in range(5))

    def test_empty_candidates(self):
        assert PreemptionPolicy().select_victim([], 0.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PreemptionPolicy("random")
        with pytest.raises(ValueError):
            PreemptionPolicy(restore="teleport")
        with pytest.raises(ValueError):
            PreemptionPolicy(sla_latency_s=0.0)

    def test_partial_blocks_validation(self):
        assert PreemptionPolicy(partial_blocks=4).partial_blocks == 4
        assert PreemptionPolicy().partial_blocks is None
        with pytest.raises(ValueError):
            PreemptionPolicy(partial_blocks=0)
        with pytest.raises(ValueError, match="swap"):
            PreemptionPolicy(restore="recompute", partial_blocks=4)


class TestSwapPricing:
    def test_scales_with_bytes_and_floors_at_latency(self):
        small = kv_swap_time_s(2**20, CXL_3_0_LINK)
        large = kv_swap_time_s(2**30, CXL_3_0_LINK)
        assert 0 < small < large
        assert small > CXL_3_0_LINK.base_latency_ns * 1e-9
        assert kv_swap_time_s(0, CXL_3_0_LINK) == 0.0

    def test_pipeline_shards_stream_in_parallel_up_to_host_link(self):
        one = kv_swap_time_s(2**28, CXL_3_0_LINK, pp_stages=1)
        four = kv_swap_time_s(2**28, CXL_3_0_LINK, pp_stages=4)
        many = kv_swap_time_s(2**28, CXL_3_0_LINK, pp_stages=64)
        assert four < one
        # x16 host lanes bound 4 x4 device links exactly: more shards gain 0.
        assert many == pytest.approx(four)
        with pytest.raises(ValueError):
            kv_swap_time_s(-1, CXL_3_0_LINK)


class TestPagedAdmission:
    def test_unconstrained_pool_never_preempts(self, system, pp_plan):
        trace = with_arrivals(sharegpt_like_queries(30, seed=3),
                              poisson_arrivals(30, 40.0, seed=3))
        result = ServingEngine(system, pp_plan, admission="paged").run(trace)
        assert result.num_completed == 30
        assert result.num_preemptions == 0
        assert result.num_swap_outs == 0
        assert result.recompute_tokens == 0
        assert result.preemption_stall_time_s == 0.0

    def test_admits_beyond_reserve_capacity(self, system, pp_plan, profile):
        # Capacity for ~2 full contexts: reserve holds 2 requests in flight,
        # paged admits on the (half-sized) prompt and runs more concurrently.
        trace = fixed_queries(8, prompt_tokens=256, decode_tokens=256)
        capacity = tight_capacity(profile, 2.2, 512)
        reserve = ServingEngine(system, pp_plan,
                                memory_capacity_bytes=capacity).run(trace)
        paged = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                              admission="paged").run(trace)
        assert paged.num_completed == reserve.num_completed == 8
        assert paged.num_preemptions > 0
        assert paged.makespan_s < reserve.makespan_s
        assert paged.peak_memory_bytes <= capacity
        assert reserve.peak_memory_bytes <= capacity

    def test_swap_counters_balance(self, system, pp_plan, profile):
        trace = fixed_queries(8, prompt_tokens=256, decode_tokens=256)
        capacity = tight_capacity(profile, 2.2, 512)
        result = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                               admission="paged",
                               preemption_restore="swap").run(trace)
        assert result.num_preemptions > 0
        # Every victim swapped out exactly once per eviction and back in
        # once per resume; the run drains, so the two balance.
        assert result.num_swap_outs == result.num_preemptions
        assert result.num_swap_ins == result.num_swap_outs
        assert result.swap_time_s > 0
        assert result.recompute_tokens == 0
        assert result.preemption_stall_time_s > 0

    def test_recompute_restores_via_prefill(self, system, pp_plan, profile):
        trace = fixed_queries(8, prompt_tokens=256, decode_tokens=256)
        capacity = tight_capacity(profile, 2.2, 512)
        swap = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                             admission="paged", preemption_restore="swap").run(trace)
        recompute = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                                  admission="paged",
                                  preemption_restore="recompute").run(trace)
        assert recompute.num_preemptions > 0
        assert recompute.recompute_tokens > 0
        assert recompute.num_swap_outs == 0
        assert recompute.swap_time_s == 0.0
        # Re-prefilling burns engine time that swapping avoids.
        assert recompute.prefill_time_s > swap.prefill_time_s
        assert recompute.makespan_s > swap.makespan_s
        # Stall counts eviction-to-decode-ready, so the rebuild span makes
        # recompute's stall exceed swap's (whose transfer is link-fast).
        assert recompute.preemption_stall_time_s > swap.preemption_stall_time_s

    def test_oversized_request_rejected_in_paged_mode(self, system, pp_plan, profile):
        capacity = tight_capacity(profile, 1.2, 512)
        engine = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                               admission="paged")
        big = Query(prompt_tokens=700, decode_tokens=700)   # needs ~2.7 contexts
        small = fixed_queries(4, prompt_tokens=128, decode_tokens=64)
        result = engine.run([big] + small)
        assert result.num_rejected == 1
        assert result.num_completed == 4

    def test_priority_policy_evicts_low_priority_first(self, system, pp_plan,
                                                       profile):
        # Small prompts so all eight admit before the pool runs dry, then
        # decode growth forces evictions among a fully mixed running batch.
        trace = [Query(64, 448, priority=2.0 if i % 2 == 0 else 0.5)
                 for i in range(8)]
        capacity = tight_capacity(profile, 2.2, 512)
        engine = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                               admission="paged", preemption_policy="priority")
        run = engine.simulate(trace)
        assert run.preemption_log
        expendable_ids = {r.request_id for r in run.requests
                          if r.query.priority < 1.0}
        first_victims = [rid for _, rid in run.preemption_log[:4]]
        assert set(first_victims) <= expendable_ids
        # Low-priority requests bear at least as many evictions overall.
        low = sum(1 for _, rid in run.preemption_log if rid in expendable_ids)
        high = len(run.preemption_log) - low
        assert low >= high

    def test_peak_memory_stays_within_capacity_at_low_occupancy(self, small_model,
                                                                profile):
        # The pool's effective capacity exceeds the raw budget at
        # kv_occupancy < 1; the *reported* memory applies the same discount
        # the reserve path does, so peak <= capacity remains invariant.
        config = CentConfig(num_devices=4, context_samples=2, kv_occupancy=0.8)
        system = CentSystem(config, small_model)
        plan = PipelineParallel(4, small_model)
        capacity = tight_capacity(profile, 2.2, 512)
        trace = fixed_queries(8, prompt_tokens=256, decode_tokens=256)
        result = ServingEngine(system, plan, memory_capacity_bytes=capacity,
                               admission="paged").run(trace)
        assert result.num_completed == 8
        assert result.peak_memory_bytes <= capacity

    def test_midprefill_recompute_victim_rebuilds_prefix(self, system, pp_plan,
                                                         profile):
        # Chunked-prefill mode lets decode growth evict a request whose
        # prompt is still streaming.  The pool is sized in whole blocks —
        # two small prompts (4 blocks each), the long prompt (24) and 3
        # spare — so the decoders' block growth exhausts it while the long
        # prompt (the LRU-stalest request) is still prefilling; recompute
        # must rebuild exactly its lost prefix and then finish the prompt.
        bpt = profile.kv_cache_bytes_per_token()
        capacity = profile.parameter_bytes + (8 + 24 + 3) * 16 * bpt
        trace = [Query(64, 448), Query(64, 448), Query(384, 64)]

        def build():
            return ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                                 admission="paged",
                                 preemption_restore="recompute",
                                 interleave_prefill=True, prefill_chunk_tokens=16)

        run = build().simulate(trace)
        long_prompt = run.requests[-1]
        assert all(r.state is RequestState.FINISHED for r in run.requests)
        assert long_prompt.preempted_count == 1
        # Evicted mid-prefill: the redone work is the streamed prefix, not
        # the whole prompt (and certainly not a decode-stage context).
        assert 0 < long_prompt.recompute_tokens < long_prompt.query.prompt_tokens
        # The rebuild span counts toward eviction-to-ready stall.
        assert long_prompt.stall_s > 0
        assert run.preemption_log[0][1] == long_prompt.request_id
        assert build().simulate(trace).preemption_log == run.preemption_log

    def test_estimated_capacity_is_admission_aware(self, system, pp_plan,
                                                   profile):
        """Satellite regression: paged admission books the *current*
        context, so a memory-tight paged replica sustains more concurrency
        than a full-context reservation — the capacity estimate (and
        through it the cluster placer's ``_capability_cache``) must see
        that instead of under-sizing paged replicas with reserve math."""
        trace = fixed_queries(16, prompt_tokens=64, decode_tokens=448)
        capacity = tight_capacity(profile, 2.2, 512)
        reserve = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity)
        paged = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                              admission="paged")
        assert paged.estimated_capacity_qps(trace) > \
            reserve.estimated_capacity_qps(trace)

    def test_invalid_knobs(self, system, pp_plan):
        with pytest.raises(ValueError):
            ServingEngine(system, pp_plan, admission="optimistic")
        with pytest.raises(ValueError):
            ServingEngine(system, pp_plan, kv_block_tokens=0)
        with pytest.raises(ValueError):
            ServingEngine(system, pp_plan, preemption_policy="random")
        with pytest.raises(ValueError):
            ServingEngine(system, pp_plan, preemption_restore="teleport")
        assert ADMISSION_MODES == ("reserve", "paged")
        assert set(RESTORE_MODES) == {"swap", "recompute"}


class TestPartialEviction:
    """Block-granular swap: evict cold prefix blocks, not whole requests."""

    @pytest.fixture(scope="class")
    def slow_system(self, small_model):
        # A slow fabric makes the KV transfer, not the engine iteration,
        # the dominant restore cost — the regime block-granular swap is for.
        from repro.cxl.link import CxlLinkParameters
        link = CxlLinkParameters(lane_bandwidth_gbps=0.05)
        config = CentConfig(num_devices=4, context_samples=2, link=link)
        return CentSystem(config, small_model)

    def transient_trace(self):
        # One big low-priority decoder; two short interactive requests
        # force a transient squeeze of a few blocks, then recede.
        return [Query(624, 160, priority=0.5),
                Query(64, 64, priority=2.0),
                Query(64, 64, priority=2.0)]

    def build(self, slow_system, pp_plan, profile, partial):
        bpt = profile.kv_cache_bytes_per_token()
        capacity = int(profile.parameter_bytes + 50 * 16 * bpt)
        return ServingEngine(slow_system, pp_plan, memory_capacity_bytes=capacity,
                             admission="paged", preemption_policy="priority",
                             preemption_restore="swap",
                             preemption_partial_blocks=partial)

    def test_partial_eviction_stages_fewer_bytes_and_finishes_sooner(
            self, slow_system, pp_plan, profile):
        trace = self.transient_trace()
        full = self.build(slow_system, pp_plan, profile, None).run(trace)
        part = self.build(slow_system, pp_plan, profile, 2).run(trace)
        assert full.num_completed == part.num_completed == 3
        assert full.num_partial_evictions == 0
        assert part.num_partial_evictions > 0
        assert part.num_preemptions == part.num_partial_evictions
        # A 2-block bite never pays a whole-context transfer, so the total
        # staged volume (and its CXL time) shrinks...
        assert part.swap_time_s < full.swap_time_s
        # ... and the transient squeeze no longer costs a big-request
        # round trip: the run drains strictly sooner.
        assert part.makespan_s < full.makespan_s

    def test_partially_resident_victim_readmits_and_finishes(
            self, slow_system, pp_plan, profile):
        run = self.build(slow_system, pp_plan, profile, 2).simulate(
            self.transient_trace())
        assert all(r.state is RequestState.FINISHED for r in run.requests)
        victims = [r for r in run.requests if r.partial_evictions]
        assert victims
        for victim in victims:
            # Every staged bite came back: the allocation is whole again
            # (and was released on completion).
            assert victim.swapped_kv_blocks == 0
            assert victim.num_swap_ins >= 1
            assert victim.stall_s > 0

    def test_pool_conserved_through_partial_eviction(self, slow_system,
                                                     pp_plan, profile):
        engine = self.build(slow_system, pp_plan, profile, 2)
        state = engine.begin(self.transient_trace())
        while not state.drained:
            engine.advance(state, until_s=state.clock + 0.01)
            pool = state.allocator.pool
            assert pool.free_blocks + pool.used_blocks == pool.num_blocks
            assert pool.swapped_blocks >= 0
        pool = state.allocator.pool
        # Drained: nothing resident, nothing staged in host memory.
        assert pool.free_blocks == pool.num_blocks
        assert pool.swapped_blocks == 0

    def test_partial_eviction_is_deterministic(self, slow_system, pp_plan,
                                               profile):
        trace = self.transient_trace()
        first = self.build(slow_system, pp_plan, profile, 2).simulate(trace)
        again = self.build(slow_system, pp_plan, profile, 2).simulate(trace)
        assert first.preemption_log
        assert again.preemption_log == first.preemption_log

    def test_partial_knob_rejected_with_recompute(self, system, pp_plan):
        with pytest.raises(ValueError, match="swap"):
            ServingEngine(system, pp_plan, admission="paged",
                          preemption_restore="recompute",
                          preemption_partial_blocks=4)
        with pytest.raises(ValueError):
            ServingEngine(system, pp_plan, admission="paged",
                          preemption_partial_blocks=-1)


class TestPreemptionDeterminism:
    @pytest.mark.parametrize("restore", RESTORE_MODES)
    def test_same_trace_same_victims_and_result(self, system, pp_plan, profile,
                                                restore):
        queries = sharegpt_like_queries(30, seed=13)
        trace = with_arrivals(queries, poisson_arrivals(30, 100.0, seed=13))
        capacity = tight_capacity(profile, 2.2,
                                  max(q.total_context for q in queries))

        def build():
            return ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                                 admission="paged", preemption_restore=restore)

        engine = build()
        first = engine.simulate(trace)
        again = engine.simulate(trace)        # warm engine, same trace
        fresh = build().simulate(trace)       # fresh engine instance
        assert first.preemption_log           # the scenario does preempt
        assert again.preemption_log == first.preemption_log
        assert fresh.preemption_log == first.preemption_log
        results = [ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                                 admission="paged", preemption_restore=restore)
                   .run(trace, sla_latency_s=2.0) for _ in range(2)]
        assert results[0] == results[1]

    def test_different_seeds_diverge(self, system, pp_plan, profile):
        queries = sharegpt_like_queries(30, seed=13)
        capacity = tight_capacity(profile, 2.2,
                                  max(q.total_context for q in queries))
        engine = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                               admission="paged")
        one = engine.simulate(with_arrivals(
            queries, poisson_arrivals(30, 100.0, seed=13)))
        other = engine.simulate(with_arrivals(
            queries, poisson_arrivals(30, 100.0, seed=14)))
        assert one.preemption_log != other.preemption_log


class TestReserveRegression:
    def test_default_admission_is_reserve_with_zero_counters(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        assert engine.admission == "reserve"
        trace = with_arrivals(sharegpt_like_queries(20, seed=5),
                              poisson_arrivals(20, 50.0, seed=5))
        result = engine.run(trace, sla_latency_s=2.0)
        explicit = ServingEngine(system, pp_plan, admission="reserve") \
            .run(trace, sla_latency_s=2.0)
        assert result == explicit
        assert result.num_preemptions == 0
        assert result.num_swap_outs == result.num_swap_ins == 0
        assert result.swap_time_s == 0.0
        assert result.recompute_tokens == 0
        assert result.preemption_stall_time_s == 0.0

    def test_reserve_ignores_paged_knobs(self, system, pp_plan, profile):
        # Paged-only knobs must not perturb the legacy path's numbers.
        trace = fixed_queries(6, prompt_tokens=128, decode_tokens=64)
        capacity = tight_capacity(profile, 3.0, 192)
        base = ServingEngine(system, pp_plan,
                             memory_capacity_bytes=capacity).run(trace)
        tweaked = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                                kv_block_tokens=64,
                                preemption_policy="sla_deadline",
                                preemption_restore="recompute").run(trace)
        assert base == tweaked


class TestQueueDepthTimeline:
    def test_recorded_in_reserve_mode(self, system, pp_plan):
        trace = with_arrivals(sharegpt_like_queries(20, seed=5),
                              poisson_arrivals(20, 50.0, seed=5))
        result = ServingEngine(system, pp_plan).run(trace)
        assert result.queue_depth_timeline
        times = [t for t, _, _ in result.queue_depth_timeline]
        assert times == sorted(times)
        assert all(queued >= 0 and running >= 0
                   for _, queued, running in result.queue_depth_timeline)
        assert result.peak_queue_depth >= 0
        assert result.mean_queue_depth >= 0.0

    def test_backlog_visible_under_pressure(self, system, pp_plan):
        # One slot, four simultaneous arrivals: the router-facing backlog
        # signal must see the three queued requests.
        engine = ServingEngine(system, pp_plan, max_batch_size=1)
        result = engine.run(fixed_queries(4, prompt_tokens=128, decode_tokens=64))
        assert result.peak_queue_depth == 3
        assert result.mean_queue_depth > 0.0

    def test_counts_preempted_requests_as_queued(self, system, pp_plan, profile):
        trace = fixed_queries(8, prompt_tokens=256, decode_tokens=256)
        capacity = tight_capacity(profile, 2.2, 512)
        result = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity,
                               admission="paged").run(trace)
        assert result.num_preemptions > 0
        # After the initial admissions drain the waiting queue, evicted
        # requests keep the backlog signal non-zero.
        assert result.peak_queue_depth > 0

    def test_merge_sums_concurrent_replica_backlogs(self):
        from repro.serving import merge_queue_depth_timelines

        a = [(0.0, 5, 1), (2.0, 3, 1)]
        b = [(1.0, 5, 2), (3.0, 0, 2)]
        merged = merge_queue_depth_timelines([a, b])
        # Two replicas each queueing 5 is a pool backlog of 10, not 5.
        assert merged == [(0.0, 5, 1), (1.0, 10, 3), (2.0, 8, 3), (3.0, 3, 3)]
        # A single replica passes through untouched (engine parity).
        assert merge_queue_depth_timelines([a]) == a
        assert merge_queue_depth_timelines([]) == []
        assert merge_queue_depth_timelines([[], b]) == b

    def test_mean_queue_depth_math(self):
        result = dataclasses.replace(
            ServingResult(model_name="m", plan_name="p", num_requests=1,
                          num_completed=1, num_rejected=0, makespan_s=4.0),
            queue_depth_timeline=((0.0, 2, 1), (2.0, 0, 1)),
        )
        # Two queued for the first 2 s, zero for the last 2 s.
        assert result.mean_queue_depth == pytest.approx(1.0)
        assert result.peak_queue_depth == 2
        empty = ServingResult(model_name="m", plan_name="p", num_requests=0,
                              num_completed=0, num_rejected=0, makespan_s=0.0)
        assert empty.mean_queue_depth == 0.0
        assert empty.peak_queue_depth == 0


class TestOverloadAcceptance:
    def test_paged_beats_reserve_goodput_under_overload(self, small_model):
        """Acceptance: on an overloaded memory-tight deployment where the
        reserve path queues heavily, paged admission with preemption wins
        SLA goodput strictly."""
        study = overload_preemption_study(
            model=small_model, num_devices=4, num_queries=40,
            context_samples=2, context_step=256,
            kv_capacity_queries=2.2, overload=3.0)
        by_mode = {row["mode"]: row for row in study["rows"]}
        reserve = by_mode["reserve"]
        # The reserve path queues under this load (no silent easy regime).
        assert reserve["peak_queue_depth"] > 0
        assert reserve["sla_violation_fraction"] > 0
        assert reserve["num_preemptions"] == 0
        paged = [row for mode, row in by_mode.items() if mode != "reserve"]
        assert len(paged) == len(RESTORE_MODES)
        for row in paged:
            assert row["num_preemptions"] > 0
            assert row["goodput_tokens_per_s"] > reserve["goodput_tokens_per_s"]
        assert study["best_mode"] != "reserve"


class TestClusterPropagation:
    def test_preemption_counters_reach_cluster_result(self, small_model):
        from repro.cluster.tenant import TenantSpec

        config = CentConfig(num_devices=4, context_samples=2)
        system = CentSystem(config, small_model)
        trace = with_arrivals(sharegpt_like_queries(16, seed=2),
                              poisson_arrivals(16, 30.0, seed=2))
        result = system.serve_cluster(
            [TenantSpec("only", trace=trace, sla_latency_s=5.0)],
            admission="paged",
        )
        tenant = result.tenant_results["only"]
        assert tenant.num_completed == 16
        # The replica ran paged; counters and the backlog timeline propagate.
        assert tenant.queue_depth_timeline
        assert tenant.num_preemptions >= 0
        assert result.total_preemptions == tenant.num_preemptions
        assert result.total_swap_time_s == tenant.swap_time_s
        assert result.total_preemption_stall_s == tenant.preemption_stall_time_s

    def test_replica_sla_is_strictest_member_slo(self, small_model):
        from repro.cluster.engine import ClusterEngine
        from repro.cluster.placement import ReplicaSpec
        from repro.cluster.tenant import TenantSpec

        trace = fixed_queries(4, prompt_tokens=64, decode_tokens=32)
        tight = TenantSpec("tight", trace=trace, sla_latency_s=2.0)
        loose = TenantSpec("loose", trace=trace, sla_latency_s=30.0)
        engine = ClusterEngine(CentConfig(num_devices=4, context_samples=2),
                               [tight, loose], default_model=small_model)
        shared = ReplicaSpec(replica_id=0, tenant_names=("tight", "loose"),
                             model=small_model, num_devices=2, first_device=0)
        # The sla_deadline preemption policy judges slack on a time-shared
        # replica against its strictest member tenant's SLO.
        assert engine._replica_sla_s(shared) == 2.0
        solo = ReplicaSpec(replica_id=1, tenant_names=("loose",),
                           model=small_model, num_devices=2, first_device=2)
        assert engine._replica_sla_s(solo) == 30.0
