"""Shared-prefix KV reuse: block chains, copy-on-write, engine integration.

The kvstore grows hash-identified prefix chains (refcounted shared blocks,
COW on divergence, promote-on-prefill registration) and the serving engine
admits cache hits with only their suffix blocks while skipping the shared
prefill.  These tests pin the chain lifecycle at the allocator level, the
engine's hit accounting and eviction ranking, and the two bit-exactness
contracts the feature must not break: ``prefix_sharing=False`` reproduces
the pre-sharing engine exactly, and with sharing on the scalar, vectorized,
traced and untraced paths all agree to the last float.
"""

import pytest

from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.kvstore import BlockPool, KvAllocator
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import RequestState, ServingEngine
from repro.telemetry import TraceRecorder
from repro.workloads import (
    Query,
    poisson_arrivals,
    prefix_reuse_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                       num_heads=16, num_kv_heads=4, d_ff=2816,
                       vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2),
                      small_model)


def prefix_trace(count=200, reuse=0.8, rate=2.0, seed=7, tenants=4):
    queries = prefix_reuse_queries(count, num_tenants=tenants,
                                   reuse_fraction=reuse, seed=seed,
                                   max_context=2048)
    return with_arrivals(queries, poisson_arrivals(count, rate, seed=3))


def strip_prefixes(trace):
    """The same workload with every prefix tag removed (pre-sharing shape)."""
    return [Query(q.prompt_tokens, q.decode_tokens,
                  arrival_time_s=q.arrival_time_s) for q in trace]


def tight_capacity(model, queries=30, context=512):
    profile = ModelMemoryProfile(model)
    return int(profile.parameter_bytes
               + queries * profile.kv_cache_bytes_per_token() * context)


def run_fingerprint(engine, trace):
    """Every observable float/int of a run, for exact comparison."""
    state = engine.begin(trace)
    run = engine.advance(state)
    return (
        run.makespan_s, run.prefill_time_s, run.decode_time_s,
        run.decode_step_tokens, run.peak_memory_bytes,
        tuple(run.queue_depth_timeline), tuple(run.preemption_log),
        tuple((r.state.name, r.finish_time_s, r.first_token_time_s,
               r.last_token_time_s, r.admitted_time_s, r.stall_s,
               r.preempted_count, r.num_swap_outs, r.num_swap_ins,
               r.swap_time_s, r.recompute_tokens,
               r.prefix_lookups, r.prefix_hits, r.prefix_hit_tokens,
               r.cow_blocks, tuple(r.tbt_samples_s)) for r in run.requests),
    )


# ------------------------------------------------------------------ allocator


class TestPrefixChains:
    """Chain lifecycle on the raw pool/allocator, block-exact."""

    def make(self, num_blocks=64, block_tokens=16):
        pool = BlockPool(budget_bytes=num_blocks * block_tokens * 10,
                         bytes_per_token=10, block_tokens=block_tokens)
        return pool, KvAllocator(pool)

    def test_promote_transfers_full_blocks_plus_tail_snapshot(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)          # 7 blocks at B=16
        used = pool.used_blocks
        assert alloc.register_prefix(("t", 40), 40, "a")
        chain = pool.prefix_get(("t", 40))
        # 40 tokens = 2 full blocks transferred + 1 tail snapshot allocated.
        assert chain.blocks == 3 and chain.tokens == 40 and chain.refcount == 1
        assert pool.used_blocks == used + 1      # only the tail was new
        assert alloc.holds_resident_blocks("a") == 5
        assert alloc.holds_blocks("a") == pool.blocks_for(100)

    def test_attach_books_suffix_plus_cow_only(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        assert alloc.register_prefix(("t", 40), 40, "a")
        free_before = pool.free_blocks
        assert alloc.allocate("b", 100, prefix=("t", 40))
        # 7 logical blocks, 2 shared, 5 private (incl. the COW tail dup).
        assert alloc.shared_blocks("b") == 2
        assert alloc.shared_tokens("b") == 32
        assert alloc.holds_resident_blocks("b") == 5
        assert alloc.holds_blocks("b") == pool.blocks_for(100)
        assert free_before - pool.free_blocks == 5
        assert pool.prefix_get(("t", 40)).refcount == 2

    def test_block_aligned_prefix_has_no_cow_tail(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        used = pool.used_blocks
        assert alloc.register_prefix(("t", 32), 32, "a")
        assert pool.used_blocks == used          # no tail snapshot needed
        assert alloc.allocate("b", 100, prefix=("t", 32))
        assert alloc.holds_resident_blocks("b") == pool.blocks_for(100) - 2

    def test_refcounted_chain_resists_eviction(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        assert alloc.register_prefix(("t", 40), 40, "a")
        assert alloc.evictable_prefixes() == []
        with pytest.raises(ValueError):
            pool.prefix_evict(("t", 40))
        alloc.release("a")                       # last reader detaches
        assert [c.key for c in alloc.evictable_prefixes()] == [("t", 40)]
        freed = alloc.evict_prefix(("t", 40))
        assert freed == 3
        assert pool.free_blocks == pool.num_blocks

    def test_park_pins_chain_and_resume_reattaches(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        assert alloc.register_prefix(("t", 40), 40, "a")
        alloc.release("a", keep_prefix=True)     # the preemption path
        chain = pool.prefix_get(("t", 40))
        assert chain.refcount == 1               # parked victim still pins it
        assert alloc.evictable_prefixes() == []
        assert alloc.allocate("a", 100)          # resume: pinned re-attach
        assert alloc.shared_key("a") == ("t", 40)
        assert alloc.holds_blocks("a") == pool.blocks_for(100)
        alloc.release("a")
        assert chain.refcount == 0

    def test_shortage_reclaims_coldest_chain_first(self):
        pool, alloc = self.make(num_blocks=12)
        assert alloc.allocate("a", 64)           # 4 blocks
        assert alloc.register_prefix(("t", 32), 32, "a")
        assert alloc.allocate("b", 64)
        assert alloc.register_prefix(("u", 32), 32, "b", now_s=5.0)
        alloc.release("a")
        alloc.release("b", now_s=6.0)            # chains cached, 4 used
        # 8 blocks free; asking for 10 reclaims the coldest chain (t) and
        # stops there — the hotter chain (u) survives the shortfall.
        assert alloc.allocate("c", 160)
        assert ("t", 32) not in pool.prefix_chains
        assert ("u", 32) in pool.prefix_chains
        alloc.release("c")
        assert pool.free_blocks == pool.num_blocks - 2

    def test_register_rejects_duplicates_and_staged_prefixes(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        assert alloc.register_prefix(("t", 40), 40, "a")
        assert not alloc.register_prefix(("t", 40), 40, "a")   # attached
        assert alloc.allocate("b", 100)
        assert not alloc.register_prefix(("t", 40), 40, "b")   # key taken

    def test_attach_demands_at_least_the_chain_tokens(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        assert alloc.register_prefix(("t", 40), 40, "a")
        with pytest.raises(ValueError, match="fewer than"):
            alloc.allocate("b", 30, prefix=("t", 40))

    def test_no_prefix_traffic_leaves_pool_identical(self):
        pool, alloc = self.make()
        assert alloc.allocate("a", 100)
        assert pool.prefix_chains == {}
        assert pool.prefix_blocks == 0
        assert alloc.shared_key("a") is None
        assert alloc.release("a") == 100


# ------------------------------------------------------------------ workload


class TestPrefixWorkload:
    def test_prefix_tags_validate(self):
        with pytest.raises(ValueError):
            Query(100, 10, prefix_id="t")            # id without tokens
        with pytest.raises(ValueError):
            Query(100, 10, prefix_tokens=50)         # tokens without id
        with pytest.raises(ValueError):
            Query(100, 10, prefix_id="t", prefix_tokens=200)  # > prompt
        query = Query(100, 10, prefix_id="t", prefix_tokens=60)
        assert query.prefix_key == ("t", 60)
        assert Query(100, 10).prefix_key is None

    def test_reuse_fraction_controls_tagging(self):
        tagged = prefix_reuse_queries(100, reuse_fraction=0.9, seed=3)
        untagged = prefix_reuse_queries(100, reuse_fraction=0.0, seed=3)
        assert sum(q.prefix_key is not None for q in tagged) > 60
        assert all(q.prefix_key is None for q in untagged)
        for query in tagged:
            if query.prefix_key is not None:
                assert 0 < query.prefix_tokens <= query.prompt_tokens

    def test_deterministic_by_seed(self):
        a = prefix_reuse_queries(50, seed=11)
        b = prefix_reuse_queries(50, seed=11)
        c = prefix_reuse_queries(50, seed=12)
        assert [(q.prompt_tokens, q.prefix_key) for q in a] \
            == [(q.prompt_tokens, q.prefix_key) for q in b]
        assert [(q.prompt_tokens, q.prefix_key) for q in a] \
            != [(q.prompt_tokens, q.prefix_key) for q in c]

    def test_tenants_share_prefix_lengths(self):
        queries = prefix_reuse_queries(200, num_tenants=3, reuse_fraction=1.0,
                                       seed=5)
        keys = {q.prefix_key for q in queries if q.prefix_key}
        # One chain identity per tenant: the reuse the cache feeds on.
        assert 1 <= len(keys) <= 3


# ------------------------------------------------------------------ engine


class TestEnginePrefixSharing:
    def test_hits_skip_prefill_and_are_counted(self, system, small_model):
        engine = ServingEngine(
            system, admission="paged",
            memory_capacity_bytes=tight_capacity(small_model))
        result = engine.run(prefix_trace())
        assert result.num_completed == 200
        assert result.num_prefix_lookups > 0
        assert 0 < result.num_prefix_hits <= result.num_prefix_lookups
        assert result.prefix_hit_tokens > 0
        assert result.num_cow_blocks > 0
        assert result.prefix_hit_rate == \
            result.num_prefix_hits / result.num_prefix_lookups
        metrics = result.metrics.as_dict()
        assert metrics["kv.prefix_hits"] == result.num_prefix_hits
        assert metrics["kv.prefix_hit_tokens"] == result.prefix_hit_tokens
        assert metrics["kv.cow_blocks"] == result.num_cow_blocks
        assert metrics["serving.prefix_hit_rate"] == \
            pytest.approx(result.prefix_hit_rate)

    def test_sharing_eases_memory_pressure(self, system, small_model):
        trace = prefix_trace(count=300, reuse=0.8, rate=12.0, seed=11,
                             tenants=6)
        capacity = tight_capacity(small_model, queries=4)
        results = {}
        for sharing in (True, False):
            engine = ServingEngine(system, admission="paged",
                                   memory_capacity_bytes=capacity,
                                   prefix_sharing=sharing)
            results[sharing] = engine.run(trace)
        shared, fresh = results[True], results[False]
        assert shared.num_completed == fresh.num_completed == 300
        # Shared blocks shrink the working set: fewer evictions, less stall.
        assert shared.num_preemptions <= fresh.num_preemptions
        assert shared.preemption_stall_time_s < fresh.preemption_stall_time_s
        assert shared.num_prefix_hits > 0 and fresh.num_prefix_hits == 0

    def test_sharing_off_reproduces_prefix_stripped_run(self, system,
                                                        small_model):
        """The bit-exact regression: ``prefix_sharing=False`` on a tagged
        trace must replay the pre-sharing engine — which is exactly what
        any engine does on the same trace with the tags stripped."""
        trace = prefix_trace()
        capacity = tight_capacity(small_model)
        off = ServingEngine(system, admission="paged",
                            memory_capacity_bytes=capacity,
                            prefix_sharing=False)
        baseline = ServingEngine(system, admission="paged",
                                 memory_capacity_bytes=capacity)
        assert run_fingerprint(off, trace) \
            == run_fingerprint(baseline, strip_prefixes(trace))

    def test_untagged_trace_is_sharing_noop(self, system, small_model):
        trace = strip_prefixes(prefix_trace(count=60))
        capacity = tight_capacity(small_model)
        on = ServingEngine(system, admission="paged",
                           memory_capacity_bytes=capacity)
        off = ServingEngine(system, admission="paged",
                            memory_capacity_bytes=capacity,
                            prefix_sharing=False)
        fp_on = run_fingerprint(on, trace)
        assert fp_on == run_fingerprint(off, trace)
        result = on.run(trace)
        assert result.num_prefix_lookups == 0

    @pytest.mark.parametrize("queries", [30, 4])
    def test_scalar_vectorized_bitexact_with_sharing(self, system,
                                                     small_model, queries):
        trace = prefix_trace(count=150, rate=8.0 if queries < 10 else 2.0)
        capacity = tight_capacity(small_model, queries=queries)
        fingerprints = []
        for vectorize in (True, False):
            engine = ServingEngine(system, admission="paged",
                                   memory_capacity_bytes=capacity,
                                   vectorize=vectorize)
            fingerprints.append(run_fingerprint(engine, trace))
        assert fingerprints[0] == fingerprints[1]

    def test_traced_run_is_bitexact_and_carries_prefix_events(
            self, system, small_model):
        trace = prefix_trace()
        capacity = tight_capacity(small_model)
        untraced = ServingEngine(system, admission="paged",
                                 memory_capacity_bytes=capacity)
        recorder = TraceRecorder()
        traced = ServingEngine(system, admission="paged",
                               memory_capacity_bytes=capacity)
        plain = untraced.run(trace)
        observed = traced.run(trace, telemetry=recorder)
        assert plain.makespan_s == observed.makespan_s
        assert plain.num_prefix_hits == observed.num_prefix_hits
        names = {event.name for _, event in recorder.iter_events()}
        assert {"kv.prefix_hit", "kv.cow", "kv.prefix_register"} <= names

    def test_first_token_still_fires_on_full_prefix_hit(self, system):
        # A query whose whole prompt is the shared prefix must still price
        # at least one prefill token, or TTFT would never be stamped.
        queries = [
            Query(64, 8, prefix_id="t", prefix_tokens=64, arrival_time_s=0.0),
            Query(64, 8, prefix_id="t", prefix_tokens=64, arrival_time_s=0.1),
        ]
        engine = ServingEngine(system, admission="paged")
        run = engine.simulate(queries)
        for request in run.requests:
            assert request.state is RequestState.FINISHED
            assert request.first_token_time_s is not None


# ------------------------------------------------------------------ migration


class TestMigrationWithSharing:
    def test_migrated_request_keeps_prefix_counters_and_finishes(
            self, system, small_model):
        capacity = tight_capacity(small_model, queries=8)
        source = ServingEngine(system, admission="paged",
                               memory_capacity_bytes=capacity)
        target = ServingEngine(system, admission="paged",
                               memory_capacity_bytes=capacity)
        queries = prefix_reuse_queries(40, num_tenants=4, reuse_fraction=0.8,
                                       mean_decode_tokens=1500.0, seed=7,
                                       max_context=2048)
        trace = with_arrivals(queries, poisson_arrivals(40, 300.0, seed=3))
        state_a = source.begin(trace)
        source.advance(state_a, until_s=0.3)
        movable = [r for r in state_a.unfinished
                   if r.context_length > 0 and r.restore_remaining == 0]
        assert movable, "the cut must strand in-flight work"
        hit_movers = [r for r in movable if r.prefix_hits]

        state_b = target.begin([], planning_trace=trace)
        state_b.clock = 0.3
        landed = []
        for request in movable:
            counters = (request.prefix_lookups, request.prefix_hits,
                        request.prefix_hit_tokens, request.cow_blocks)
            moved = source.migrate_out(state_a, request, now_s=0.3)
            migrated = target.migrate_in(state_b, moved, now_s=0.3)
            assert (migrated.prefix_lookups, migrated.prefix_hits,
                    migrated.prefix_hit_tokens,
                    migrated.cow_blocks) == counters
            landed.append(migrated)
        for request in state_a.unfinished:
            target.extend(state_b, [request.query])
        source.advance(state_a)
        target.advance(state_b)
        assert state_a.drained and state_b.drained
        for migrated in landed:
            assert migrated.state is RequestState.FINISHED
        if hit_movers:
            # Hit history crossed the wire with the request.
            assert any(r.prefix_hits for r in landed)
        # Departures released their chain references on the source: every
        # remaining chain is unpinned once the source drains.
        for chain in state_a.allocator.pool.prefix_chains.values():
            assert chain.refcount == 0


# ------------------------------------------------------------------ study


class TestPrefixReuseStudy:
    def test_sharing_wins_on_high_reuse_overload(self, small_model):
        from repro.evaluation import prefix_reuse_study
        study = prefix_reuse_study(model=small_model, num_devices=2,
                                   num_queries=48, reuse_fractions=(0.0, 0.9),
                                   context_samples=2, mean_prefix_tokens=384.0)
        by_key = {(row["reuse_fraction"], row["mode"]): row
                  for row in study["rows"]}
        shared = by_key[(0.9, "prefix-shared")]
        fresh = by_key[(0.9, "no-sharing")]
        assert shared["prefix_hit_rate"] > 0.5
        assert shared["goodput_tokens_per_s"] >= fresh["goodput_tokens_per_s"]
        assert study["goodput_gain_by_reuse"][0.9] >= 1.0
        # Zero reuse: sharing is inert and the row pair is identical.
        assert by_key[(0.0, "prefix-shared")]["goodput_tokens_per_s"] \
            == by_key[(0.0, "no-sharing")]["goodput_tokens_per_s"]
        assert by_key[(0.0, "prefix-shared")]["prefix_hit_rate"] == 0.0
