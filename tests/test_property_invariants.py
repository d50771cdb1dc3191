"""Property-based tests of core invariants (hypothesis)."""

import functools
import operator
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler.gemv import compile_gemv
from repro.core.results import FOLD_CHUNK, LatencyStats
from repro.cxl.link import CXL_3_0_LINK
from repro.cxl.primitives import broadcast, gather, send_receive
from repro.dram.channel import DRAMChannel
from repro.dram.commands import CommandType, DRAMCommand
from repro.isa.instructions import MacAllBank, WriteGlobalBuffer
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.pim.channel import PIMChannel
from repro.pnm.shared_buffer import SharedBuffer
from repro.workloads.queries import Query


# --------------------------------------------------------------------------- model strategies

def model_configs():
    return st.builds(
        ModelConfig,
        name=st.just("prop-model"),
        num_layers=st.integers(min_value=1, max_value=16),
        d_model=st.sampled_from([64, 128, 256, 512]),
        num_heads=st.sampled_from([4, 8]),
        num_kv_heads=st.sampled_from([2, 4]),
        d_ff=st.sampled_from([128, 384, 1024]),
        vocab_size=st.integers(min_value=256, max_value=4096),
        max_context=st.sampled_from([128, 512, 2048]),
    )


@given(model_configs())
def test_model_parameter_counts_consistent(model):
    # Per-layer parameters times layers plus embeddings equals the total.
    assert model.total_params == (model.num_layers * model.params_per_layer
                                  + model.embedding_params)
    assert model.kv_dim <= model.d_model
    assert model.head_dim * model.num_heads == model.d_model


@given(model_configs(), st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=2048))
def test_memory_profile_monotonic(model, batch, context):
    profile = ModelMemoryProfile(model)
    total = profile.total_bytes(batch, context)
    assert total >= profile.parameter_bytes
    assert profile.total_bytes(batch + 1, context) > total
    assert profile.total_bytes(batch, context + 1) > total


@given(st.integers(min_value=1, max_value=10**9))
def test_memory_budget_max_batch_fits(budget_kv_bytes):
    model = ModelConfig("prop", num_layers=2, d_model=64, num_heads=4, num_kv_heads=2,
                        d_ff=128, vocab_size=256, max_context=128)
    profile = ModelMemoryProfile(model)
    budget = profile.parameter_bytes + budget_kv_bytes
    batch = profile.max_batch_size(budget, context_length=128)
    if batch > 0:
        assert profile.total_bytes(batch, 128) <= budget
    assert profile.total_bytes(batch + 1, 128) > budget


# --------------------------------------------------------------------------- timing invariants

@given(st.lists(st.sampled_from([CommandType.ACT_ALL, CommandType.MAC_ALL,
                                 CommandType.PRE_ALL]), min_size=1, max_size=40))
@settings(max_examples=50)
def test_dram_issue_times_are_monotonic(kinds):
    channel = DRAMChannel(apply_refresh_derating=False)
    previous = -1.0
    row_open = False
    for kind in kinds:
        if kind is CommandType.MAC_ALL and not row_open:
            continue
        issue = channel.issue(DRAMCommand(kind, row=0))
        assert issue >= previous
        previous = issue
        row_open = kind is CommandType.ACT_ALL or (row_open and kind is CommandType.MAC_ALL)


@given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=8))
@settings(max_examples=30)
def test_pim_latency_scales_with_op_size(op_size, rows):
    channel = PIMChannel()
    for row in range(rows):
        channel.execute(MacAllBank(ch_mask=1, op_size=op_size, row=row))
    total = channel.busy_until_ns
    # Lower bound: one MAC per tCCD_S; upper bound: generous per-row overhead.
    assert total >= op_size * rows * channel.timing.t_ccd_s
    assert total <= rows * (op_size * channel.timing.t_ccd_s + 200.0)


@given(st.integers(min_value=1, max_value=64))
def test_wr_gb_latency_linear(op_size):
    channel = PIMChannel()
    latency = channel.execute(WriteGlobalBuffer(ch_mask=1, op_size=op_size, column=0, rs=0))
    assert latency == op_size * channel.timing.t_ccd_s


# --------------------------------------------------------------------------- communication invariants

@given(st.integers(min_value=1, max_value=10**7))
def test_send_latency_has_floor_and_grows(num_bytes):
    result = send_receive(num_bytes)
    assert result.latency_ns >= CXL_3_0_LINK.base_latency_ns
    assert send_receive(num_bytes * 2).latency_ns >= result.latency_ns


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=63))
def test_broadcast_never_cheaper_than_send(num_bytes, fan_out):
    assert broadcast(num_bytes, fan_out).latency_ns >= send_receive(num_bytes).latency_ns


@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=63))
def test_gather_volume_scales_with_senders(num_bytes, senders):
    result = gather(num_bytes, senders)
    assert result.bytes_moved == num_bytes * senders
    assert result.latency_ns >= CXL_3_0_LINK.base_latency_ns


# --------------------------------------------------------------------------- storage invariants

@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
                min_size=1, max_size=200),
       st.integers(min_value=0, max_value=100))
def test_shared_buffer_roundtrip(values, start_slot):
    buffer = SharedBuffer()
    vector = np.array(values, dtype=np.float32)
    buffer.write_vector(start_slot, vector)
    read_back = buffer.read_vector(start_slot, len(vector))
    # Storage is BF16, so round-trip error is bounded by BF16 precision.
    assert np.all(np.abs(read_back - vector) <= np.maximum(np.abs(vector) * 2**-7, 1e-3))


# --------------------------------------------------------------------------- compiler invariants

@given(st.integers(min_value=16, max_value=1024), st.integers(min_value=16, max_value=512),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_gemv_flops_independent_of_channel_count(out_dim, in_dim, channels):
    op = compile_gemv("prop", out_dim, in_dim, channels)
    assert op.flops == 2 * out_dim * in_dim
    # The per-channel MAC work covers at least the channel's share of elements.
    covered = op.mac_micro_ops * 256
    assert covered * channels >= out_dim * in_dim


# --------------------------------------------------------------------------- kv block conservation

@st.composite
def allocator_op_sequences(draw):
    """Random lifecycles over a small block pool: allocations, growth,
    releases and migrations."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(
            ["allocate", "grow", "release", "migrate"]))
        owner = draw(st.integers(min_value=0, max_value=4))
        tokens = draw(st.integers(min_value=0, max_value=200))
        ops.append((kind, owner, tokens))
    return ops


@given(st.integers(min_value=1, max_value=12), allocator_op_sequences())
@settings(max_examples=200)
def test_kv_blocks_conserved_across_preemption_and_swap(num_blocks, ops):
    """Block conservation at every step: every block of each pool is either
    free or held (``free + used == pool size``), the pool's used blocks are
    exactly the owners' blocks, and each owner holds ``blocks_for(tokens)``
    — across allocation, growth, release (a whole-request swap or
    recompute eviction frees everything), and migration of an owner
    between two pools (the live-migration shape: release on the source,
    fresh allocation on the destination)."""
    from repro.kvstore import BlockPool, KvAllocator

    pools = [BlockPool(budget_bytes=num_blocks * 16 * 10, bytes_per_token=10,
                       block_tokens=16) for _ in range(2)]
    allocators = [KvAllocator(pool) for pool in pools]
    held: dict = {}     # owner -> (allocator index, tokens covered)
    for kind, owner, tokens in ops:
        if kind == "allocate" and owner not in held:
            if allocators[0].allocate(owner, tokens):
                held[owner] = (0, tokens)
        elif kind == "grow" and owner in held:
            side, current = held[owner]
            target = max(current, tokens)
            if allocators[side].grow(owner, target):
                held[owner] = (side, target)
        elif kind == "release" and owner in held:
            side, current = held.pop(owner)
            assert allocators[side].release(owner) == current
        elif kind == "migrate" and owner in held:
            source, current = held[owner]
            destination = 1 - source
            # All-or-nothing: a destination too full to hold the whole
            # allocation leaves both pools untouched (the request stays).
            if allocators[destination].allocate(owner, current):
                assert allocators[source].release(owner) == current
                held[owner] = (destination, current)

        # ---- the conservation laws, after every single operation ----
        for side, (pool, allocator) in enumerate(zip(pools, allocators,
                                                     strict=True)):
            owners = [o for o, (s, _) in held.items() if s == side]
            assert pool.free_blocks + pool.used_blocks == pool.num_blocks
            assert pool.used_blocks == sum(
                allocator.holds_resident_blocks(o) for o in owners)
            for o in owners:
                resident = allocator.holds_resident_blocks(o)
                assert resident >= 0
                assert resident == pool.blocks_for(held[o][1]) \
                    == allocator.holds_blocks(o)

    for owner, (side, _) in list(held.items()):
        allocators[side].release(owner)
    for pool in pools:
        assert pool.free_blocks == pool.num_blocks


# ------------------------------------------------------- prefix chain conservation

@st.composite
def prefix_op_sequences(draw):
    """Random lifecycles over shared prefix chains: fresh allocations,
    cache-hit attaches, promote-on-prefill registrations, growth,
    preemption parking (release keeping the chain pin), pinned resumption,
    chain eviction and cross-pool migration."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(
            ["allocate", "attach", "grow", "park",
             "resume", "release", "register", "chain_evict", "migrate"]))
        owner = draw(st.integers(min_value=0, max_value=4))
        key = draw(st.integers(min_value=0, max_value=2))
        tokens = draw(st.integers(min_value=1, max_value=200))
        ops.append((kind, owner, key, tokens))
    return ops


@given(st.integers(min_value=2, max_value=16), prefix_op_sequences())
@settings(max_examples=200)
def test_prefix_chain_blocks_and_refcounts_conserved(num_blocks, ops):
    """Conservation with shared prefix chains, after every operation: each
    pool's used blocks are exactly the owners' private resident blocks plus
    the chains' shared blocks (nothing double-counted through a COW tail or
    a promote), every chain's refcount equals its attached readers —
    *including* parked preemption victims pinning their prefix — the pool
    counts its refcount-zero chains exactly, each owner still logically
    covers ``blocks_for(tokens)``, and an allocation ``would_refuse``
    predicts never succeeds."""
    from repro.kvstore import BlockPool, KvAllocator

    pools = [BlockPool(budget_bytes=num_blocks * 16 * 10, bytes_per_token=10,
                       block_tokens=16) for _ in range(2)]
    allocators = [KvAllocator(pool) for pool in pools]
    held: dict = {}     # owner -> (allocator index, tokens covered)
    parked: dict = {}   # owner -> allocator index (released keep_prefix)
    clock = 0.0
    for kind, owner, key, tokens in ops:
        clock += 1.0
        side = key % 2
        if kind == "allocate" and owner not in held and owner not in parked:
            refused = allocators[side].would_refuse(owner, tokens)
            if allocators[side].allocate(owner, tokens, now_s=clock):
                assert not refused
                held[owner] = (side, tokens)
        elif kind == "attach" and owner not in held and owner not in parked:
            chain = pools[side].prefix_get(("p", key))
            if chain is not None:
                target = max(tokens, chain.tokens)
                refused = allocators[side].would_refuse(owner, target,
                                                        prefix=("p", key))
                if allocators[side].allocate(owner, target, prefix=("p", key),
                                             now_s=clock):
                    assert not refused
                    held[owner] = (side, target)
        elif kind == "grow" and owner in held:
            where, current = held[owner]
            target = max(current, tokens)
            if allocators[where].grow(owner, target):
                held[owner] = (where, target)
        elif kind == "park" and owner in held:
            where, _ = held.pop(owner)
            allocators[where].release(owner, keep_prefix=True, now_s=clock)
            if allocators[where].shared_key(owner) is not None:
                parked[owner] = where       # the pin survives the release
        elif kind == "resume" and owner in parked:
            where = parked[owner]
            chain_key = allocators[where].shared_key(owner)
            target = max(tokens, pools[where].prefix_chains[chain_key].tokens)
            refused = allocators[where].would_refuse(owner, target)
            if allocators[where].allocate(owner, target, now_s=clock):
                assert not refused
                del parked[owner]
                held[owner] = (where, target)
        elif kind == "release" and owner in held:
            where, current = held.pop(owner)
            assert allocators[where].release(owner, now_s=clock) == current
        elif kind == "register" and owner in held:
            where, current = held[owner]
            allocators[where].register_prefix(("p", key), min(tokens, current),
                                              owner, now_s=clock)
        elif kind == "chain_evict":
            evictable = allocators[side].evictable_prefixes()
            if evictable:
                allocators[side].evict_prefix(evictable[0].key)
        elif kind == "migrate" and owner in held:
            source, current = held[owner]
            destination = 1 - source
            # The live-migration shape: private allocation at the
            # destination, full release (chain detach included) at the
            # source; all-or-nothing on destination shortage.
            if allocators[destination].allocate(owner, current, now_s=clock):
                assert allocators[source].release(owner, now_s=clock) == current
                held[owner] = (destination, current)

        # ---- the conservation laws, after every single operation ----
        for where, (pool, allocator) in enumerate(zip(pools, allocators,
                                                      strict=True)):
            owners = [o for o, (s, _) in held.items() if s == where]
            pinned = [o for o, s in parked.items() if s == where]
            assert pool.free_blocks + pool.used_blocks == pool.num_blocks
            assert pool.prefix_blocks == sum(
                chain.blocks for chain in pool.prefix_chains.values())
            assert pool.idle_chains == sum(
                chain.refcount == 0 for chain in pool.prefix_chains.values())
            assert pool.used_blocks == pool.prefix_blocks + sum(
                allocator.holds_resident_blocks(o) for o in owners)
            for chain in pool.prefix_chains.values():
                readers = [o for o in owners + pinned
                           if allocator.shared_key(o) == chain.key]
                assert chain.refcount == len(readers)
                assert chain.refcount >= 0
            for o in owners:
                resident = allocator.holds_resident_blocks(o)
                assert resident >= 0
                assert resident + allocator.shared_blocks(o) \
                    == pool.blocks_for(held[o][1]) == allocator.holds_blocks(o)

    # Drain: held owners release fully; parked owners resume (which may need
    # several passes as departures free blocks) and release, detaching their
    # pins; then every unreferenced chain is evicted.  A parked owner can
    # stay wedged only when pinned chains hold the whole pool — its chain
    # then legitimately survives.
    for owner, (side, _) in list(held.items()):
        allocators[side].release(owner)
    progress = True
    while progress and parked:
        progress = False
        for owner, side in list(parked.items()):
            chain_key = allocators[side].shared_key(owner)
            chain_tokens = pools[side].prefix_chains[chain_key].tokens
            if allocators[side].allocate(owner, chain_tokens):
                allocators[side].release(owner)
                del parked[owner]
                progress = True
    for side, pool in enumerate(pools):
        for chain in allocators[side].evictable_prefixes():
            allocators[side].evict_prefix(chain.key)
        assert pool.used_blocks == pool.prefix_blocks
        assert pool.free_blocks == pool.num_blocks - pool.prefix_blocks
        for chain in pool.prefix_chains.values():
            assert chain.refcount > 0       # only wedged pins survive


# --------------------------------------------------------------------------- serving invariants

_SERVING_MODEL = ModelConfig(
    name="prop-serving", num_layers=4, d_model=512, num_heads=8, num_kv_heads=4,
    d_ff=1408, vocab_size=32000, max_context=512,
)


@st.composite
def timed_traces(draw):
    """Small timed traces with mixed shapes and clustered arrivals."""
    count = draw(st.integers(min_value=2, max_value=10))
    queries = []
    clock = 0.0
    for _ in range(count):
        prompt = draw(st.integers(min_value=8, max_value=192))
        decode = draw(st.integers(min_value=4, max_value=64))
        clock += draw(st.floats(min_value=0.0, max_value=0.02,
                                allow_nan=False, allow_infinity=False))
        queries.append(Query(prompt, decode, arrival_time_s=clock))
    return queries


@given(timed_traces(), st.sampled_from(["reserve", "paged"]))
@settings(max_examples=15, deadline=None)
def test_queue_depth_timeline_conserves_requests(trace, admission):
    """The recorded backlog equals arrivals minus completions at every
    iteration, in both admission modes (the router-feedback signal must be
    trustworthy before the closed loop routes on it)."""
    from repro.core.config import CentConfig
    from repro.core.system import CentSystem
    from repro.serving import RequestState, ServingEngine

    system = CentSystem(CentConfig(num_devices=1, context_samples=2),
                        _SERVING_MODEL)
    # A tight memory budget forces queueing (and, in paged mode, preemption),
    # so the invariant is exercised under pressure, not just in steady state.
    profile_capacity = system.memory_capacity_bytes
    engine = ServingEngine(system, context_step=256, admission=admission,
                           max_batch_size=2,
                           memory_capacity_bytes=profile_capacity // 16)
    run = engine.simulate(trace)

    servable = [r for r in run.requests if r.state is not RequestState.REJECTED]
    assert run.queue_depth_timeline, "every run must record its backlog"
    for time_s, queued, running in run.queue_depth_timeline:
        arrived = sum(1 for r in servable if r.arrival_time_s <= time_s)
        finished = sum(1 for r in servable
                       if r.finish_time_s is not None and r.finish_time_s <= time_s)
        assert queued + running == arrived - finished, (
            f"backlog sample at t={time_s}: queued={queued} running={running} "
            f"but arrived={arrived} finished={finished}"
        )
        assert queued >= 0 and running >= 0


# --------------------------------------------------------------------------- latency statistics

#: Sizes around the chunk boundaries of the mean's fold (its slices start
#: after the first sample), plus the empty and single-sample sets.
_FOLD_SIZES = (0, 1, 2, FOLD_CHUNK, FOLD_CHUNK + 1, FOLD_CHUNK + 2,
               2 * FOLD_CHUNK, 2 * FOLD_CHUNK + 1, 2 * FOLD_CHUNK + 2)

_latency_samples = st.one_of(
    st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40).map(
        lambda values: np.array(values, dtype=np.float64)),
    # Log-normal samples over many decades, so the summation order shows
    # in the last bits of the mean.
    st.tuples(st.sampled_from(_FOLD_SIZES), st.integers(0, 2**32 - 1)).map(
        lambda spec: np.random.default_rng(spec[1]).lognormal(-6.0, 3.0,
                                                               spec[0])),
)


@given(_latency_samples)
@settings(max_examples=40, deadline=None)
def test_latency_stats_mean_is_the_left_fold(samples):
    """``LatencyStats`` keeps the mean a sequential left fold, bit for bit,
    and its percentiles ``np.percentile``'s, whether it partitions a float64
    array in place or converts a list."""
    original = samples.copy()
    stats = LatencyStats.from_samples(samples)
    assert LatencyStats.from_samples(original.tolist()) == stats
    if original.size == 0:
        assert stats == LatencyStats()
        return
    mean = functools.reduce(operator.add, original.tolist()) / original.size
    assert struct.pack("<d", stats.mean_s) == struct.pack("<d", mean)
    p50, p90, p99 = np.percentile(original.copy(), [50.0, 90.0, 99.0])
    assert (stats.p50_s, stats.p90_s, stats.p99_s) == (p50, p90, p99)
    assert (stats.count, stats.max_s) == (original.size, original.max())
