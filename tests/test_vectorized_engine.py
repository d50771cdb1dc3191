"""Bit-exactness of the vectorized serving core against the scalar path.

The vectorized iteration core (columnar request state, batched cost
pricing, the event-horizon fast-forward, C-speed bookkeeping) is allowed
exactly zero numerical drift: every float it produces must replay the
scalar loop's arithmetic operation for operation.  These tests pin that
contract with full-run fingerprints — every per-request timestamp, every
time-between-tokens sample, the whole queue-depth timeline — across the
admission/preemption/migration scenario matrix, plus direct equivalence
of the batch cost-model entry points and the O(batch) ``extend``
regression.  Under paged pressure the fast-forward also runs eviction
iterations inside its windows (a fused chain); those chains are checked
case by case and over random pressure configurations.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CentConfig
from repro.core.iteration import IterationCostModel
from repro.core.system import CentSystem
from repro.kvstore.preemption import PreemptionPolicy
from repro.mapping.parallelism import ParallelismPlan
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import ServingEngine
from repro.serving.engine import _PagedAdmission
from repro.telemetry import TraceRecorder
from repro.workloads import (
    poisson_arrivals,
    prefix_reuse_queries,
    sharegpt_like_queries,
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


def timed_trace(count, rate, seed=1, **kwargs):
    return with_arrivals(sharegpt_like_queries(count, seed=seed, **kwargs),
                         poisson_arrivals(count, rate, seed=seed))


def run_fingerprint(engine, trace, *, until_points=()):
    """Every observable float/int of a run, for exact comparison.

    ``until_points`` drives the run through segmented ``advance`` calls
    first (the cluster layer's access pattern), then drains.
    """
    state = engine.begin(trace)
    for until_s in until_points:
        engine.advance(state, until_s=until_s)
    return fingerprint_of(engine.advance(state))


def fingerprint_of(run):
    # Every generated token after the first leaves exactly one sample.
    assert all(len(r.tbt_samples_s) == max(r.tokens_generated - 1, 0)
               for r in run.requests)
    return (
        run.makespan_s, run.prefill_time_s, run.decode_time_s,
        run.decode_step_tokens, run.peak_memory_bytes,
        tuple(run.queue_depth_timeline), tuple(run.preemption_log),
        tuple((r.state.name, r.finish_time_s, r.first_token_time_s,
               r.last_token_time_s, r.admitted_time_s, r.stall_s,
               r.preempted_count, r.num_swap_outs, r.num_swap_ins,
               r.swap_time_s, r.recompute_tokens,
               tuple(r.tbt_samples_s)) for r in run.requests),
    )


SCENARIOS = {
    "reserve": dict(admission="reserve"),
    "paged_swap": dict(admission="paged", preemption_restore="swap"),
    "paged_recompute": dict(admission="paged",
                            preemption_restore="recompute"),
}


class TestVectorizedBitExactness:
    """Vectorized and scalar runs must be indistinguishable, field by field."""

    def make_engines(self, system, kwargs, *, pressure=False):
        extra = {}
        if pressure:
            # A quarter of the memory forces admission queuing, preemption
            # and (paged) block-pool churn, exercising every eviction path.
            extra["memory_capacity_bytes"] = system.memory_capacity_bytes // 4
        return (ServingEngine(system, context_step=512, vectorize=True,
                              **kwargs, **extra),
                ServingEngine(system, context_step=512, vectorize=False,
                              **kwargs, **extra))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_full_run_identical(self, system, scenario):
        vec, scalar = self.make_engines(system, SCENARIOS[scenario],
                                        pressure=True)
        trace = timed_trace(120, 300.0, seed=3)
        assert (run_fingerprint(vec, trace)
                == run_fingerprint(scalar, trace))

    @pytest.mark.parametrize("scenario", ["reserve", "paged_swap"])
    def test_segmented_run_identical(self, system, scenario):
        """Segment bounds cut fast-forward windows mid-flight; the resumed
        fold must continue from the identical float clock."""
        vec, scalar = self.make_engines(system, SCENARIOS[scenario])
        trace = timed_trace(60, 400.0, seed=9)
        points = (0.02, 0.05, 0.011, 0.3)  # includes a no-op (past) bound
        assert (run_fingerprint(vec, trace, until_points=points)
                == run_fingerprint(scalar, trace, until_points=points))

    def test_fast_forward_engages_and_matches(self, system):
        """A saturated decode-only regime (where whole windows advance in
        closed form) still reproduces the scalar iteration exactly."""
        vec, scalar = self.make_engines(system, SCENARIOS["paged_swap"])
        # Everyone arrives at once: after the prefill phase the whole batch
        # decodes in lockstep — maximal fast-forward windows.
        trace = timed_trace(40, 1e6, seed=5, mean_decode_tokens=600.0)
        fp_vec = run_fingerprint(vec, trace)
        fp_scalar = run_fingerprint(scalar, trace)
        assert fp_vec == fp_scalar
        # Long uninterrupted decode streaks really occurred (the windows
        # the fast-forward collapses): >= 100 consecutive tokens at some
        # point for some request.
        tbts = fp_vec[-1][0][-1]
        assert len(tbts) >= 100

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_live_migration_identical(self, system, admission):
        """migrate_out/migrate_in mid-run land on identical states under
        both paths (the cluster re-placement access pattern)."""

        def migrated_fingerprint(vectorize):
            source = ServingEngine(
                system, context_step=512, admission=admission,
                vectorize=vectorize,
                memory_capacity_bytes=system.memory_capacity_bytes // 4)
            target = ServingEngine(
                system, context_step=512, admission=admission,
                vectorize=vectorize,
                memory_capacity_bytes=system.memory_capacity_bytes // 4)
            trace = timed_trace(25, 300.0, seed=1)
            state_a = source.begin(trace)
            source.advance(state_a, until_s=0.05)
            movable = [r for r in state_a.unfinished
                       if r.context_length > 0 and r.restore_remaining == 0]
            assert movable
            state_b = target.begin([], planning_trace=trace)
            state_b.clock = 0.05
            for request in movable:
                moved = source.migrate_out(state_a, request, now_s=0.05)
                target.migrate_in(state_b, moved, now_s=0.05)
            for request in state_a.unfinished:
                target.extend(state_b, [request.query])
            run = target.advance(state_b)
            return (
                run.makespan_s, run.decode_time_s, run.decode_step_tokens,
                tuple(run.queue_depth_timeline),
                tuple((r.state.name, r.finish_time_s, r.first_token_time_s,
                       r.last_token_time_s, r.stall_s, r.migrated_count,
                       tuple(r.tbt_samples_s)) for r in run.requests),
            )

        assert migrated_fingerprint(True) == migrated_fingerprint(False)


class TestBatchCostModel:
    """The batch entry points replay the scalar folds bit for bit."""

    @pytest.fixture(scope="class")
    def cost(self, system, small_model):
        plan = ParallelismPlan(name="PP=8", num_devices=2, pp_stages=8)
        return IterationCostModel(system.performance, small_model, plan,
                                  context_step=512)

    def test_block_latency_batch_matches_scalar(self, cost, small_model):
        contexts = np.array([1, 7, 511, 512, 513, 1024, 1999,
                             small_model.max_context + 50])
        batch = cost.block_latency_batch_ns(contexts)
        for context, latency in zip(contexts.tolist(), batch.tolist(), strict=True):
            assert latency == cost.block_latency_ns(context)

    def test_decode_iteration_batch_matches_scalar(self, cost):
        rng = np.random.default_rng(4)
        for size in (1, 2, 7, 33, 260):
            contexts = rng.integers(1, 2000, size=size)
            assert (cost.decode_iteration_batch_s(contexts)
                    == cost.decode_iteration_s(contexts.tolist()))

    def test_decode_span_matches_iterated_scalar(self, cost):
        """Row k of the span equals pricing the batch at contexts + k."""
        contexts = np.array([5, 300, 511, 777, 1500])
        span = cost.decode_span_s(contexts, 64)
        for step in range(64):
            stepped = [c + step for c in contexts.tolist()]
            assert span[step] == cost.decode_iteration_s(stepped)

    def test_prefill_chunk_batch_matches_scalar_fold(self, cost):
        tokens = np.array([512, 100, 0, 37, 512])
        contexts = np.array([256, 900, 1, 1500, 2048])
        fold = 0.0
        for num, context in zip(tokens.tolist(), contexts.tolist(), strict=True):
            fold += cost.prefill_chunk_s(num, context)
        assert cost.prefill_chunk_batch_s(tokens, contexts) == fold


class TestExtendBookkeeping:
    """Admission bookkeeping is O(batch): sorted feeds never re-sort."""

    def test_sorted_extends_do_not_resort(self, system):
        engine = ServingEngine(system, context_step=512)
        trace = timed_trace(60, 500.0, seed=2)
        state = engine.begin(trace[:20], planning_trace=trace)
        assert state.pending_resorts == 0
        # Epoch-style feeding: each window arrives after the previous one.
        engine.extend(state, trace[20:40])
        engine.extend(state, trace[40:])
        assert state.pending_resorts == 0
        engine.advance(state)
        assert state.drained

    def test_out_of_order_extend_resorts_once(self, system):
        engine = ServingEngine(system, context_step=512)
        trace = timed_trace(30, 500.0, seed=2)
        state = engine.begin(trace[10:], planning_trace=trace)
        engine.extend(state, trace[:10])  # earlier arrivals: must re-sort
        assert state.pending_resorts == 1
        engine.advance(state)
        assert state.drained
        # The re-sorted queue served in correct arrival order regardless:
        # walking requests by arrival, admission times never go backwards.
        by_arrival = sorted(state.requests, key=lambda r: r.arrival_time_s)
        admitted = [r.admitted_time_s for r in by_arrival
                    if r.admitted_time_s is not None]
        assert admitted == sorted(admitted)


# ------------------------------------------------------------ fused chains


def kv_capacity(model, tokens):
    """Memory for the weights plus ``tokens`` tokens of KV cache."""
    profile = ModelMemoryProfile(model)
    return int(profile.parameter_bytes
               + tokens * profile.kv_cache_bytes_per_token())


def prefix_pressure_trace(seed=1):
    """60 prefix-sharing requests at 200 qps: paged memory thrashes."""
    queries = prefix_reuse_queries(
        60, num_tenants=3, reuse_fraction=0.8, mean_prefix_tokens=200.0,
        mean_decode_tokens=200.0, sigma=0.3, seed=seed, max_context=2048)
    return with_arrivals(queries, poisson_arrivals(60, 200.0, seed=seed))


class EvictionSpy:
    """Tallies what the eviction paths did, and whether a fast-forward call
    (a fused chain, never the scalar oracle) was running at the time."""

    def __init__(self, monkeypatch):
        self.in_window = False
        self.seen = Counter()
        fast_forward = ServingEngine._fast_forward
        stand_in_top = ServingEngine._stand_in_top
        select_eviction = PreemptionPolicy.select_eviction
        preempt = _PagedAdmission._preempt
        try_resume = _PagedAdmission.try_resume

        def spied_fast_forward(engine, state, until_s):
            self.in_window = True
            fused = state.window_evictions
            try:
                return fast_forward(engine, state, until_s)
            finally:
                self.in_window = False
                if (state.window_evictions > fused and until_s is not None
                        and state.clock >= until_s):
                    self.seen["chain cut by until_s"] += 1

        def spied_stand_in_top(engine, state, until_s):
            pending = len(state.pending)
            stood_in = stand_in_top(engine, state, until_s)
            if stood_in and len(state.pending) < pending:
                self.seen["arrival crossed mid-chain"] += 1
            return stood_in

        def spied_select_eviction(policy, candidates, chains):
            kind, victim = select_eviction(policy, candidates, chains)
            if kind == "chain" and self.in_window:
                self.seen["chain victim in window"] += 1
            return kind, victim

        def spied_preempt(admission, state, victim):
            if victim.prefill_remaining or victim.restore_remaining:
                self.seen["victim not decoding"] += 1
            elif admission.policy.restore == "recompute":
                self.seen["recompute victim"] += 1
            if self.in_window and victim.kv_tokens >= victim.context_length:
                self.seen["grown victim in window"] += 1
            return preempt(admission, state, victim)

        def spied_try_resume(admission, state, request):
            if admission.allocator.pool.idle_chains:
                self.seen["idle chain at resume"] += 1
            return try_resume(admission, state, request)

        monkeypatch.setattr(ServingEngine, "_fast_forward", spied_fast_forward)
        monkeypatch.setattr(ServingEngine, "_stand_in_top", spied_stand_in_top)
        monkeypatch.setattr(PreemptionPolicy, "select_eviction",
                            spied_select_eviction)
        monkeypatch.setattr(_PagedAdmission, "_preempt", spied_preempt)
        monkeypatch.setattr(_PagedAdmission, "try_resume", spied_try_resume)


def paged_runs(system, trace, *, until_points=(), traced=False, **kwargs):
    """``[(fingerprint, run)]`` of one paged configuration, vectorized then
    scalar; traced runs add every recorded event to the fingerprint."""
    runs = []
    for vectorize in (True, False):
        engine = ServingEngine(system, admission="paged", context_step=512,
                               vectorize=vectorize, **kwargs)
        recorder = TraceRecorder() if traced else None
        state = engine.begin(trace, telemetry=recorder)
        for until_s in until_points:
            engine.advance(state, until_s=until_s)
        run = engine.advance(state)
        fingerprint = prefix_fingerprint(run)
        if traced:
            recorder.finalize()
            # Emit order within each scope, not just the time-sorted view.
            fingerprint += (tuple((scope.name, tuple(scope.events))
                                  for scope in recorder.scopes),)
        runs.append((fingerprint, run))
    return runs


def prefix_fingerprint(run):
    return fingerprint_of(run) + (
        tuple((r.prefix_hits, r.cow_blocks) for r in run.requests),)


class TestFusedEvictionChains:
    """Eviction iterations that a fast-forward runs inside its windows
    reproduce the loop's own iterations exactly, in each case a fused chain
    could get wrong; every test also checks that its case really occurred."""

    def check(self, system, trace, **kwargs):
        (fp_vec, vec), (fp_scalar, scalar) = paged_runs(system, trace,
                                                        **kwargs)
        assert fp_vec == fp_scalar
        assert vec.window_evictions > 0  # the chains really fused
        return vec, scalar

    def test_chain_victims_and_cow_tails(self, system, small_model,
                                         monkeypatch):
        spy = EvictionSpy(monkeypatch)
        vec, _ = self.check(system, prefix_pressure_trace(),
                            memory_capacity_bytes=kv_capacity(small_model,
                                                              1000))
        assert spy.seen["chain victim in window"]
        assert sum(r.cow_blocks for r in vec.requests) > 0

    def test_idle_chain_at_resume(self, system, small_model, monkeypatch):
        spy = EvictionSpy(monkeypatch)
        self.check(system, prefix_pressure_trace(seed=2),
                   memory_capacity_bytes=kv_capacity(small_model, 1500))
        assert spy.seen["idle chain at resume"]

    def test_recompute_victims_are_decoding(self, system, small_model,
                                            monkeypatch):
        # Decode never shares an iteration with prefill or rebuild work,
        # so no victim is mid-prefill or mid-rebuild: the engine keeps no
        # path for re-evicting a rebuild or rebuilding a partial prompt.
        spy = EvictionSpy(monkeypatch)
        trace = with_arrivals(sharegpt_like_queries(60, seed=1),
                              poisson_arrivals(60, 400.0, seed=1))
        self.check(system, trace, preemption_restore="recompute",
                   prefill_chunk_tokens=64,
                   memory_capacity_bytes=kv_capacity(small_model, 2000))
        assert spy.seen["recompute victim"]
        assert not spy.seen["victim not decoding"]

    def test_victim_grown_earlier_in_the_step(self, system, small_model,
                                              monkeypatch):
        spy = EvictionSpy(monkeypatch)
        self.check(system, prefix_pressure_trace(),
                   memory_capacity_bytes=kv_capacity(small_model, 1500))
        assert spy.seen["grown victim in window"]

    def test_arrival_crossing_mid_chain(self, system, small_model,
                                        monkeypatch):
        spy = EvictionSpy(monkeypatch)
        self.check(system, prefix_pressure_trace(),
                   memory_capacity_bytes=kv_capacity(small_model, 1500))
        assert spy.seen["arrival crossed mid-chain"]

    def test_segment_bound_cuts_a_chain(self, system, small_model,
                                        monkeypatch):
        kwargs = dict(memory_capacity_bytes=kv_capacity(small_model, 1500))
        makespan_s = paged_runs(system, prefix_pressure_trace(),
                                **kwargs)[0][1].makespan_s
        spy = EvictionSpy(monkeypatch)
        self.check(system, prefix_pressure_trace(),
                   until_points=tuple(np.linspace(0.0, makespan_s, 200)[1:]),
                   **kwargs)
        assert spy.seen["chain cut by until_s"]

    def test_traced_runs_match_untraced(self, system, small_model):
        kwargs = dict(memory_capacity_bytes=kv_capacity(small_model, 1500))
        traced, _ = self.check(system, prefix_pressure_trace(), traced=True,
                               **kwargs)
        (untraced, _), _ = paged_runs(system, prefix_pressure_trace(),
                                      **kwargs)
        assert untraced == prefix_fingerprint(traced)

    def test_work_counters(self, system, small_model):
        """The counters are deterministic; the scalar oracle never
        fast-forwards, so it tops the loop once per iteration."""
        (_, vec), (_, scalar) = paged_runs(
            system, prefix_pressure_trace(),
            memory_capacity_bytes=kv_capacity(small_model, 1500))
        assert (vec.loop_tops, vec.ff_windows, vec.window_evictions) == (
            183, 142, 81)
        assert (scalar.loop_tops, scalar.ff_windows,
                scalar.window_evictions) == (2889, 0, 0)
        assert len(vec.preemption_log) == len(scalar.preemption_log) == 90


@st.composite
def pressure_configs(draw):
    """A paged trace and engine knobs on KV memory for 1-1.5 worst-case
    contexts (the small model's 2,048), arriving fast enough to evict."""
    count = draw(st.integers(20, 60))
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        queries = prefix_reuse_queries(
            count, num_tenants=draw(st.integers(1, 4)),
            reuse_fraction=draw(st.sampled_from([0.3, 0.8, 1.0])),
            mean_prefix_tokens=draw(st.sampled_from([16.0, 100.0, 300.0])),
            mean_decode_tokens=draw(st.sampled_from([50.0, 200.0])),
            sigma=0.4, seed=seed, max_context=2048)
    else:
        queries = sharegpt_like_queries(count, seed=seed)
    rate = draw(st.sampled_from([100.0, 1e4]))
    trace = with_arrivals(queries, poisson_arrivals(count, rate, seed=seed))
    kv_tokens = draw(st.sampled_from([2100, 2500, 3000]))
    kwargs = dict(
        preemption_restore=draw(st.sampled_from(["swap", "recompute"])),
        prefill_chunk_tokens=draw(st.sampled_from([64, 512])),
        kv_block_tokens=draw(st.sampled_from([1, 8, 16, 32])),
        prefix_sharing=draw(st.booleans()),
        max_batch_size=draw(st.sampled_from([None, 4, 16])))
    return trace, kv_tokens, kwargs


class TestFusedChainsRandomized:
    @settings(settings.get_profile("ci"), max_examples=40)
    @given(config=pressure_configs())
    def test_random_pressure_matches_scalar(self, system, small_model,
                                            config):
        trace, kv_tokens, kwargs = config
        try:
            (fp_vec, _), (fp_scalar, _) = paged_runs(
                system, trace,
                memory_capacity_bytes=kv_capacity(small_model, kv_tokens),
                **kwargs)
        except RuntimeError as error:  # the engines' "this is a bug" paths
            pytest.fail(f"engine invariant broke: {error}")
        assert fp_vec == fp_scalar

