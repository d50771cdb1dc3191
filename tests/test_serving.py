"""Tests for the event-driven serving engine and its supporting layers."""

import dataclasses

import pytest

from repro.core.config import CentConfig
from repro.core.iteration import IterationCostModel
from repro.core.performance import PerformanceModel
from repro.core.results import LatencyStats, percentile
from repro.core.system import CentSystem
from repro.mapping.parallelism import PipelineParallel
from repro.models.memory import ModelMemoryProfile
from repro.serving import RequestState, ServingEngine, ServingRequest
from repro.workloads import (
    Query,
    evaluate_sla_from_serving,
    fixed_queries,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def system(small_model_module):
    config = CentConfig(num_devices=4, context_samples=2)
    return CentSystem(config, small_model_module)


@pytest.fixture(scope="module")
def small_model_module():
    from repro.models.config import ModelConfig

    return ModelConfig(name="small-llama", num_layers=8, d_model=1024, num_heads=16,
                       num_kv_heads=4, d_ff=2816, vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def pp_plan(small_model_module):
    return PipelineParallel(4, small_model_module)


class TestPercentileMath:
    def test_linear_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 50) == 30.0
        assert percentile(values, 100) == 50.0
        assert percentile(values, 25) == pytest.approx(20.0)
        assert percentile([5.0, 15.0], 50) == pytest.approx(10.0)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_latency_stats(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean_s == pytest.approx(2.5)
        assert stats.p50_s == pytest.approx(2.5)
        assert stats.max_s == 4.0
        assert stats.p99_s == pytest.approx(percentile([1.0, 2.0, 3.0, 4.0], 99))
        assert LatencyStats.from_samples([]) == LatencyStats()


class TestIterationCostModel:
    def test_interpolation_brackets_grid(self, system, small_model_module, pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan,
                                  context_step=256)
        low = cost.block_latency_ns(256)
        mid = cost.block_latency_ns(384)
        high = cost.block_latency_ns(512)
        assert low < mid < high
        assert mid == pytest.approx((low + high) / 2.0)

    def test_empty_decode_iteration_is_free(self, system, small_model_module, pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan)
        assert cost.decode_iteration_s([]) == 0.0

    def test_effective_layers_cover_model(self, system, small_model_module, pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan)
        assert cost.effective_layers >= small_model_module.num_layers

    def test_context_below_grid_clamps_to_one(self, system, small_model_module, pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan,
                                  context_step=256)
        floor = cost.block_latency_ns(1)
        assert cost.block_latency_ns(0) == floor
        assert cost.block_latency_ns(-100) == floor
        assert floor > 0

    def test_context_above_grid_clamps_to_max(self, system, small_model_module, pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan,
                                  context_step=256)
        ceiling = cost.block_latency_ns(small_model_module.max_context)
        assert cost.block_latency_ns(10 * small_model_module.max_context) == ceiling
        # Interpolation never prices beyond the clamp.
        assert cost.block_latency_ns(small_model_module.max_context - 1) <= ceiling

    def test_single_point_grid(self, system, small_model_module, pp_plan):
        # A step wider than the model's context: the grid degenerates to the
        # two clamp endpoints (1 and max_context) and interpolation stays
        # monotone between them.
        cost = IterationCostModel(system.performance, small_model_module, pp_plan,
                                  context_step=4 * small_model_module.max_context)
        low = cost.block_latency_ns(1)
        mid = cost.block_latency_ns(small_model_module.max_context // 2)
        high = cost.block_latency_ns(small_model_module.max_context)
        assert low <= mid <= high
        # Exactly two grid evaluations back the whole range.
        assert len(cost._grid_ns) == 2

    def test_grid_point_is_exact(self, system, small_model_module, pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan,
                                  context_step=256)
        direct = system.performance.block_cost(
            small_model_module, pp_plan, 512).breakdown.total_ns
        assert cost.block_latency_ns(512) == pytest.approx(direct)

    def test_mixed_batch_prices_at_mean_context(self, system, small_model_module,
                                                pp_plan):
        cost = IterationCostModel(system.performance, small_model_module, pp_plan,
                                  context_step=256)
        short, long = 256, 1024
        mixed = cost.decode_iteration_s([short, long])
        expected = (cost.effective_layers
                    * (cost.block_latency_ns(short) + cost.block_latency_ns(long))
                    / 2.0 * 1e-9)
        assert mixed == pytest.approx(expected)
        # A mixed prefill + decode iteration (chunked-prefill mode) adds the
        # serialised chunk cost on top of the decode step.
        chunk = cost.prefill_chunk_s(128, 64)
        assert chunk > 0
        assert cost.prefill_chunk_s(0, 64) == 0.0
        assert cost.prefill_chunk_s(-5, 64) == 0.0


class TestSetupCache:
    def test_second_setup_is_a_cache_hit(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=64)
        first = engine._setup(trace)
        second = engine._setup(trace)
        assert second is first
        # Same servable context through a different trace object hits too.
        assert engine._setup(list(trace)) is first

    def test_capacity_estimate_warms_run(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=64)
        engine.estimated_capacity_qps(trace)
        assert len(engine._setup_cache) == 1
        (plan, cost, slots, context), = engine._setup_cache.values()
        warmed_grid = dict(cost._grid_ns)
        assert warmed_grid  # the estimate priced at least one grid point
        result = engine.run(trace)
        # run() reused the same cost model (and its warmed grid) verbatim.
        assert engine._setup(trace)[1] is cost
        assert warmed_grid.items() <= cost._grid_ns.items()
        assert result.num_completed == 4

    def test_distinct_context_shapes_get_distinct_entries(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        engine._setup(fixed_queries(2, prompt_tokens=128, decode_tokens=64))
        engine._setup(fixed_queries(2, prompt_tokens=512, decode_tokens=512))
        assert len(engine._setup_cache) == 2

    def test_cache_is_bounded(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        for prompt in range(8, 8 + 4 * (engine._setup_cache_entries + 3), 4):
            engine._setup(fixed_queries(1, prompt_tokens=prompt, decode_tokens=8))
        assert len(engine._setup_cache) <= engine._setup_cache_entries

    def test_default_plan_cached_too(self, system):
        engine = ServingEngine(system)
        trace = fixed_queries(2, prompt_tokens=128, decode_tokens=64)
        assert engine._setup(trace) is engine._setup(trace)

    def test_reconfiguring_engine_bypasses_stale_entries(self, system, pp_plan):
        # Mutating an engine knob between runs must not serve the previous
        # configuration's cached setup.
        engine = ServingEngine(system, pp_plan)
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=64)
        wide = engine.run(trace)
        engine.max_batch_size = 1
        narrow = engine.run(trace)
        fresh = ServingEngine(system, pp_plan, max_batch_size=1).run(trace)
        assert narrow.makespan_s == pytest.approx(fresh.makespan_s)
        assert narrow.makespan_s > wide.makespan_s


class TestStaticBatchRegression:
    def test_matches_run_inference_decode_throughput(self, system, pp_plan):
        """All arrivals at t=0, identical queries, one per pipeline slot: the
        engine must reproduce the closed-form decode throughput within 1%."""
        seed = system.run_inference(512, 512, plan=pp_plan, with_power=False)
        trace = fixed_queries(pp_plan.queries_in_flight,
                              prompt_tokens=512, decode_tokens=512)
        result = ServingEngine(system, pp_plan).run(trace)
        assert result.num_completed == pp_plan.queries_in_flight
        assert result.decode_throughput_tokens_per_s == pytest.approx(
            seed.decode_throughput_tokens_per_s, rel=0.01)


class TestAdmission:
    def test_oversized_request_is_refused(self, system, small_model_module, pp_plan):
        profile = ModelMemoryProfile(small_model_module)
        capacity = (profile.parameter_bytes
                    + 3 * profile.kv_cache_bytes_per_query(192))
        engine = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity)
        big = Query(prompt_tokens=1024, decode_tokens=1024)
        small = fixed_queries(6, prompt_tokens=128, decode_tokens=64)
        result = engine.run([big] + small)
        assert result.num_rejected == 1
        assert result.num_completed == 6
        assert result.peak_memory_bytes <= capacity

    def test_in_flight_context_never_exceeds_capacity(self, system, small_model_module,
                                                      pp_plan):
        profile = ModelMemoryProfile(small_model_module)
        capacity = (profile.parameter_bytes
                    + 2 * profile.kv_cache_bytes_per_query(2048))
        engine = ServingEngine(system, pp_plan, memory_capacity_bytes=capacity)
        queries = sharegpt_like_queries(40, seed=11)
        trace = with_arrivals(queries, poisson_arrivals(40, rate_qps=200.0, seed=11))
        result = engine.run(trace)
        assert result.num_completed + result.num_rejected == result.num_requests
        assert result.peak_memory_bytes <= capacity
        assert result.memory_capacity_bytes == capacity

    def test_oversized_request_does_not_drive_default_plan(self, system):
        # plan=None: the plan must be sized from the servable queries, not
        # from an oversized request the engine itself rejects.
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=64) \
            + [Query(4000, 1000)]
        result = ServingEngine(system).run(trace)
        assert result.num_rejected == 1
        assert result.num_completed == 4

    def test_context_step_not_dividing_max_context(self, system, pp_plan):
        # The last grid cell is shortened to max_context (2048 here), so a
        # context_step that does not divide it must not price beyond it.
        engine = ServingEngine(system, pp_plan, context_step=300)
        result = engine.run([Query(1024, 1024)])
        assert result.num_completed == 1

    def test_weights_must_fit(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan, memory_capacity_bytes=1024)
        with pytest.raises(MemoryError):
            engine.run(fixed_queries(1, 128, 64))


class TestContinuousBatching:
    def test_serves_200_query_poisson_trace(self, system, pp_plan):
        """The acceptance-shaped run: a 200-query ShareGPT-like trace with
        Poisson arrivals, reporting percentiles and SLA goodput."""
        engine = ServingEngine(system, pp_plan)
        queries = sharegpt_like_queries(200, seed=7)
        rate = 0.7 * engine.estimated_capacity_qps(queries)
        trace = with_arrivals(queries, poisson_arrivals(200, rate, seed=3))
        result = engine.run(trace, sla_latency_s=1.0)
        assert result.num_completed == 200
        assert result.num_rejected == 0
        assert result.makespan_s >= max(q.arrival_time_s for q in trace)
        for stats in (result.ttft, result.tbt, result.query_latency):
            assert stats.count > 0
            assert 0 < stats.p50_s <= stats.p99_s <= stats.max_s
        assert result.goodput_tokens_per_s <= result.throughput_tokens_per_s
        assert 0 <= result.sla_violation_fraction <= 1
        assert result.completed_within_sla > 0

    def test_queueing_delays_show_up_under_pressure(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan, max_batch_size=1)
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=64)
        result = engine.run(trace)
        # With one slot, the four t=0 queries serialise: the last query waits
        # for three full services, so the latency spread approaches 4x.
        assert result.query_latency.max_s > 1.5 * result.query_latency.mean_s
        assert result.num_completed == 4

    def test_interleaved_prefill_bounds_decode_stalls(self, system, pp_plan):
        """Chunked-prefill mode: a late long prompt stalls decoding by at
        most one chunk per iteration, unlike the prefill-priority default
        which stalls it for the whole prompt."""
        first = Query(128, 256, arrival_time_s=0.0)
        late = Query(1536, 32, arrival_time_s=0.002)
        priority = ServingEngine(system, pp_plan, prefill_chunk_tokens=128)
        chunked = ServingEngine(system, pp_plan, prefill_chunk_tokens=128,
                                interleave_prefill=True)
        stall_priority = priority.run([first, late]).tbt.max_s
        stall_chunked = chunked.run([first, late]).tbt.max_s
        assert stall_chunked < stall_priority

    def test_decode_latency_stats_are_per_request(self, system, pp_plan):
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=64)
        result = ServingEngine(system, pp_plan).run(trace)
        # decode latency is measured per request (latency - TTFT), so its
        # bounds respect every individual request.
        assert 0 < result.decode_latency.p50_s <= result.decode_latency.max_s
        assert result.decode_latency.max_s <= result.query_latency.max_s

    def test_determinism_of_seeded_traces(self, system, pp_plan):
        queries = sharegpt_like_queries(50, seed=5)
        trace = with_arrivals(queries, poisson_arrivals(50, rate_qps=50.0, seed=5))
        first = ServingEngine(system, pp_plan).run(trace, sla_latency_s=2.0)
        second = ServingEngine(system, pp_plan).run(trace, sla_latency_s=2.0)
        assert first == second
        other = with_arrivals(queries, poisson_arrivals(50, rate_qps=50.0, seed=6))
        third = ServingEngine(system, pp_plan).run(other, sla_latency_s=2.0)
        assert third.makespan_s != first.makespan_s

    def test_empty_trace_rejected(self, system, pp_plan):
        with pytest.raises(ValueError):
            ServingEngine(system, pp_plan).run([])


class TestRequestLifecycle:
    def test_request_metrics(self):
        request = ServingRequest(0, Query(4, 3, arrival_time_s=1.0))
        assert request.state is RequestState.QUEUED
        assert request.context_length == 0
        assert request.ttft_s is None and request.latency_s is None
        request.prefill_remaining = 0
        request.tokens_generated = 2
        request.first_token_time_s = 3.0
        request.finish_time_s = 5.0
        assert request.context_length == 6
        assert request.ttft_s == pytest.approx(2.0)
        assert request.latency_s == pytest.approx(4.0)


class TestSlaFromServing:
    def test_measured_operating_points(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        queries = sharegpt_like_queries(30, seed=9)
        results = []
        for rate in (20.0, 200.0):
            trace = with_arrivals(queries, poisson_arrivals(30, rate, seed=9))
            results.append(engine.run(trace))
        sla = (results[0].query_latency.p99_s + results[1].query_latency.p99_s) / 2.0
        report = evaluate_sla_from_serving(results, sla_latency_s=sla)
        assert len(report.compliant_points) + len(report.violating_points) == 2
        assert report.best_compliant_throughput > 0
        with pytest.raises(ValueError):
            evaluate_sla_from_serving(results, sla, percentile="p42")


class TestBoundedBlockCostCache:
    def test_lru_eviction(self, small_model_module, pp_plan):
        config = CentConfig(num_devices=4, context_samples=2, block_cache_entries=2)
        performance = PerformanceModel(config)
        for context in (64, 128, 192):
            performance.block_cost(small_model_module, pp_plan, context)
        assert len(performance._cache) == 2
        assert performance.cache_capacity == 2

    def test_hit_is_consistent(self, small_model_module, pp_plan):
        config = CentConfig(num_devices=4, context_samples=2, block_cache_entries=2)
        performance = PerformanceModel(config)
        first = performance.block_cost(small_model_module, pp_plan, 64)
        again = performance.block_cost(small_model_module, pp_plan, 64)
        assert first.breakdown.total_ns == again.breakdown.total_ns

    def test_engine_shares_system_performance_model(self, system, pp_plan):
        engine = ServingEngine(system, pp_plan)
        assert engine.system.performance is system.performance

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CentConfig(num_devices=4, block_cache_entries=0)


class TestSystemServe:
    def test_serve_wrapper(self, system, pp_plan):
        trace = fixed_queries(4, prompt_tokens=128, decode_tokens=32)
        result = system.serve(trace, pp_plan, sla_latency_s=5.0)
        assert result.num_completed == 4
        assert result.sla_latency_s == 5.0
        assert dataclasses.is_dataclass(result)
