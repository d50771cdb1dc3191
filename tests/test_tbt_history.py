"""Time-between-tokens history stored per decode step, rebuilt on demand.

The engine stores each replica's decode-step clocks once and each request's
history as a few stretches over them (``RequestColumns``).  These tests hold
the aggregated ``result.tbt`` to the plain per-sample statistics of the
rebuilt samples, bit for bit, over random reserve, paged and migration
runs, and pin that the stored state grows with iterations, not tokens.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CentConfig
from repro.core.results import LatencyStats
from repro.core.system import CentSystem
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import RequestState, ServingEngine
from repro.serving.metrics import aggregate_serving_result
from repro.workloads import (poisson_arrivals, prefix_reuse_queries,
                             sharegpt_like_queries, with_arrivals)


@pytest.fixture(scope="module")
def model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                       num_heads=16, num_kv_heads=4, d_ff=2816,
                       vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2), model)


def kv_capacity(model, tokens):
    """Memory for the weights plus ``tokens`` tokens of KV cache."""
    profile = ModelMemoryProfile(model)
    return int(profile.parameter_bytes
               + tokens * profile.kv_cache_bytes_per_token())


def stats_bits(stats):
    return tuple(struct.pack("<d", value) if isinstance(value, float)
                 else value for value in dataclasses.astuple(stats))


def rebuilt_tbt(requests):
    """``result.tbt`` as the samples themselves would give it."""
    samples = [sample for r in requests if r.state is RequestState.FINISHED
               for sample in r.tbt_samples_s]
    return LatencyStats.from_samples(np.array(samples))


def aggregate(requests):
    return aggregate_serving_result(
        requests, model_name="m", plan_name="p", makespan_s=1.0,
        prefill_time_s=0.0, decode_time_s=0.0, decode_step_tokens=0,
        peak_memory_bytes=0, memory_capacity_bytes=1)


@st.composite
def runs(draw):
    """A trace, engine knobs, and where (if anywhere) to migrate."""
    count = draw(st.integers(30, 60))
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        queries = prefix_reuse_queries(
            count, num_tenants=2, reuse_fraction=0.8,
            mean_prefix_tokens=100.0, mean_decode_tokens=200.0, sigma=0.4,
            seed=seed, max_context=2048)
    else:
        queries = sharegpt_like_queries(count, seed=seed)
    rate = draw(st.sampled_from([200.0, 1e4]))
    trace = with_arrivals(queries, poisson_arrivals(count, rate, seed=seed))
    admission = draw(st.sampled_from(["reserve", "paged", "paged"]))
    kwargs = dict(admission=admission,
                  vectorize=draw(st.booleans()),
                  max_batch_size=draw(st.sampled_from([None, 16])),
                  prefill_chunk_tokens=draw(st.sampled_from([64, 512])))
    if admission == "paged":
        # KV tokens for 0.7-1.5 worst-case contexts: a third of the runs
        # preempt.
        kwargs.update(
            memory_capacity_bytes=draw(st.sampled_from([1500, 2100, 3000])),
            preemption_restore=draw(st.sampled_from(["swap", "recompute"])),
            kv_block_tokens=draw(st.sampled_from([1, 16])))
    cut_s = draw(st.sampled_from([None, 0.02, 0.1]))
    return trace, kwargs, cut_s, draw(st.randoms(use_true_random=False))


class TestAggregateIsTheSampleStatistics:
    @settings(settings.get_profile("ci"), max_examples=40)
    @given(config=runs())
    def test_random_runs(self, system, model, config):
        trace, kwargs, cut_s, rng = config
        if "memory_capacity_bytes" in kwargs:
            kwargs = {**kwargs, "memory_capacity_bytes": kv_capacity(
                model, kwargs["memory_capacity_bytes"])}
        source = ServingEngine(system, context_step=512, **kwargs)
        if cut_s is None:
            requests = source.simulate(trace).requests
        else:
            # Live-migrate every movable request mid-run; the destination
            # serves them alongside its own share of the trace, so completed
            # requests come from two stores, interleaved below.
            target = ServingEngine(system, context_step=512, **kwargs)
            half = len(trace) // 2
            state_a = source.begin(trace[:half], planning_trace=trace)
            state_b = target.begin(trace[half:], planning_trace=trace)
            source.advance(state_a, until_s=cut_s)
            target.advance(state_b, until_s=cut_s)
            for request in list(state_a.unfinished):
                if request.context_length > 0 and request.restore_remaining == 0:
                    moved = source.migrate_out(state_a, request, now_s=cut_s)
                    target.migrate_in(state_b, moved, now_s=cut_s)
            source.advance(state_a)
            target.advance(state_b)
            requests = state_a.requests + state_b.requests
            rng.shuffle(requests)
        for request in requests:
            assert len(request.tbt_samples_s) == max(
                request.tokens_generated - 1, 0)
        assert stats_bits(aggregate(requests).tbt) == stats_bits(
            rebuilt_tbt(requests))


class TestStoredHistorySize:
    def test_grows_with_iterations_not_tokens(self, system):
        """60 decode-heavy requests on 8 slots: one clock per decode step
        and one stretch per request, about an eighth of the samples."""
        trace = with_arrivals(
            sharegpt_like_queries(60, seed=3, mean_prompt_tokens=64.0,
                                  mean_decode_tokens=768.0, sigma=0.3,
                                  max_context=2048),
            poisson_arrivals(60, 200.0, seed=3))
        counts = []
        for vectorize in (True, False):
            run = ServingEngine(system, context_step=512,
                                vectorize=vectorize).simulate(trace)
            columns = run.requests[0].columns
            samples = sum(len(r.tbt_samples_s) for r in run.requests)
            # Every decode token but a request's first leaves one sample.
            assert samples == run.decode_step_tokens == 45_666
            counts.append((columns.steps, columns.stretches))
        # The fast-forward records exactly the scalar loop's decode steps,
        # and nothing preempts, so each request decodes in one stretch.
        assert counts == [(6_394, 60), (6_394, 60)]
        assert 7 * sum(counts[0]) < samples

    def test_every_resume_opens_at_most_one_stretch(self, system, model):
        trace = with_arrivals(
            prefix_reuse_queries(60, num_tenants=3, reuse_fraction=0.8,
                                 mean_prefix_tokens=200.0,
                                 mean_decode_tokens=200.0, sigma=0.3, seed=1,
                                 max_context=2048),
            poisson_arrivals(60, 200.0, seed=1))
        run = ServingEngine(system, context_step=512, admission="paged",
                            memory_capacity_bytes=kv_capacity(model, 1500)
                            ).simulate(trace)
        columns = run.requests[0].columns
        preemptions = sum(r.preempted_count for r in run.requests)
        assert preemptions > 0
        assert columns.stretches <= len(run.requests) + preemptions
        assert columns.steps < run.decode_step_tokens
