"""The engine's paged pressure path against its references.

``reference_paged.py`` states the window cap (binary search over the block
demand) and the grow-or-preempt walk (every candidate ranked at every
eviction) directly.  The engine computes the cap in closed form from the
requests' block-boundary crossings and keeps the victim order across
evictions (:class:`~repro.kvstore.preemption.VictimOrder`).  The scalar and
vectorized engines share the walk, so their differential cannot see a wrong
victim; these tests compare each piece, and whole runs, with the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_paged import (
    reference_cap_window,
    reference_grow_or_preempt,
    reference_last_use_s,
    reference_victim,
)
from repro.kvstore.preemption import VictimOrder
from repro.serving import ServingEngine
from repro.serving import engine as engine_module
from repro.serving.engine import _covered_steps, _PagedAdmission
from repro.serving.request import ServingRequest
from repro.workloads.queries import Query
from test_vectorized_engine import (  # noqa: F401  (module-scoped fixtures)
    kv_capacity,
    prefix_fingerprint,
    prefix_pressure_trace,
    pressure_configs,
    small_model,
    system,
)


@st.composite
def cap_cases(draw):
    """A batch's contexts and held tokens, a pool and a step limit; about
    half the pools cover the whole window."""
    block_tokens = draw(st.sampled_from([1, 2, 8, 16, 32]))
    n = draw(st.integers(1, 12))
    ctx0 = np.array(draw(st.lists(st.integers(1, 3000), min_size=n,
                                  max_size=n)), dtype=np.int64)
    # Held tokens sit anywhere from well below the context (a request not
    # yet grown) to past it.
    offsets = draw(st.lists(st.integers(-40, 3), min_size=n, max_size=n))
    kv0 = np.maximum(ctx0 + np.array(offsets, dtype=np.int64), 0)
    steps = draw(st.integers(1, 4096))
    held = -(-kv0 // block_tokens)
    whole = int((-(-np.maximum(ctx0 + steps - 1, kv0) // block_tokens)
                 - held).sum())
    if draw(st.booleans()):
        free_blocks = draw(st.integers(whole, whole + 50))
    else:
        free_blocks = draw(st.integers(0, max(whole - 1, 0)))
    return ctx0, kv0, block_tokens, free_blocks, steps


class TestWindowCap:
    @settings(settings.get_profile("ci"), max_examples=400)
    @given(case=cap_cases())
    def test_closed_form_matches_binary_search(self, case):
        ctx0, kv0, block_tokens, free_blocks, steps = case
        held = -(-kv0 // block_tokens)
        assert _covered_steps(ctx0, kv0, held, block_tokens, free_blocks,
                              steps) == reference_cap_window(
            ctx0, kv0, block_tokens, free_blocks, steps)

    def test_crossing_step_boundaries(self):
        # One request at context 16 holding 16 tokens (one 16-token block):
        # step s grows it to 16 + s - 1 tokens, so step 2 takes block 2 and
        # step 18 takes block 3.
        ctx0, kv0, held = (np.array([16]), np.array([16]), np.array([1]))
        for free_blocks, covered in ((0, 1), (1, 17), (2, 33)):
            assert _covered_steps(ctx0, kv0, held, 16, free_blocks,
                                  100) == covered


def make_request(request_id, arrival):
    request = ServingRequest(request_id, Query(64, 64, arrival_time_s=arrival))
    request.admitted_time_s = arrival
    return request


class TestVictimOrder:
    """Random joins, leaves and stamps: the kept order names the victim
    that ranking every candidate names."""

    @settings(settings.get_profile("ci"), max_examples=200)
    @given(ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10**6),
                                  st.integers(0, 3)),
                        min_size=1, max_size=60))
    def test_matches_ranking_every_candidate(self, ops):
        order, tracked, clock, next_id = VictimOrder(), [], 0.0, 0
        for op, pick, step in ops:
            # Clocks only advance, sometimes not at all (zero-span steps).
            clock += (0.0, 0.5, 1.0, 2.0)[step]
            if op == 0 or not tracked:
                # Arrivals collide often, so the tie-break decides.
                request = make_request(next_id, float(pick % 4))
                next_id += 1
                if pick % 3 == 0:
                    request.last_token_time_s = clock - (pick % 5)
                request.restore_ready_s = clock + (pick % 4 == 1)
                order.join(request, reference_last_use_s(request))
                tracked.append(request)
            elif op == 1:
                request = tracked.pop(pick % len(tracked))
                order.leave(request)
            elif op in (2, 3):  # (op 4 only queries)
                # A step stamps the ready requests: all, or a subset.
                ready = [r for r in tracked if r.restore_ready_s <= clock]
                batch = ready if op == 2 else ready[pick % 3::2]
                for request in batch:
                    request.last_token_time_s = clock
                if batch:
                    order.stamp(batch, clock)
            exclude = tracked[pick % len(tracked)] if tracked and pick % 2 \
                else None
            expected = reference_victim(
                [r for r in tracked
                 if r is not exclude and r.restore_ready_s <= clock])
            picked = order.first(exclude, clock)
            assert (None if picked is None else picked[1]) is expected
            if picked is not None:
                assert picked[0] == reference_last_use_s(expected)


def reference_covered_steps(ctx0, kv0, held, block_tokens, free_blocks, steps):
    return reference_cap_window(ctx0, kv0, block_tokens, free_blocks, steps)


def run(system, trace, kwargs, until_points, *, reference=False):
    """A paged run's fingerprint and outcome; ``reference`` swaps the
    reference walk and cap into the engine."""
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(_PagedAdmission, "_grow_or_preempt",
                          reference_grow_or_preempt)
            patch.setattr(engine_module, "_covered_steps",
                          reference_covered_steps)
        engine = ServingEngine(system, admission="paged", context_step=512,
                               **kwargs)
        state = engine.begin(trace)
        for until_s in until_points:
            engine.advance(state, until_s=until_s)
        done = engine.advance(state)
    return prefix_fingerprint(done), done


class TestReferenceRuns:
    @settings(settings.get_profile("ci"), max_examples=30)
    @given(config=pressure_configs(), cuts=st.integers(0, 12))
    def test_runs_match_the_reference_walk_and_cap(self, system, small_model,
                                                   config, cuts):
        trace, kv_tokens, kwargs = config
        kwargs = dict(kwargs, memory_capacity_bytes=kv_capacity(small_model,
                                                                kv_tokens))
        last_arrival = trace[-1].arrival_time_s
        until_points = tuple(np.linspace(0.0, 3.0 * last_arrival + 1.0,
                                         cuts + 1)[1:]) if cuts else ()
        assert run(system, trace, kwargs, until_points)[0] == run(
            system, trace, kwargs, until_points, reference=True)[0]

    def test_pressure_run_matches_the_reference(self, system, small_model):
        """A run that preempts, fuses evictions into windows and evicts
        idle prefix chains matches the reference too."""
        kwargs = dict(memory_capacity_bytes=kv_capacity(small_model, 1500))
        fingerprint, done = run(system, prefix_pressure_trace(), kwargs, ())
        assert len(done.preemption_log) == 90
        assert done.window_evictions > 0
        assert fingerprint == run(system, prefix_pressure_trace(), kwargs, (),
                                  reference=True)[0]
