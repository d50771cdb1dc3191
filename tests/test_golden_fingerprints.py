"""Golden cross-commit fingerprints of the serving engine.

The bit-exactness suites compare the vectorized engine against the scalar
reference *within one commit*, so a refactor that moves both paths the
same way passes them.  These tests pin whole-run fingerprints across
commits instead: every observable of a run is encoded canonically (each
float by its IEEE-754 bits) and hashed, and the SHA-256 digest must equal
the one recorded below.  A refactor that keeps behaviour keeps every
digest; a change that is meant to move a number must say so by updating
the digest it moves.
"""

import dataclasses
import enum
import hashlib
import struct

import numpy as np
import pytest

from repro.cluster import TenantSpec
from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import ServingEngine
from repro.workloads import (
    bursty_arrivals,
    poisson_arrivals,
    prefix_reuse_queries,
    sharegpt_like_queries,
    with_arrivals,
)
from test_vectorized_engine import SCENARIOS, run_fingerprint, timed_trace


def _encode(value, out):
    """Append a type-tagged, order-preserving encoding of ``value``."""
    if value is None:
        out.append(b"n")
    elif isinstance(value, bool):
        out.append(b"b1" if value else b"b0")
    elif isinstance(value, (int, np.integer)):
        out.append(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        out.append(b"f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        data = value.encode()
        out.append(b"s%d:" % len(data) + data)
    elif isinstance(value, enum.Enum):
        _encode(value.name, out)
    elif dataclasses.is_dataclass(value):
        out.append(b"d" + type(value).__name__.encode() + b"{")
        for spec in dataclasses.fields(value):
            _encode(spec.name, out)
            _encode(getattr(value, spec.name), out)
        out.append(b"}")
    elif isinstance(value, dict):
        out.append(b"m{")
        for key in sorted(value):
            _encode(key, out)
            _encode(value[key], out)
        out.append(b"}")
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _encode(item, out)
        out.append(b")")
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")


def digest(value) -> str:
    out = []
    _encode(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                       num_heads=16, num_kv_heads=4, d_ff=2816,
                       vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2),
                      small_model)


def tight_capacity(model, contexts=4, context=512):
    """Weights plus KV for ``contexts`` contexts of ``context`` tokens: the
    paged scenarios preempt hundreds of times, reserve admission queues."""
    profile = ModelMemoryProfile(model)
    return int(profile.parameter_bytes
               + contexts * profile.kv_cache_bytes_per_token() * context)


def pressured(system, **kwargs):
    return ServingEngine(system, context_step=512,
                         memory_capacity_bytes=tight_capacity(system.model),
                         **kwargs)


#: Digests recorded before the engine was split into phase methods.
#: One per ``SCENARIOS`` entry, each run under memory pressure.
SCENARIO_DIGESTS = {
    "paged_interleave":
        "456706a6a4a6009194bf25e39185d2294afb173067bc838decf242fa2d11c178",
    "paged_partial_eviction":
        "519c255773e0422fccb0f4d1f9a689685f036b07be52e84674dddd6879848088",
    "paged_recompute":
        "a0927afd438ef51840a9d10cb18d90df1ea8a43a011eb3e3ff7b29dfa8caf043",
    "paged_swap":
        "77c8749a2b6d23fdafa4e90edf2fce38d4c1e300e3cfefa216897b479df2cb2d",
    "reserve":
        "137de493880e6c7f4b3683302dd6f58910588bbf0fe3140828b59cc457ae6747",
    "reserve_interleave":
        "4a6cf34a2349a49dcd23333fb38e5a2864e6163a44f1d8df2c97c18f00a023f7",
}
SEGMENTED_DIGEST = (
    "28ca6db86ef8577beb92ba3df1183778824f92d28e87763a7222b340646cb643")
MIGRATION_DIGESTS = {
    "paged":
        "7c3bff88afc6c339645bb4004cc601e2b96a2728b8bd895eeddaecc0ee581a85",
    "reserve":
        "101a8e324f8b84a848b1e05a40b187ba3910778d622ed05d21d9def13034d80b",
}
PREFIX_DIGEST = (
    "282c928d4315a9c70079edb8533697b31b3c9b942ff4b65908861b27f2527fc1")
CLUSTER_DIGEST = (
    "41cdfe0742dd1fc724ece1a455fdc30740534e5b644d67edca63d3030e5425a1")


def test_scenarios_cover_the_matrix():
    assert sorted(SCENARIO_DIGESTS) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_pressured_scenario(system, scenario):
    engine = pressured(system, **SCENARIOS[scenario])
    fingerprint = run_fingerprint(engine, timed_trace(120, 300.0, seed=3))
    assert digest(fingerprint) == SCENARIO_DIGESTS[scenario]


def test_segmented_run(system):
    engine = pressured(system, **SCENARIOS["paged_swap"])
    fingerprint = run_fingerprint(engine, timed_trace(60, 400.0, seed=9),
                                  until_points=(0.02, 0.05, 0.011, 0.3))
    assert digest(fingerprint) == SEGMENTED_DIGEST


@pytest.mark.parametrize("admission", ["reserve", "paged"])
def test_live_migration(system, admission):
    source = pressured(system, admission=admission)
    target = pressured(system, admission=admission)
    trace = timed_trace(25, 300.0, seed=1)
    state_a = source.begin(trace)
    source.advance(state_a, until_s=0.05)
    state_b = target.begin([], planning_trace=trace)
    state_b.clock = 0.05
    migrated = 0
    for request in list(state_a.unfinished):
        if request.context_length > 0 and request.restore_remaining == 0:
            moved = source.migrate_out(state_a, request, now_s=0.05)
            target.migrate_in(state_b, moved, now_s=0.05)
            migrated += 1
        else:
            target.extend(state_b, [request.query])
    assert migrated > 0
    run = target.advance(state_b)
    fingerprint = (
        run.makespan_s, run.prefill_time_s, run.decode_time_s,
        run.decode_step_tokens, run.peak_memory_bytes,
        tuple(run.queue_depth_timeline), tuple(run.preemption_log),
        tuple((r.state.name, r.finish_time_s, r.first_token_time_s,
               r.last_token_time_s, r.admitted_time_s, r.stall_s,
               r.preempted_count, r.num_swap_outs, r.num_swap_ins,
               r.swap_time_s, r.migrated_count, r.migrated_kv_bytes,
               tuple(r.tbt_samples_s)) for r in run.requests),
    )
    assert digest(fingerprint) == MIGRATION_DIGESTS[admission]


def test_paged_prefix_reuse(system, small_model):
    queries = prefix_reuse_queries(150, num_tenants=4, reuse_fraction=0.8,
                                   seed=7, max_context=2048)
    trace = with_arrivals(queries, poisson_arrivals(150, 8.0, seed=3))
    engine = ServingEngine(system, admission="paged",
                           memory_capacity_bytes=tight_capacity(small_model))
    assert digest(run_fingerprint(engine, trace)) == PREFIX_DIGEST


def test_closed_loop_cluster_per_tenant(small_model):
    tenants = [
        TenantSpec("early", model=small_model, sla_latency_s=0.2,
                   trace=with_arrivals(sharegpt_like_queries(30, seed=5),
                                       bursty_arrivals(30, 400.0, seed=5))),
        TenantSpec("late", model=small_model, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(30, seed=6),
                       bursty_arrivals(30, 400.0, seed=6, start_s=0.3))),
    ]
    system = CentSystem(CentConfig(num_devices=6, context_samples=2),
                        small_model)
    result = system.serve_cluster(tenants, rebalance="epoch", epoch_s=0.05,
                                  context_step=512, admission="paged")
    assert result.num_migrated_requests > 0
    assert digest(result.tenant_results) == CLUSTER_DIGEST
