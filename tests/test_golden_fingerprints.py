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
from repro.core.performance import PerformanceModel
from repro.core.system import CentSystem
from repro.evaluation.scalability import figure19_scalability
from repro.mapping.parallelism import PipelineParallel, TensorParallel
from repro.models.config import LLAMA2_7B, LLAMA2_13B, LLAMA2_70B, ModelConfig
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


#: Digests recorded at the commit before block-granular swap was deleted,
#: with the always-zero partial-eviction count already dropped from the
#: encoding.  One per ``SCENARIOS`` entry, each run under memory pressure.
SCENARIO_DIGESTS = {
    "paged_recompute":
        "a7ba849bd076162fee90772ec29faa9046f464b6f737b0cbfd594c4973a4e898",
    "paged_swap":
        "712c3f5b6cf548a4166f9846349c2aad34fd2b38b3cce6d823b8a0d1626151ab",
    "reserve":
        "3ace9f083fd33947ed9e489760b671145741b97aec5c66919df7c5cd4dd55fce",
}
SEGMENTED_DIGEST = (
    "4a63ecdd15d4016ee57fff056c1ade973d9e35fbaacc0f7d33b88e9dd2cfe68a")
MIGRATION_DIGESTS = {
    "paged":
        "7c3bff88afc6c339645bb4004cc601e2b96a2728b8bd895eeddaecc0ee581a85",
    "reserve":
        "101a8e324f8b84a848b1e05a40b187ba3910778d622ed05d21d9def13034d80b",
}
PREFIX_DIGEST = (
    "39eeb98f0af77755379efa682ea3d68d1edb4c1726623871199ecaf972f236a9")
CLUSTER_DIGEST = (
    "2469210471583da494a894f60bb0d8a0492d8aea1d1c55b2ec996c1bcb5bb42b")


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
    assert all(len(r.tbt_samples_s) == max(r.tokens_generated - 1, 0)
               for r in run.requests)
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


# ----------------------------------------------------------------- cost model

#: Per model, two device counts whose pipeline-parallel mapping fits.
COST_DEVICES = {LLAMA2_7B: (16, 32), LLAMA2_13B: (20, 40), LLAMA2_70B: (40, 80)}


def _cost_cases():
    cases = {}
    for model, device_counts in COST_DEVICES.items():
        for devices in device_counts:
            for plan in (PipelineParallel(devices, model), TensorParallel(devices)):
                cases[f"{model.name}/{devices}/{plan.name}"] = (model, devices, plan)
    return cases


COST_CASES = _cost_cases()


def block_cost_fingerprint(model, devices, plan):
    """Every number ``block_cost`` reports, at contexts 1, 257, 2048 and the
    model's maximum; command counts in their first-issue order."""
    performance = PerformanceModel(CentConfig(num_devices=devices))
    rows = []
    for context in (1, 257, 2048, model.max_context):
        cost = performance.block_cost(model, plan, context)
        breakdown = cost.breakdown
        rows.append((breakdown.pim_ns, breakdown.pnm_ns, breakdown.cxl_ns,
                     tuple((kind.name, count) for kind, count
                           in cost.command_counts_per_channel.items()),
                     cost.dram_bytes_read, cost.flops))
    return rows


#: Recorded at the commit before the cost model's O(1) all-bank scheduling
#: and compile-input memo; one per ``COST_CASES`` entry plus the Figure 19
#: rows, which price 70B blocks across ten device counts.
COST_DIGESTS = {
    "Llama2-13B/20/PP=40":
        "52c6af7595595dfd34cfcd86ee0a20d5588af29cba7b5239760476803c83e0e4",
    "Llama2-13B/20/TP=20":
        "322414f71484468a7accb8cded0633cb188ac27632da03af461f5ad056f64816",
    "Llama2-13B/40/PP=40":
        "83fc4d49de7adb2f2055d71aaefc9d22d8eec75ace5e311eb1c11a10bf90f948",
    "Llama2-13B/40/TP=40":
        "6a6667f920becc6cec4ac2bfe62417626daf43c579d65d004465938980326985",
    "Llama2-70B/40/PP=80":
        "499ed6c0ff92a012ee05eedccf21cc3c28ac820f3d2fd6dc7154edcbaf350869",
    "Llama2-70B/40/TP=40":
        "9d805d27b8b09f891c59b1ca067c9809f1b59adbc6250b897eaef6958d40e92a",
    "Llama2-70B/80/PP=80":
        "14dbf12ce37186d2c73c4662d1e7d111108fe7ba2456af4f23b1e97b4afead61",
    "Llama2-70B/80/TP=80":
        "054aa66f1980d89a548dcc714e55252adc576945aec547cb488f5d3b1c9c5c07",
    "Llama2-7B/16/PP=32":
        "6bb5a9d20eb74504c5fe44c0d2ad7e584b217da1580969b9774b58e0b09e9ce0",
    "Llama2-7B/16/TP=16":
        "ba1f84300f6787b2b3431a731d83e614eff2889bad0e17c7250eb30e3f995570",
    "Llama2-7B/32/PP=32":
        "0dc55dc31a2fe46282c0fbe4bfd3b6b18a821237354d21fbed3a5065e17d319c",
    "Llama2-7B/32/TP=32":
        "c5adb0f52d1603cb8d8518c01c99cc3fda6bbbc24a07b2812c0ad6b797897f82",
    "figure19_scalability":
        "a623a949d68a8b1c5f07f24c974b2b9b9b272c69006bb07934bc1beadcd6afcd",
}


def test_cost_digests_cover_the_matrix():
    assert sorted(COST_DIGESTS) == sorted([*COST_CASES, "figure19_scalability"])


@pytest.mark.parametrize("case", sorted(COST_CASES))
def test_block_cost(case):
    assert digest(block_cost_fingerprint(*COST_CASES[case])) == COST_DIGESTS[case]


def test_figure19_scalability_rows():
    assert digest(figure19_scalability()) == COST_DIGESTS["figure19_scalability"]
