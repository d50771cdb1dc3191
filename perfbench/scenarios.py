"""The benchmark's three workloads, built from a seed.

Each builder generates its inputs from ``seed`` with the repository's own
trace generators and constructs the objects a simulator user would; the
program receives only the generated traces.  ``serve()`` is the one batch
call a run times, and ``outcome(result)`` turns its result into the
simulated metrics, an exact fingerprint and the correctness checks.  Besides
its result, a serve call leaves a ``record`` that ``outcome`` reads (the
EngineRun, or the cluster's TraceRecorder); the caller clears it before the
next timed call.

Why each workload exists (see README.md for the metric catalogue):

* ``offline_decode`` — reserve admission, short prompts and ~1.5k-token
  decodes arriving much faster than they drain.  The engine's decode
  fast-forward and result aggregation do nearly all the work; the KV store
  does none.
* ``prefix_pressure`` — paged admission on a memory-clamped deployment with
  shared-prefix traffic: prefix chains, copy-on-write blocks, preemption,
  swap and per-token ``grow`` calls load the KV store.
* ``cluster_rebalance`` — two phase-shifted bursty tenants on one pool with
  epoch re-placement and live migration, recorded and exported like the
  repository's trace job: cluster control, the cost model across many
  device counts, and telemetry.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Dict, List, Tuple, Union

import numpy as np

from repro import CentConfig, CentSystem, LLAMA2_7B
from repro.cluster.engine import ClusterEngine
from repro.cluster.tenant import TenantSpec
from repro.models.memory import ModelMemoryProfile
from repro.serving.engine import ServingEngine
from repro.telemetry import TraceRecorder, read_jsonl
from repro.telemetry import attribution as telemetry_attribution
from repro.telemetry import export as telemetry_export
from repro.workloads import queries as workload_queries

#: p99 is reported only over result sets with at least this many samples,
#: so that ten samples lie beyond it.
MIN_PERCENTILE_SAMPLES = 1000

# Seed-to-seed spread of the simulated metrics is part of the benchmark's
# run-to-run spread, so every workload is shaped to keep it small: arrivals
# come much faster than the system drains them (queueing delay then tracks
# total work, which averages over many requests, instead of the difference
# between arrival and service), and length distributions are narrow enough
# that a few long requests do not decide a percentile.  SLAs sit above the
# drain time on the single-replica workloads, so their goodput is the
# delivered token rate rather than a threshold count.

# offline_decode: ~1.4 M TBT samples from 1,000 decode-heavy requests that
# arrive within ~10 s and drain over ~140 s on 16 devices.
OFFLINE_REQUESTS = 1000
OFFLINE_RATE_QPS = 100.0
OFFLINE_DEVICES = 16
OFFLINE_SLA_S = 300.0
OFFLINE_MIN_TBT_SAMPLES = 1_000_000

# prefix_pressure: 8 prefix tenants at 0.8 reuse with ~512-token prefixes,
# arriving within ~10 s at 8 devices whose KV budget holds only two
# worst-case 4,096-token contexts.  A narrow length spread and mild tenant
# skew keep the 8 per-seed prefix lengths from deciding the outcome.
PREFIX_REQUESTS = 1000
PREFIX_RATE_QPS = 100.0
PREFIX_DEVICES = 8
PREFIX_SLA_S = 300.0
PREFIX_KV_CONTEXTS = 2
PREFIX_LENGTH_SIGMA = 0.1
PREFIX_TENANT_SKEW = 0.5

# cluster_rebalance: the phase-shifted two-tenant mix of the repository's
# closed-loop study, with its calibration fixed offline (half-pool capacity
# ~5.7 qps): each tenant offers one Poisson burst at 3x that capacity, the
# late burst starts where the early one would finish draining on half the
# pool, the SLO is 0.4x and the control epoch 0.13x that drain time.
CLUSTER_REQUESTS_PER_TENANT = 1000
CLUSTER_DEVICES = 10
CLUSTER_RATE_QPS = 17.1
CLUSTER_LATE_START_S = 234.0
CLUSTER_SLA_S = 70.0
CLUSTER_EPOCH_S = 22.8
CLUSTER_LENGTH_SIGMA = 0.5
CLUSTER_CONTEXT_STEP = 512


def _digest(values: List[Tuple]) -> str:
    """Exact fingerprint: float bits, not rounded text."""
    h = hashlib.sha256()
    for row in values:
        for item in row:
            if isinstance(item, float):
                h.update(struct.pack("<d", item))
            else:
                h.update(repr(item).encode())
    return h.hexdigest()


def _sim_metrics(results) -> Dict[str, object]:
    """SLO metrics over one or more ServingResults (worst tenant)."""
    return {
        "sim_ttft_p50_s": max(r.ttft.p50_s for r in results),
        "sim_ttft_p99_s": max(r.ttft.p99_s for r in results),
        "sim_tbt_p50_s": max(r.tbt.p50_s for r in results),
        "sim_tbt_p99_s": max(r.tbt.p99_s for r in results),
        "ttft_samples": min(r.ttft.count for r in results),
        "tbt_samples": min(r.tbt.count for r in results),
    }


class SingleReplica:
    """One ServingEngine serving one trace with ``ServingEngine.run``."""

    def __init__(self, name: str, engine: ServingEngine, trace, sla_s: float):
        self.name = name
        self.engine = engine
        self.trace = trace
        self.sla_s = sla_s
        self.record = None
        # Keep the EngineRun that run() folds, for the fingerprint and the
        # attribution check; one extra call frame per serve.
        simulate = engine.simulate

        def capture(*args, **kwargs):
            self.record = simulate(*args, **kwargs)
            return self.record

        engine.simulate = capture

    def serve(self):
        return self.engine.run(self.trace, sla_latency_s=self.sla_s)

    def outcome(self, result) -> Dict[str, object]:
        run = self.record
        failures: List[str] = []
        if result.num_completed + result.num_rejected != len(self.trace):
            failures.append(
                f"completed {result.num_completed} + rejected "
                f"{result.num_rejected} != attempted {len(self.trace)}")
        try:
            telemetry_attribution.verify_conservation(
                telemetry_attribution.attribute_run(run))
        except telemetry_attribution.ConservationError as error:
            failures.append(f"conservation: {error}")
        columns = [(float(np.nan if r.first_token_time_s is None
                          else r.first_token_time_s),
                    float(np.nan if r.finish_time_s is None
                          else r.finish_time_s))
                   for r in run.requests]
        columns.append((float(result.goodput_tokens_per_s),))
        out = {
            "sim_goodput_tokens_per_s": result.goodput_tokens_per_s,
            "sim_completed_frac": result.num_completed / len(self.trace),
            "requests": len(self.trace),
            "rejected": result.num_rejected,
            "preemptions": result.num_preemptions,
            "swap_outs": result.num_swap_outs,
            "prefix_hits": result.num_prefix_hits,
            "prefix_hit_rate": result.prefix_hit_rate,
            "cow_blocks": result.num_cow_blocks,
            "tbt_total": result.tbt.count,
            "rebalances": 0,
            "migrated_requests": 0,
            "fingerprint": _digest(columns),
            "failures": failures,
        }
        out.update(_sim_metrics([result]))
        return out


class ClusterScenario:
    """A recorded closed-loop cluster run plus its exports and attribution."""

    name = "cluster_rebalance"

    def __init__(self, cluster: ClusterEngine, offered: int, out_dir: str):
        self.cluster = cluster
        self.offered = offered
        self.jsonl_path = os.path.join(out_dir, "cluster.jsonl")
        self.perfetto_path = os.path.join(out_dir, "cluster.perfetto.json")
        self.record = None
        self.jsonl_lines = 0

    def serve(self):
        recorder = TraceRecorder()
        result = self.cluster.run(rebalance="epoch", epoch_s=CLUSTER_EPOCH_S,
                                  migration="live", telemetry=recorder)
        telemetry_export.write_perfetto(recorder, self.perfetto_path)
        self.jsonl_lines = telemetry_export.write_jsonl(recorder, self.jsonl_path)
        telemetry_attribution.attribute_trace(
            telemetry_export.iter_scope_events(recorder))
        self.record = recorder
        return result

    def outcome(self, result) -> Dict[str, object]:
        failures: List[str] = []
        tenants = list(result.tenant_results.values())
        done = sum(r.num_completed + r.num_rejected for r in tenants)
        if done != self.offered:
            failures.append(f"completed + rejected {done} != attempted "
                            f"{self.offered}")
        recorded = sum(len(scope.events) for scope in self.record.scopes)
        read_back = len(read_jsonl(self.jsonl_path))
        if not recorded == self.jsonl_lines == read_back:
            failures.append(f"read_jsonl returned {read_back} events, "
                            f"{recorded} recorded, {self.jsonl_lines} written")
        marks = [(scope.name, event.name, event.request_id, event.ts_s)
                 for scope in self.record.scopes for event in scope.events
                 if event.name in ("request.first_token", "request.finished")]
        marks.append((float(result.aggregate_goodput_tokens_per_s),))
        out = {
            "sim_goodput_tokens_per_s": result.aggregate_goodput_tokens_per_s,
            "sim_completed_frac": sum(r.num_completed for r in tenants)
            / self.offered,
            "requests": self.offered,
            "rejected": sum(r.num_rejected for r in tenants),
            "preemptions": sum(r.num_preemptions for r in tenants),
            "swap_outs": sum(r.num_swap_outs for r in tenants),
            "prefix_hits": sum(r.num_prefix_hits for r in tenants),
            "prefix_hit_rate": 0.0,
            "cow_blocks": sum(r.num_cow_blocks for r in tenants),
            "tbt_total": sum(r.tbt.count for r in tenants),
            "rebalances": result.num_rebalances,
            "migrated_requests": result.num_migrated_requests,
            "events": recorded,
            "export_bytes": (os.path.getsize(self.jsonl_path)
                             + os.path.getsize(self.perfetto_path)),
            "fingerprint": _digest(marks),
            "failures": failures,
        }
        out.update(_sim_metrics(tenants))
        return out


def shape_failures(name: str, outcome: Dict[str, object]) -> List[str]:
    """Workload-shape guards: the layer split must not drift silently."""
    failures = []
    if outcome["ttft_samples"] < MIN_PERCENTILE_SAMPLES:
        failures.append(f"only {outcome['ttft_samples']} TTFT samples for p99")
    if name == "offline_decode" and outcome["tbt_total"] < OFFLINE_MIN_TBT_SAMPLES:
        failures.append(f"only {outcome['tbt_total']} TBT samples")
    if name == "prefix_pressure" and not (
            outcome["preemptions"] > 0 and outcome["prefix_hits"] > 0):
        failures.append("no preemptions or no prefix hits")
    if name == "cluster_rebalance" and not (
            outcome["rebalances"] >= 1 and outcome["migrated_requests"] >= 1):
        failures.append("no applied rebalance or no live migration")
    return failures


# ---------------------------------------------------------------- builders
# Inputs first (timed as workload generation by the traced run), then the
# objects a user constructs.

def _stream_seeds(seed: int, count: int) -> List[int]:
    """Independent generator seeds per input stream: seeds ``n`` and ``n+1``
    share no stream, so consecutive benchmark seeds are not correlated."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def generate(name: str, seed: int):
    if name == "offline_decode":
        lengths, arrivals = _stream_seeds(seed, 2)
        queries = workload_queries.sharegpt_like_queries(
            OFFLINE_REQUESTS, seed=lengths, mean_prompt_tokens=96.0,
            mean_decode_tokens=1536.0, sigma=0.4, max_context=2048)
        return workload_queries.with_arrivals(
            queries, workload_queries.poisson_arrivals(
                OFFLINE_REQUESTS, OFFLINE_RATE_QPS, seed=arrivals))
    if name == "prefix_pressure":
        lengths, arrivals = _stream_seeds(seed, 2)
        queries = workload_queries.prefix_reuse_queries(
            PREFIX_REQUESTS, num_tenants=8, reuse_fraction=0.8,
            mean_prefix_tokens=512.0, sigma=PREFIX_LENGTH_SIGMA,
            tenant_skew=PREFIX_TENANT_SKEW, seed=lengths,
            max_context=LLAMA2_7B.max_context)
        return workload_queries.with_arrivals(
            queries, workload_queries.poisson_arrivals(
                PREFIX_REQUESTS, PREFIX_RATE_QPS, seed=arrivals))
    if name == "cluster_rebalance":
        streams = _stream_seeds(seed, 4)
        traces = []
        for index, start_s in enumerate((0.0, CLUSTER_LATE_START_S)):
            queries = workload_queries.sharegpt_like_queries(
                CLUSTER_REQUESTS_PER_TENANT, seed=streams[index],
                sigma=CLUSTER_LENGTH_SIGMA)
            traces.append(workload_queries.with_arrivals(
                queries, workload_queries.poisson_arrivals(
                    CLUSTER_REQUESTS_PER_TENANT, CLUSTER_RATE_QPS,
                    seed=streams[2 + index], start_s=start_s)))
        return traces
    raise ValueError(f"unknown workload {name!r}")


def construct(name: str, inputs, out_dir: str
              ) -> Union[SingleReplica, ClusterScenario]:
    if name == "offline_decode":
        system = CentSystem(CentConfig(num_devices=OFFLINE_DEVICES), LLAMA2_7B)
        return SingleReplica(name, ServingEngine(system), inputs, OFFLINE_SLA_S)
    if name == "prefix_pressure":
        profile = ModelMemoryProfile(LLAMA2_7B)
        capacity = int(profile.parameter_bytes + PREFIX_KV_CONTEXTS
                       * profile.kv_cache_bytes_per_query(LLAMA2_7B.max_context))
        system = CentSystem(CentConfig(num_devices=PREFIX_DEVICES), LLAMA2_7B)
        engine = ServingEngine(system, admission="paged",
                               memory_capacity_bytes=capacity)
        return SingleReplica(name, engine, inputs, PREFIX_SLA_S)
    if name == "cluster_rebalance":
        tenants = [TenantSpec(label, model=LLAMA2_7B, sla_latency_s=CLUSTER_SLA_S,
                              trace=trace)
                   for label, trace in zip(("early", "late"), inputs, strict=True)]
        cluster = ClusterEngine(
            CentConfig(num_devices=CLUSTER_DEVICES), tenants,
            context_step=CLUSTER_CONTEXT_STEP, admission="paged")
        return ClusterScenario(cluster, sum(len(t) for t in inputs), out_dir)
    raise ValueError(f"unknown workload {name!r}")
