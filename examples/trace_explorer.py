#!/usr/bin/env python3
"""Trace explorer: follow one live-migrated request through the cluster.

A deliberately stressful closed-loop scenario built to light up every
telemetry event family at once: two tenants of a small Llama-style model
share a 6-device pool with *phase-shifted* heavy bursts (``late`` fires
while ``early`` is still draining), paged admission runs under a KV
budget of only ~3 full contexts per replica (so the victim picker must
preempt), and the epoch controller re-places the pool mid-burst (so
in-flight requests live-migrate between replicas).

The script records the run with :class:`repro.telemetry.TraceRecorder`,
prints the trace overview, the epoch decision audit
(projected-gain-vs-stall arithmetic of every applied rebalance), the
longest preemption chains, and then walks one live-migrated request's
full lifecycle — queued on its source replica, preempted under KV
pressure, swapped out for migration, resumed at its original progress on
the rebuilt replica — following the ``cluster.migrate`` correlation
event across scopes.

It ends by exporting the trace twice::

    trace_explorer.perfetto.json   # chrome://tracing / ui.perfetto.dev
    trace_explorer.jsonl           # python -m repro.telemetry

Run with::

    python examples/trace_explorer.py [--out PREFIX]
"""

import argparse

from repro.cluster.engine import ClusterEngine
from repro.cluster.tenant import TenantSpec
from repro.core.config import CentConfig
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.telemetry import (
    TraceRecorder,
    attribution_table,
    epoch_audit,
    overview,
    preemption_chains,
    request_timeline,
    utilization_summary,
    write_jsonl,
    write_perfetto,
    write_report,
)
from repro.telemetry.export import iter_scope_events
from repro.workloads.queries import (
    bursty_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)

POOL_DEVICES = 6
QUERIES_PER_TENANT = 30
BURST_QPS = 400.0
#: KV budget per replica: weights + ~3 full 512-token contexts, so paged
#: admission oversubscribes immediately and the victim picker must work.
KV_CONTEXTS = 3.0

SMALL_MODEL = ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                          num_heads=16, num_kv_heads=4, d_ff=2816,
                          vocab_size=32000, max_context=2048)


def build_cluster() -> ClusterEngine:
    profile = ModelMemoryProfile(SMALL_MODEL)
    tight = int(profile.parameter_bytes
                + KV_CONTEXTS * profile.kv_cache_bytes_per_query(512))
    tenants = [
        TenantSpec("early", model=SMALL_MODEL, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(QUERIES_PER_TENANT, seed=5),
                       bursty_arrivals(QUERIES_PER_TENANT, BURST_QPS,
                                       seed=5))),
        TenantSpec("late", model=SMALL_MODEL, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(QUERIES_PER_TENANT, seed=6),
                       bursty_arrivals(QUERIES_PER_TENANT, BURST_QPS,
                                       seed=6, start_s=0.3))),
    ]
    return ClusterEngine(CentConfig(num_devices=POOL_DEVICES,
                                    context_samples=2),
                         tenants, context_step=512,
                         admission="paged", memory_capacity_bytes=tight)


def record_run():
    """Run the scenario under a fresh recorder; returns (recorder, result)."""
    recorder = TraceRecorder()
    result = build_cluster().run(rebalance="epoch", epoch_s=0.05,
                                 telemetry=recorder)
    return recorder, result


def banner(title: str) -> str:
    return f"\n=== {title} " + "=" * max(0, 66 - len(title))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PREFIX", default="trace_explorer",
                        help="output prefix for PREFIX.perfetto.json and "
                             "PREFIX.jsonl (default: trace_explorer)")
    cli = parser.parse_args()

    recorder, result = record_run()
    recorder.finalize()
    events = list(iter_scope_events(recorder))

    print(banner("trace overview"))
    print(overview(events))

    print(banner("epoch decision audit"))
    print(epoch_audit(events))

    print(banner("preemption chains"))
    print(preemption_chains(events))

    migrations = [e for e in events if e["name"] == "cluster.migrate"
                  and e["args"]["mode"] == "live" and e["args"]["accepted"]]
    print(banner("one migrated request, end to end"))
    if migrations:
        first = min(migrations, key=lambda e: e["ts_s"])
        print(f"following request {first['args']['source_request']} "
              f"of scope {first['args']['source_scope']} "
              f"({len(migrations)} live migrations recorded, "
              f"{result.num_rebalances} re-placements applied):\n")
        print(request_timeline(events, first["args"]["source_request"],
                               scope=first["args"]["source_scope"]))
    else:
        print("no live migrations this run — re-tune the burst phase shift")

    print(banner("where did the time go (attribution)"))
    print(attribution_table(events, top=10))

    print(banner("utilization accounting"))
    print(utilization_summary(events))

    print(banner("SLO alert log"))
    if result.alert_log:
        print(f"{len(result.alert_log)} alerts "
              f"({len(result.alert_log.active)} still active at end of run):")
        print(result.alert_log.describe())
    else:
        print("no alerts fired — the stock rules found this run healthy")

    perfetto = write_perfetto(recorder, f"{cli.out}.perfetto.json")
    lines = write_jsonl(recorder, f"{cli.out}.jsonl")
    report = write_report(f"{cli.out}.report.html", events, result=result,
                          title="trace_explorer")
    print(banner("exports"))
    print(f"{perfetto} Perfetto events -> {cli.out}.perfetto.json "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    print(f"{lines} records -> {cli.out}.jsonl "
          f"(inspect with python -m repro.telemetry {cli.out}.jsonl)")
    print(f"HTML report -> {report}")


if __name__ == "__main__":
    main()
