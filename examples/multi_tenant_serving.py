#!/usr/bin/env python3
"""Multi-tenant serving: two models share one CXL-PIM device pool.

An interactive Llama2-7B chat tenant and an offline Llama2-13B batch tenant
share a 16-device pool.  The cluster layer gives each tenant one replica
on its own slice of the pool's devices (``sla_aware`` placement gives the
tight-SLO, high-priority chat tenant headroom), sends every arriving request
to its tenant's replica, and serves each replica with the unmodified
continuous-batching engine.  Reported per
tenant: SLA goodput against that tenant's own latency SLO; reported for the
pool: aggregate goodput, max-min fairness, Jain's index and utilisation.

Run with::

    python examples/multi_tenant_serving.py
"""

from repro import CentConfig, ClusterEngine, LLAMA2_7B, LLAMA2_13B, SlaClass, TenantSpec
from repro.workloads import (
    bursty_arrivals,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)

POOL_DEVICES = 16
CHAT_QUERIES = 80
BATCH_QUERIES = 16


def build_tenants():
    chat_rate_qps = 8.0     # open, user-facing traffic
    batch_rate_qps = 0.5    # background summarisation jobs
    chat = TenantSpec(
        "chat-7b",
        model=LLAMA2_7B,
        trace=with_arrivals(
            sharegpt_like_queries(CHAT_QUERIES, seed=11),
            bursty_arrivals(CHAT_QUERIES, chat_rate_qps, burstiness=4.0, seed=11),
        ),
        sla_class=SlaClass.INTERACTIVE,
        priority=2.0,
    )
    batch = TenantSpec(
        "batch-13b",
        model=LLAMA2_13B,
        trace=with_arrivals(
            sharegpt_like_queries(BATCH_QUERIES, seed=23,
                                  mean_prompt_tokens=400.0, mean_decode_tokens=600.0),
            poisson_arrivals(BATCH_QUERIES, batch_rate_qps, seed=23),
        ),
        sla_class=SlaClass.BATCH,
    )
    return [chat, batch]


def report(result) -> None:
    print(f"placement={result.placement_policy}  "
          f"devices used {result.devices_used}/{result.pool_devices}")
    for name, tenant in result.tenant_results.items():
        frac = result.tenant_goodput_fractions[name]
        print(f"  {name:10s} devices={result.tenant_devices[name]:2d}  "
              f"completed {tenant.num_completed}/{tenant.num_requests}  "
              f"TTFT p99 {tenant.ttft.p99_s:6.2f} s  "
              f"latency p99 {tenant.query_latency.p99_s:6.2f} s  "
              f"goodput {tenant.goodput_tokens_per_s:7.1f} tok/s "
              f"({100 * frac:.1f}% of offered tokens within the "
              f"{tenant.sla_latency_s:.0f} s SLA)")
    print(f"  pool: aggregate goodput {result.aggregate_goodput_tokens_per_s:,.0f} tok/s, "
          f"max-min fairness {result.max_min_goodput_ratio:.3f}, "
          f"Jain index {result.jain_fairness_index:.3f}, "
          f"utilisation {100 * result.pool_utilization:.1f}%\n")


def main() -> None:
    # One ClusterEngine for the whole sweep: the placement-policy override
    # on run() keeps the policy-independent capability probes cached across
    # policies (CentSystem.serve_cluster is the one-shot convenience path).
    engine = ClusterEngine(
        CentConfig(num_devices=POOL_DEVICES, context_samples=3),
        build_tenants(),
        context_step=512,
    )
    for placement in ("static", "sla_aware"):
        report(engine.run(placement_policy=placement))


if __name__ == "__main__":
    main()
