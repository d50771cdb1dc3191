"""CENT: a CXL-enabled, GPU-free PIM system simulator for LLM inference.

This package reproduces the system described in the ASPLOS 2025 paper
"PIM Is All You Need: A CXL-Enabled GPU-Free System for Large Language Model
Inference".  It provides:

* a GDDR6-PIM timing substrate (``repro.dram``, ``repro.pim``),
* processing-near-memory units and a shared buffer (``repro.pnm``),
* a CXL 3.0 network model with collective primitives (``repro.cxl``),
* the CENT ISA and a compiler from LLM operations to instruction traces
  (``repro.isa``, ``repro.compiler``),
* model configurations and parallelisation mappings (``repro.models``,
  ``repro.mapping``),
* the end-to-end CENT system and performance model (``repro.core``),
* power, energy and total-cost-of-ownership models (``repro.power``,
  ``repro.cost``),
* GPU and PIM/PNM baselines (``repro.baselines``),
* an event-driven serving engine with request arrival processes,
  KV-capacity-aware admission and vLLM-style continuous batching
  (``repro.serving``, ``repro.workloads``),
* a paged KV-cache manager with block-granular allocation and
  preemption-aware serving — least-recently-used victim selection
  with CXL-priced swap or recompute restore (``repro.kvstore``, enabled
  through ``ServingEngine(..., admission="paged")``),
* multi-tenant cluster serving that shards one device pool across models
  and traffic classes, one replica per tenant, with placement policies and
  closed-loop re-placement (``repro.cluster``), and
* the evaluation harness regenerating the paper's tables and figures
  (``repro.evaluation``), including serving-mode QoS and multi-tenant
  studies, and
* a unified telemetry layer — request-lifecycle tracing, a metrics
  registry, and Chrome/Perfetto trace export across the serving stack
  (``repro.telemetry``; pass ``telemetry=TraceRecorder()`` to
  ``ServingEngine.simulate`` or ``ClusterEngine.run``, then inspect the
  trace with ``python -m repro.telemetry``).

Quickstart (static batch, the paper's evaluation shape)::

    from repro import CentSystem, CentConfig, LLAMA2_7B

    system = CentSystem(CentConfig(num_devices=8), LLAMA2_7B)
    result = system.run_inference(prompt_tokens=512, decode_tokens=512)
    print(result.decode_throughput_tokens_per_s)

Quickstart (trace-driven serving; see ``examples/online_serving.py``)::

    from repro import ServingEngine
    from repro.workloads import poisson_arrivals, sharegpt_like_queries, with_arrivals

    trace = with_arrivals(sharegpt_like_queries(200),
                          poisson_arrivals(200, rate_qps=0.5))
    result = ServingEngine(system).run(trace, sla_latency_s=60.0)
    print(result.ttft.p99_s, result.tbt.p50_s, result.goodput_tokens_per_s)

Quickstart (multi-tenant cluster; see ``examples/multi_tenant_serving.py``)::

    from repro import SlaClass, TenantSpec

    chat = TenantSpec("chat", sla_class=SlaClass.INTERACTIVE, trace=trace)
    batch = TenantSpec("batch", sla_class=SlaClass.BATCH, trace=trace)
    cluster = system.serve_cluster([chat, batch], placement_policy="sla_aware")
    print(cluster.aggregate_goodput_tokens_per_s, cluster.max_min_goodput_ratio)
"""

from repro.models.config import (
    LLAMA2_7B,
    LLAMA2_13B,
    LLAMA2_70B,
    OPT_66B,
    GPT3_175B,
    ModelConfig,
)
from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.core.results import (
    ClusterResult,
    InferenceResult,
    LatencyBreakdown,
    LatencyStats,
    ServingResult,
)
from repro.serving.engine import ServingEngine
from repro.kvstore import BlockPool, KvAllocator, PreemptionPolicy
from repro.cluster.tenant import SlaClass, TenantSpec
from repro.cluster.engine import ClusterEngine
from repro.mapping.parallelism import (
    DataParallel,
    HybridParallel,
    ParallelismPlan,
    PipelineParallel,
    TensorParallel,
)
from repro.baselines.gpu import GPUSystem, GPUConfig, A100_80GB
from repro.telemetry import TraceRecorder, write_jsonl, write_perfetto

__all__ = [
    "ModelConfig",
    "LLAMA2_7B",
    "LLAMA2_13B",
    "LLAMA2_70B",
    "OPT_66B",
    "GPT3_175B",
    "CentConfig",
    "CentSystem",
    "InferenceResult",
    "LatencyBreakdown",
    "LatencyStats",
    "ServingResult",
    "ServingEngine",
    "BlockPool",
    "KvAllocator",
    "PreemptionPolicy",
    "ClusterResult",
    "ClusterEngine",
    "TenantSpec",
    "SlaClass",
    "ParallelismPlan",
    "PipelineParallel",
    "TensorParallel",
    "HybridParallel",
    "DataParallel",
    "GPUSystem",
    "GPUConfig",
    "A100_80GB",
    "TraceRecorder",
    "write_jsonl",
    "write_perfetto",
]

__version__ = "1.0.0"
