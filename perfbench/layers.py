"""Layer entry points the traced run wraps, and the per-layer metrics.

Every wrapped callable is a public entry point of one ``src/repro`` layer,
patched at class or module level from here; nothing under ``src/`` knows
about tracing.  A module-level function is patched in every module that
imported it by name, because those modules hold their own reference.

Span names are ``<layer>.<entry>``; :func:`layer_metrics` folds the spans
under one serve call into the ``per_layer`` metrics of ``BENCHMARK.json``,
which sets their units and report order.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import Span, SpanRecorder, descendants, self_times

#: (module, class or None, attribute, span name).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.system", "CentSystem", "throughput_plan", "mapping.plan"),
    ("repro.core.performance", "PerformanceModel", "block_cost", "core.block_cost"),
    ("repro.core.performance", None, "compile_transformer_block", "compiler.compile"),
    ("repro.pim.channel", "PIMChannel", "execute_program", "pim.execute"),
    ("repro.serving.engine", "ServingEngine", "begin", "serving.begin"),
    ("repro.serving.engine", "ServingEngine", "advance", "serving.advance"),
    ("repro.serving.engine", "ServingEngine", "estimated_capacity_qps",
     "serving.capacity_probe"),
    ("repro.serving.engine", "ServingEngine", "migrate_out", "serving.migrate"),
    ("repro.serving.engine", "ServingEngine", "migrate_in", "serving.migrate"),
    ("repro.kvstore.allocator", "KvAllocator", "allocate", "kvstore.allocate"),
    ("repro.kvstore.allocator", "KvAllocator", "grow", "kvstore.grow"),
    ("repro.kvstore.allocator", "KvAllocator", "grow_many", "kvstore.grow"),
    ("repro.kvstore.preemption", "PreemptionPolicy", "select_victim",
     "kvstore.evict_select"),
    ("repro.kvstore.preemption", "PreemptionPolicy", "select_eviction",
     "kvstore.evict_select"),
    ("repro.cluster.engine", "ClusterEngine", "run", "cluster.run"),
    ("repro.cluster.placement", "ClusterPlacer", "place", "cluster.place"),
    ("repro.cluster.scheduler", "ClusterScheduler", "route_window",
     "cluster.route_window"),
    ("repro.cluster.control", "RebalancePolicy", "decide", "cluster.decide"),
    ("repro.serving.metrics", None, "aggregate_serving_result", "results.aggregate"),
    ("repro.serving.engine", None, "aggregate_serving_result", "results.aggregate"),
    ("repro.cluster.engine", None, "aggregate_serving_result", "results.aggregate"),
    ("repro.cluster.control", None, "aggregate_serving_result", "results.aggregate"),
    ("repro.telemetry.export", None, "write_perfetto", "telemetry.export"),
    ("repro.telemetry.export", None, "write_jsonl", "telemetry.export"),
    ("repro.telemetry.attribution", None, "attribute_trace", "telemetry.attribution"),
    ("repro.telemetry.slo", "SloMonitor", "observe", "telemetry.slo_observe"),
)

#: Span of the benchmark's own serve call; its self time is unattributed.
SERVE_SPAN = "bench.serve"

#: Layers whose self time the warm run reports.
WARM_LAYERS = ("mapping", "core", "compiler", "pim", "serving", "kvstore",
               "cluster", "results", "telemetry")

def _wrap(function: Callable, name: str, recorder: SpanRecorder) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            recorder.close(index, refused=result is False)
    return traced


@contextlib.contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Install span wrappers on every entry point; restore them on exit."""
    saved = []
    try:
        for module_name, class_name, attribute, span_name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(original, span_name, recorder))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class SpanTable:
    """Calls, inclusive and self time per span name under one root span."""

    def __init__(self, spans: Sequence[Span], parents: Sequence[Optional[int]],
                 root: int) -> None:
        selfs = self_times(spans, parents)
        self.calls: Dict[str, int] = {}
        self.refused: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        for index in descendants(parents, root):
            span = spans[index]
            name = span.name
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[index] / 1e9
            parent = parents[index]
            if parent is not None and spans[parent].name == name:
                # An entry point calling its sibling entry point (e.g.
                # select_eviction -> select_victim) is one call into the layer.
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.refused[name] = self.refused.get(name, 0) + span.refused
            self.inclusive_s[name] = (self.inclusive_s.get(name, 0.0)
                                      + span.duration_ns / 1e9)
        self.wall_s = spans[root].duration_ns / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(seconds for name, seconds in self.self_s.items()
                   if name.split(".")[0] == layer)


def layer_metrics(cold: SpanTable, warm: SpanTable, *, generate_s: float,
                  outcome: Dict[str, object], overhead_frac: float
                  ) -> Dict[str, float]:
    """Fold the cold and warm span tables into the per-layer metrics.

    Unsuffixed metrics describe the cold serve call (the first in the
    process, which exercises every layer); ``warm.*`` the repeated call.
    A layer the workload never calls reports 0.
    """
    calls, incl, own = cold.calls.get, cold.inclusive_s.get, cold.self_s.get
    block_calls = calls("core.block_cost", 0)
    sims = calls("compiler.compile", 0)
    allocations = calls("kvstore.allocate", 0)
    decides = calls("cluster.decide", 0)
    values = {
        "workloads.generate_s": generate_s,
        "mapping.plan_calls": calls("mapping.plan", 0),
        "mapping.plan_s": incl("mapping.plan", 0.0),
        "core.block_cost_calls": block_calls,
        "core.block_cost_s": incl("core.block_cost", 0.0),
        "core.block_sims": sims,
        "core.block_hit_frac": 1.0 - sims / block_calls if block_calls else 0.0,
        "compiler.compile_s": incl("compiler.compile", 0.0),
        "pim.programs": calls("pim.execute", 0),
        "pim.execute_s": incl("pim.execute", 0.0),
        "serving.advance_calls": calls("serving.advance", 0),
        "serving.advance_self_s": own("serving.advance", 0.0),
        "serving.begin_s": incl("serving.begin", 0.0),
        "serving.capacity_probe_calls": calls("serving.capacity_probe", 0),
        "serving.capacity_probe_s": incl("serving.capacity_probe", 0.0),
        "serving.migrate_calls": calls("serving.migrate", 0),
        "serving.migrate_s": incl("serving.migrate", 0.0),
        "serving.requests": outcome["requests"],
        "serving.rejected": outcome["rejected"],
        "kvstore.allocate_calls": allocations,
        "kvstore.admit_frac": (1.0 - cold.refused.get("kvstore.allocate", 0)
                               / allocations if allocations else 0.0),
        "kvstore.grow_calls": calls("kvstore.grow", 0),
        "kvstore.grow_s": incl("kvstore.grow", 0.0),
        "kvstore.evict_select_calls": calls("kvstore.evict_select", 0),
        "kvstore.evict_select_s": incl("kvstore.evict_select", 0.0),
        "kvstore.self_s": cold.layer_self_s("kvstore"),
        "kvstore.preemptions": outcome["preemptions"],
        "kvstore.swap_outs": outcome["swap_outs"],
        "kvstore.prefix_hit_rate": outcome["prefix_hit_rate"],
        "kvstore.cow_blocks": outcome["cow_blocks"],
        "cluster.place_calls": calls("cluster.place", 0),
        "cluster.place_s": incl("cluster.place", 0.0),
        "cluster.route_window_calls": calls("cluster.route_window", 0),
        "cluster.route_window_s": incl("cluster.route_window", 0.0),
        "cluster.decide_calls": decides,
        "cluster.decide_s": incl("cluster.decide", 0.0),
        "cluster.rebalances": outcome["rebalances"],
        "cluster.rebalance_applied_frac": (outcome["rebalances"] / decides
                                           if decides else 0.0),
        "cluster.migrated_requests": outcome["migrated_requests"],
        "cluster.control_self_s": own("cluster.run", 0.0),
        "results.aggregate_calls": calls("results.aggregate", 0),
        "results.aggregate_s": incl("results.aggregate", 0.0),
        "results.tbt_samples": outcome["tbt_total"],
        "results.tbt_mib": outcome["tbt_total"] * 8 / 2**20,
        "telemetry.events": outcome.get("events", 0),
        "telemetry.export_s": incl("telemetry.export", 0.0),
        "telemetry.export_mib": outcome.get("export_bytes", 0) / 2**20,
        "telemetry.attribution_s": incl("telemetry.attribution", 0.0),
        "telemetry.slo_observe_s": incl("telemetry.slo_observe", 0.0),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": own(SERVE_SPAN, 0.0) / cold.wall_s,
        "warm.unattributed_s": warm.self_s.get(SERVE_SPAN, 0.0),
        "warm.mapping.plan_calls": warm.calls.get("mapping.plan", 0),
        "warm.core.block_sims": warm.calls.get("compiler.compile", 0),
        "warm.pim.programs": warm.calls.get("pim.execute", 0),
        "warm.serving.capacity_probe_calls": warm.calls.get(
            "serving.capacity_probe", 0),
    }
    for layer in WARM_LAYERS:
        values[f"warm.{layer}.self_s"] = warm.layer_self_s(layer)
    return values


def kv_store_calls(table: SpanTable) -> int:
    return sum(count for span, count in table.calls.items()
               if span.startswith("kvstore."))


def layer_predictions(name: str, cold: SpanTable, warm: SpanTable,
                      unattributed_frac: float) -> List[Tuple[str, bool]]:
    """The predicted layer placement, as (statement, holds) pairs.

    Printed by the traced run, never gated: a change that moves work
    between layers on purpose must not read as a wrong answer.
    """
    single = name != "cluster_rebalance"
    predictions = [
        ("block simulations only in the cold run",
         warm.calls.get("compiler.compile", 0) == 0),
        ("cluster.* and telemetry.* only on cluster_rebalance",
         single != any(span.startswith(("cluster.", "telemetry."))
                       for span in cold.calls)),
        ("trace.unattributed_frac under 0.1", unattributed_frac < 0.1),
    ]
    if name == "offline_decode":
        outside_serving = {layer: warm.layer_self_s(layer)
                           for layer in WARM_LAYERS if layer != "serving"}
        predictions.append((
            "results has the largest warm self time outside serving",
            max(outside_serving, key=outside_serving.get) == "results"))
    return predictions
