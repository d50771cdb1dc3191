"""High-level facade of the CENT system.

``CentSystem`` ties a :class:`~repro.core.config.CentConfig` to one model:
it validates capacity, chooses (or accepts) a parallelisation plan, runs the
inference simulation, and annotates the result with the activity-based power
and energy estimates.  This is the main entry point of the library::

    from repro import CentSystem, CentConfig, LLAMA2_70B

    system = CentSystem(CentConfig(num_devices=32), LLAMA2_70B)
    result = system.run_inference(prompt_tokens=512, decode_tokens=3584)
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CentConfig
from repro.core.inference import InferenceSimulator
from repro.core.performance import PerformanceModel
from repro.core.results import InferenceResult, LatencyBreakdown
from repro.mapping.parallelism import ParallelismPlan
from repro.mapping.planner import plan_for_latency, plan_for_throughput
from repro.models.config import ModelConfig

__all__ = ["CentSystem"]


class CentSystem:
    """A CENT deployment: CXL devices, a model, and a parallelisation plan."""

    def __init__(self, config: CentConfig, model: ModelConfig) -> None:
        self.config = config
        self.model = model
        self.performance = PerformanceModel(config)
        self.simulator = InferenceSimulator(config, self.performance)

    # ------------------------------------------------------------------ planning

    def throughput_plan(self, context_length: Optional[int] = None) -> ParallelismPlan:
        """Pipeline-parallel (plus data-parallel) plan maximising throughput."""
        return plan_for_throughput(
            self.model,
            self.config.num_devices,
            channels_per_device=self.config.channels_per_device,
            context_length=context_length,
        )

    def latency_plan(self, context_length: Optional[int] = None) -> ParallelismPlan:
        """Tensor-parallel plan minimising single-query latency."""
        return plan_for_latency(
            self.model,
            self.config.num_devices,
            channels_per_device=self.config.channels_per_device,
            context_length=context_length,
        )

    # ------------------------------------------------------------------ inference

    def run_inference(
        self,
        prompt_tokens: int,
        decode_tokens: int,
        plan: Optional[ParallelismPlan] = None,
        with_power: bool = True,
    ) -> InferenceResult:
        """Simulate serving a batch of identical queries.

        When ``plan`` is omitted the throughput-optimised plan is used, which
        matches the paper's main (throughput-critical) configuration.
        """
        if plan is None:
            plan = self.throughput_plan(context_length=prompt_tokens + decode_tokens)
        result = self.simulator.simulate(self.model, plan, prompt_tokens, decode_tokens)
        if with_power:
            self._annotate_power(result, plan, prompt_tokens, decode_tokens)
        return result

    def token_breakdown(
        self,
        plan: ParallelismPlan,
        context_length: int,
    ) -> LatencyBreakdown:
        """Per-token latency breakdown (Figure 14c)."""
        return self.performance.token_breakdown(self.model, plan, context_length)

    # ------------------------------------------------------------------ serving

    def serve(self, trace, plan: Optional[ParallelismPlan] = None,
              *, sla_latency_s: Optional[float] = None, **engine_kwargs):
        """Serve a timed query trace with event-driven continuous batching.

        Convenience wrapper over :class:`repro.serving.ServingEngine`; the
        engine shares this system's performance model (and its bounded
        block-cost cache), so repeated serving runs reuse block simulations.
        Returns a :class:`~repro.core.results.ServingResult`.
        """
        # Imported here: repro.serving builds on repro.core.system.
        from repro.serving.engine import ServingEngine

        engine = ServingEngine(self, plan, **engine_kwargs)
        return engine.run(trace, sla_latency_s=sla_latency_s)

    def serve_cluster(
        self,
        tenants,
        *,
        placement_policy: str = "proportional",
        rebalance: str = "off",
        epoch_s=None,
        migration=None,
        control=None,
        telemetry=None,
        slo_monitor=None,
        **cluster_kwargs,
    ):
        """Serve several tenants' traces on this system's device pool.

        Partitions ``config.num_devices`` into one replica per tenant spec
        with :class:`repro.cluster.ClusterEngine`; tenants
        whose spec carries no model serve this system's model.  Returns a
        :class:`~repro.core.results.ClusterResult` with one
        :class:`~repro.core.results.ServingResult` per tenant plus
        pool-level goodput, fairness and utilisation.

        ``rebalance="epoch"`` (or an explicit
        :class:`~repro.cluster.control.ControlConfig` via ``control``) runs
        the closed loop: epoch-segmented serving with observed-demand
        re-placement.  The default ``"off"``
        is the open loop, the same control loop run as one unbounded
        window; ``epoch_s`` and ``migration`` are refused there.
        ``migration`` selects what happens to a dismantled replica's
        in-flight requests on re-placement: ``"live"`` (default) swaps
        their KV through host memory so they resume at their original
        progress, ``"restart"`` re-runs them.  ``telemetry`` and
        ``slo_monitor`` are :meth:`ClusterEngine.run
        <repro.cluster.ClusterEngine.run>`'s; every other keyword goes to
        the :class:`~repro.cluster.ClusterEngine` constructor.
        """
        # Imported here: repro.cluster builds on repro.core.system.
        from repro.cluster.engine import ClusterEngine

        engine = ClusterEngine(
            self.config,
            tenants,
            default_model=self.model,
            placement_policy=placement_policy,
            **cluster_kwargs,
        )
        return engine.run(rebalance=rebalance, epoch_s=epoch_s,
                          migration=migration, control=control,
                          telemetry=telemetry, slo_monitor=slo_monitor)

    # ------------------------------------------------------------------ capacity

    @property
    def memory_capacity_bytes(self) -> int:
        return self.config.memory_capacity_bytes

    @property
    def peak_internal_bandwidth_tbps(self) -> float:
        return self.config.peak_internal_bandwidth_tbps

    @property
    def peak_pim_tflops(self) -> float:
        return self.config.peak_pim_tflops

    # ------------------------------------------------------------------ power

    def _annotate_power(
        self,
        result: InferenceResult,
        plan: ParallelismPlan,
        prompt_tokens: int,
        decode_tokens: int,
    ) -> None:
        # Imported here to keep repro.power free of core dependencies at
        # module-import time for users who only need the power models.
        from repro.power.cent_power import CentPowerModel

        power_model = CentPowerModel(self.config)
        decode = self.simulator.decode_phase(self.model, plan, prompt_tokens, decode_tokens)
        report = power_model.system_power(
            model=self.model,
            plan=plan,
            block_cost=decode.mean_block_cost,
        )
        result.average_power_w = report.total_w
        if result.decode_throughput_tokens_per_s > 0:
            result.energy_per_token_j = report.total_w / result.decode_throughput_tokens_per_s
