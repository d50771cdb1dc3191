"""Performance model: compiled block programs to latency and activity.

The model walks the steps of one transformer block (model, channel
assignment, context length), executes every operation's per-channel
instruction stream on a :class:`~repro.pim.channel.PIMChannel` timing
substrate, adds the PNM accelerator / RISC-V latencies and the CXL
communication of the chosen parallelisation plan, and caches the result.
Inference-level aggregation (prefill / decoding phases, pipelining,
throughput) lives in ``repro.core.inference``.

Two cache levels sit under :meth:`PerformanceModel.block_cost`:

* a per-instance LRU of simulated blocks, keyed by (model, context, channel
  assignment) and bounded by ``CentConfig.block_cache_entries``;
* the process-wide :data:`PROGRAM_MEMO` beneath the block simulation.  A
  block is one list of :class:`~repro.compiler.operations.BlockStep`
  descriptors (:func:`~repro.compiler.transformer.block_steps`, the list
  :func:`compile_transformer_block` compiles).  The memo key is a step's
  compile inputs: its compile function and arguments (not its label), the
  row its ``ChannelAllocator`` stands at, timing and geometry.  Every
  operation runs on a fresh channel, so those inputs fix everything the
  block folds.  An entry (:class:`StepCost`) holds, per operation of the
  step, the :class:`ProgramOutcome` its program leaves on a fresh channel
  and the flops, DRAM bytes and PNM tasks it contributes, plus how many
  rows the step advanced its allocator.  An entry never holds an
  instruction list.  A step is compiled and executed only on a miss; a hit
  costs one dict lookup, in every ``CentSystem`` of the process.  The memo
  holds at most :data:`PROGRAM_MEMO_ENTRIES` entries of under a kilobyte
  each.

Block costs are bit-identical with and without either cache: the block
folds the stored outcomes in operation order.  ``compile_transformer_block``
stays importable from this module for callers that instrument block
compilation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.compiler.allocator import ChannelAllocator
from repro.compiler.operations import BlockStep, PnmTask, PnmUnit
from repro.compiler.transformer import block_steps, compile_transformer_block
from repro.core.config import CentConfig
from repro.core.results import LatencyBreakdown
from repro.cxl.primitives import broadcast, gather, multicast, send_receive
from repro.dram.commands import CommandType
from repro.dram.geometry import ChannelGeometry
from repro.dram.timing import TimingParameters
from repro.mapping.parallelism import ParallelismPlan
from repro.models.config import ModelConfig
from repro.pim.channel import PIMChannel
from repro.pnm.accelerators import PnmLatencyModel
from repro.pnm.riscv import RiscvCluster

__all__ = ["BlockCost", "PerformanceModel", "ProgramMemo", "ProgramOutcome",
           "OperationCost", "StepCost", "PROGRAM_MEMO", "PROGRAM_MEMO_ENTRIES",
           "compile_transformer_block"]

#: Bound on the process-wide program memo.  An entry is a few outcomes of a
#: handful of counters each, so a full memo stays within a few MiB.
PROGRAM_MEMO_ENTRIES = 4096


@dataclass
class BlockCost:
    """Latency and activity of one transformer block for one token."""

    breakdown: LatencyBreakdown
    command_counts_per_channel: Dict[CommandType, int] = field(default_factory=dict)
    fc_channels: int = 1
    attention_channels: int = 1
    dram_bytes_read: int = 0
    flops: int = 0

    def total_command_counts(self) -> Dict[CommandType, int]:
        """Command counts scaled to all channels executing the block.

        The per-channel stream is representative of every channel assigned to
        the block, so total activity is the per-channel count times the
        channel count (using the FC channel count, which carries almost all
        of the traffic).
        """
        return {kind: count * self.fc_channels
                for kind, count in self.command_counts_per_channel.items()}


@dataclass(frozen=True)
class ProgramOutcome:
    """What one operation's program leaves on a fresh PIM channel."""

    busy_until_ns: float
    global_buffer_writes: int
    shared_buffer_transfers: int
    command_counts: Tuple[Tuple[CommandType, int], ...]

    @classmethod
    def of(cls, channel: PIMChannel) -> "ProgramOutcome":
        """The outcome ``channel`` holds after running one program."""
        return cls(
            busy_until_ns=channel.busy_until_ns,
            global_buffer_writes=channel.stats.global_buffer_writes,
            shared_buffer_transfers=channel.stats.shared_buffer_transfers,
            command_counts=tuple(channel.dram.stats.counts.items()),
        )


@dataclass(frozen=True)
class OperationCost:
    """What one compiled operation contributes to its block.

    ``outcome`` is None for an operation without a PIM program."""

    outcome: Optional[ProgramOutcome]
    flops: int
    dram_bytes_read: int
    pnm_tasks: Tuple[PnmTask, ...]


@dataclass(frozen=True)
class StepCost:
    """A memo entry: the costs of one block step's operations, in order,
    and the rows the step advanced its allocator by."""

    operations: Tuple[OperationCost, ...]
    allocated_rows: int


class ProgramMemo:
    """Bounded LRU of :class:`StepCost` keyed by compile inputs.

    The key is (step, allocator row, timing, geometry): two lookups share an
    entry only if compiling the step would produce the same programs and a
    fresh channel would execute them identically.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, StepCost]" = OrderedDict()

    @staticmethod
    def key(step: BlockStep, row: Optional[int], timing: TimingParameters,
            geometry: ChannelGeometry) -> Tuple:
        """``row`` is where the step's allocator stands (None for a step
        that allocates nothing)."""
        return (step, row, timing, geometry)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def cost(self, step: BlockStep, row: Optional[int],
             timing: TimingParameters, geometry: ChannelGeometry) -> StepCost:
        """The cost of ``step`` with its allocator at ``row``, compiled and
        executed at most once per key while the entry stays in the memo."""
        key = (step, row, timing, geometry)
        cost = self._entries.get(key)
        if cost is not None:
            self._entries.move_to_end(key)
            return cost
        cost = self._entries[key] = _compile_and_run(step, row, timing, geometry)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return cost


def _compile_and_run(step: BlockStep, row: Optional[int],
                     timing: TimingParameters,
                     geometry: ChannelGeometry) -> StepCost:
    """Compile ``step`` and run each of its programs on a fresh channel."""
    allocator = None
    if row is not None:
        allocator = ChannelAllocator(geometry)
        allocator.next_row = row
    operations = []
    for operation in step.compile_on(allocator, geometry):
        outcome = None
        if len(operation.program):
            channel = PIMChannel(timing=timing, geometry=geometry)
            channel.execute_program(operation.program)
            channel.close_row()
            outcome = ProgramOutcome.of(channel)
        operations.append(OperationCost(
            outcome=outcome,
            flops=operation.flops,
            dram_bytes_read=operation.dram_bytes_read,
            pnm_tasks=tuple(operation.pnm_tasks),
        ))
    rows = 0 if allocator is None else allocator.next_row - row
    return StepCost(operations=tuple(operations), allocated_rows=rows)


#: The process-wide program memo every :class:`PerformanceModel` shares.
PROGRAM_MEMO = ProgramMemo(PROGRAM_MEMO_ENTRIES)


class PerformanceModel:
    """Maps (model, plan, context) to block latency, with bounded caching.

    Two cache levels (see the module docstring).  Block simulations are
    cached per instance in an LRU keyed by (model config, context, channel
    assignment); the capacity comes from ``config.block_cache_entries`` (or
    the explicit ``cache_capacity`` override) so long serving traces that
    sweep many context lengths cannot grow memory without bound.  A block
    missing from that LRU walks its steps through the process-wide
    :data:`PROGRAM_MEMO` (bounded by :data:`PROGRAM_MEMO_ENTRIES`): a step
    is compiled and executed on the channel model only the first time the
    process sees its compile inputs.
    """

    def __init__(self, config: CentConfig, cache_capacity: int | None = None) -> None:
        self.config = config
        if cache_capacity is None:
            cache_capacity = config.block_cache_entries
        if cache_capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.cache_capacity = cache_capacity
        self._cache: "OrderedDict[Tuple, BlockCost]" = OrderedDict()
        self._pnm_latency = PnmLatencyModel(
            clock_ghz=config.pnm_clock_ghz, instances=config.pnm_units
        )
        self._riscv = RiscvCluster(
            num_cores=config.riscv_cores, clock_ghz=config.pnm_clock_ghz
        )

    # ------------------------------------------------------------------ block level

    def block_cost(
        self,
        model: ModelConfig,
        plan: ParallelismPlan,
        context_length: int,
    ) -> BlockCost:
        """Latency/activity of one transformer block under ``plan``."""
        fc_channels = plan.fc_channels_per_block(model)
        attention_channels = plan.attention_channels_per_block(model)
        key = (model, context_length, fc_channels, attention_channels)
        base = self._cache.get(key)
        if base is not None:
            self._cache.move_to_end(key)
        else:
            base = self._cache[key] = self._simulate_block(
                model, context_length, fc_channels, attention_channels
            )
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)
        cxl_ns = self._cxl_latency_ns(model, plan)
        breakdown = LatencyBreakdown(
            pim_ns=base.breakdown.pim_ns,
            pnm_ns=base.breakdown.pnm_ns,
            cxl_ns=cxl_ns,
            host_ns=0.0,
        )
        return BlockCost(
            breakdown=breakdown,
            command_counts_per_channel=base.command_counts_per_channel,
            fc_channels=fc_channels,
            attention_channels=attention_channels,
            dram_bytes_read=base.dram_bytes_read,
            flops=base.flops,
        )

    def token_breakdown(
        self,
        model: ModelConfig,
        plan: ParallelismPlan,
        context_length: int,
    ) -> LatencyBreakdown:
        """Latency of one full token (all blocks plus host work)."""
        block = self.block_cost(model, plan, context_length)
        per_token = block.breakdown.scaled(model.num_layers)
        return LatencyBreakdown(
            pim_ns=per_token.pim_ns,
            pnm_ns=per_token.pnm_ns,
            cxl_ns=per_token.cxl_ns,
            host_ns=self.config.host_ns_per_token,
        )

    # ------------------------------------------------------------------ internals

    def _simulate_block(
        self,
        model: ModelConfig,
        context_length: int,
        fc_channels: int,
        attention_channels: int,
    ) -> BlockCost:
        timing, geometry = self.config.timing, self.config.geometry
        slot_bytes = geometry.access_granularity_bytes
        rows: Dict[str, int] = {}
        pim_ns = 0.0
        pnm_ns = 0.0
        flops = dram_bytes = 0
        command_counts: Dict[CommandType, int] = {}
        for step in block_steps(model, context_length, fc_channels,
                                attention_channels):
            row = None if step.allocator is None else rows.get(step.allocator, 0)
            cost = PROGRAM_MEMO.cost(step, row, timing, geometry)
            if row is not None:
                rows[step.allocator] = row + cost.allocated_rows
            for operation in cost.operations:
                flops += operation.flops
                dram_bytes += operation.dram_bytes_read
                for task in operation.pnm_tasks:
                    pnm_ns += self._pnm_task_latency(task)
                outcome = operation.outcome
                if outcome is None:
                    continue
                pim_ns += outcome.busy_until_ns
                # Staging traffic over the device-internal bus: WR_GB carries
                # the same vector to every channel's global buffer, so it is a
                # broadcast paid once per device; per-channel results and KV
                # writes (RD_MAC, WR_SBK, ...) are distinct and serialise
                # across the concurrently active channels of the device.
                broadcast_bytes = outcome.global_buffer_writes * slot_bytes
                distinct_bytes = (outcome.shared_buffer_transfers * slot_bytes
                                  * self.config.channels_per_device)
                pim_ns += (broadcast_bytes + distinct_bytes) / self.config.device_bus_gbps
                for kind, count in outcome.command_counts:
                    command_counts[kind] = command_counts.get(kind, 0) + count
        return BlockCost(
            breakdown=LatencyBreakdown(pim_ns=pim_ns, pnm_ns=pnm_ns),
            command_counts_per_channel=command_counts,
            fc_channels=fc_channels,
            attention_channels=attention_channels,
            dram_bytes_read=dram_bytes,
            flops=flops,
        )

    def _pnm_task_latency(self, task: PnmTask) -> float:
        if task.unit is PnmUnit.RISCV:
            return self._riscv.latency_ns(task.routine, task.num_elements)
        return self._pnm_latency.latency_for_elements(task.num_elements)

    def _cxl_latency_ns(self, model: ModelConfig, plan: ParallelismPlan) -> float:
        total = 0.0
        for primitive, num_bytes, fan in plan.cxl_transfers_per_block(model):
            if num_bytes <= 0:
                continue
            if primitive == "send_receive":
                total += send_receive(num_bytes, self.config.link).latency_ns
            elif primitive == "broadcast":
                total += broadcast(num_bytes, fan, self.config.link).latency_ns
            elif primitive == "multicast":
                total += multicast(num_bytes, fan, self.config.link).latency_ns
            elif primitive == "gather":
                total += gather(num_bytes, fan, self.config.link).latency_ns
            else:
                raise ValueError(f"unknown CXL primitive {primitive!r}")
        return total
