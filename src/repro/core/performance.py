"""Performance model: compiled block programs to latency and activity.

The model compiles one transformer block per (model, channel assignment,
context length), executes every operation's per-channel instruction stream on
a :class:`~repro.pim.channel.PIMChannel` timing substrate, adds the PNM
accelerator / RISC-V latencies and the CXL communication of the chosen
parallelisation plan, and caches the result.  Inference-level aggregation
(prefill / decoding phases, pipelining, throughput) lives in
``repro.core.inference``.

Two cache levels sit under :meth:`PerformanceModel.block_cost`:

* a per-instance LRU of simulated blocks, keyed by (model, context, channel
  assignment) and bounded by ``CentConfig.block_cache_entries``;
* the process-wide :data:`PROGRAM_MEMO` beneath the block simulation.
  Every operation runs on a fresh channel, so its outcome is a pure function
  of its program, timing and geometry.  The memo keys on exactly those, so
  a program that repeats — across the GEMVs of one block, across contexts,
  across ``CentSystem`` instances — is executed once per process.  It holds
  at most :data:`PROGRAM_MEMO_ENTRIES` outcomes of under a kilobyte each.

Block costs are bit-identical with and without either cache: a memo hit
returns the stored channel outcome and the block still folds the outcomes
in operation order.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.compiler.operations import PnmTask, PnmUnit
from repro.compiler.transformer import compile_transformer_block
from repro.core.config import CentConfig
from repro.core.results import LatencyBreakdown
from repro.cxl.primitives import broadcast, gather, multicast, send_receive
from repro.dram.commands import CommandType
from repro.dram.geometry import ChannelGeometry
from repro.dram.timing import TimingParameters
from repro.isa.program import Program
from repro.mapping.parallelism import ParallelismPlan
from repro.models.config import ModelConfig
from repro.pim.channel import PIMChannel
from repro.pnm.accelerators import PnmLatencyModel
from repro.pnm.riscv import RiscvCluster

__all__ = ["BlockCost", "PerformanceModel", "ProgramMemo", "ProgramOutcome",
           "PROGRAM_MEMO", "PROGRAM_MEMO_ENTRIES"]

#: Bound on the process-wide program memo.  An entry is a 16-byte digest
#: plus a handful of counters, so a full memo stays within a few MiB.
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


class ProgramMemo:
    """Bounded LRU of :class:`ProgramOutcome` keyed by program content.

    The key is (timing, geometry, digest of every instruction's class and
    fields): two programs share an entry only if a fresh channel would
    execute them identically.  Thread-safe; a miss executes outside the
    lock, so racing threads at worst both compute the same outcome.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, ProgramOutcome]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(program: Program, timing: TimingParameters,
            geometry: ChannelGeometry) -> Tuple:
        # Pickling is injective on content (it round-trips), so distinct
        # programs never share a digest.
        content = pickle.dumps([(type(instruction), vars(instruction))
                                for instruction in program],
                               protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(content, digest_size=16).digest()
        return (timing, geometry, digest)

    def __len__(self) -> int:
        with self._lock:  # never observe an insert before its eviction
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def outcome(self, program: Program, timing: TimingParameters,
                geometry: ChannelGeometry) -> ProgramOutcome:
        """The outcome of ``program`` on a fresh channel, executed at most
        once per key while the entry stays in the memo."""
        key = self.key(program, timing, geometry)
        with self._lock:
            outcome = self._entries.get(key)
            if outcome is not None:
                self._entries.move_to_end(key)
                return outcome
        channel = PIMChannel(timing=timing, geometry=geometry)
        channel.execute_program(program)
        channel.close_row()
        outcome = ProgramOutcome(
            busy_until_ns=channel.busy_until_ns,
            global_buffer_writes=channel.stats.global_buffer_writes,
            shared_buffer_transfers=channel.stats.shared_buffer_transfers,
            command_counts=tuple(channel.dram.stats.counts.items()),
        )
        with self._lock:
            self._entries[key] = outcome
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return outcome


#: The process-wide program memo every :class:`PerformanceModel` shares.
PROGRAM_MEMO = ProgramMemo(PROGRAM_MEMO_ENTRIES)


class PerformanceModel:
    """Maps (model, plan, context) to block latency, with bounded caching.

    Two cache levels (see the module docstring).  Block simulations are
    cached per instance in an LRU keyed by (model config, context, channel
    assignment); the capacity comes from ``config.block_cache_entries`` (or
    the explicit ``cache_capacity`` override) so long serving traces that
    sweep many context lengths cannot grow memory without bound.  A block
    missing from that LRU is recompiled, but each of its operation programs
    is looked up in the process-wide :data:`PROGRAM_MEMO` (bounded by
    :data:`PROGRAM_MEMO_ENTRIES`) and only executed on the cycle-level
    channel the first time the process sees it.
    """

    def __init__(self, config: CentConfig, cache_capacity: int | None = None) -> None:
        self.config = config
        if cache_capacity is None:
            cache_capacity = config.block_cache_entries
        if cache_capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.cache_capacity = cache_capacity
        self._cache: "OrderedDict[Tuple, BlockCost]" = OrderedDict()
        # One model instance backs every engine of a CentSystem; callers
        # that advance engines on their own threads hit this cache
        # concurrently.  Simulation runs outside the lock — a racing
        # duplicate computes the same deterministic value.
        self._cache_lock = threading.Lock()
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
        with self._cache_lock:
            base = self._cache.get(key)
            if base is not None:
                self._cache.move_to_end(key)
        if base is None:
            simulated = self._simulate_block(
                model, context_length, fc_channels, attention_channels
            )
            with self._cache_lock:
                base = self._cache.get(key)
                if base is None:
                    base = self._cache[key] = simulated
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
        block = compile_transformer_block(
            model,
            context_length,
            num_channels=fc_channels,
            attention_channels=attention_channels,
            geometry=self.config.geometry,
        )
        pim_ns = 0.0
        command_counts: Dict[CommandType, int] = {}
        slot_bytes = self.config.geometry.access_granularity_bytes
        for operation in block.operations:
            if len(operation.program) == 0:
                continue
            outcome = PROGRAM_MEMO.outcome(
                operation.program, self.config.timing, self.config.geometry
            )
            pim_ns += outcome.busy_until_ns
            # Staging traffic over the device-internal bus: WR_GB carries the
            # same vector to every channel's global buffer, so it is a
            # broadcast paid once per device; per-channel results and KV
            # writes (RD_MAC, WR_SBK, ...) are distinct and serialise across
            # the concurrently active channels of the device.
            broadcast_bytes = outcome.global_buffer_writes * slot_bytes
            distinct_bytes = (outcome.shared_buffer_transfers * slot_bytes
                              * self.config.channels_per_device)
            pim_ns += (broadcast_bytes + distinct_bytes) / self.config.device_bus_gbps
            for kind, count in outcome.command_counts:
                command_counts[kind] = command_counts.get(kind, 0) + count
        pnm_ns = sum(self._pnm_task_latency(task) for task in block.pnm_tasks)
        return BlockCost(
            breakdown=LatencyBreakdown(pim_ns=pim_ns, pnm_ns=pnm_ns),
            command_counts_per_channel=command_counts,
            fc_channels=fc_channels,
            attention_channels=attention_channels,
            dram_bytes_read=block.total_dram_bytes,
            flops=block.total_flops,
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
