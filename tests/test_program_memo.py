"""The process-wide program memo under the performance model.

Every operation of a block runs on a fresh PIM channel, so the memo may only
ever return what that fresh execution would: these tests hold it to an
uncached oracle, check that its key separates every timing and geometry,
and count the channel executions it saves.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.transformer import compile_transformer_block
from repro.core.config import CentConfig
from repro.core.performance import PROGRAM_MEMO, PerformanceModel, ProgramMemo
from repro.core.system import CentSystem
from repro.dram.commands import CommandType
from repro.mapping.parallelism import ParallelismPlan, PipelineParallel
from repro.models.config import FfnKind, ModelConfig
from repro.pim.channel import PIMChannel


def _fresh_execution(config: CentConfig, model: ModelConfig, context: int,
                     fc_channels: int, attention_channels: int
                     ) -> Tuple[float, Dict[CommandType, int]]:
    """PIM time and command counts of one block, every operation on a fresh
    channel and no memo involved: the oracle for ``block_cost``."""
    block = compile_transformer_block(
        model, context, num_channels=fc_channels,
        attention_channels=attention_channels, geometry=config.geometry)
    slot_bytes = config.geometry.access_granularity_bytes
    pim_ns = 0.0
    counts: Dict[CommandType, int] = {}
    for operation in block.operations:
        if len(operation.program) == 0:
            continue
        channel = PIMChannel(timing=config.timing, geometry=config.geometry)
        channel.execute_program(operation.program)
        channel.close_row()
        pim_ns += channel.busy_until_ns
        broadcast_bytes = channel.stats.global_buffer_writes * slot_bytes
        distinct_bytes = (channel.stats.shared_buffer_transfers * slot_bytes
                          * config.channels_per_device)
        pim_ns += (broadcast_bytes + distinct_bytes) / config.device_bus_gbps
        for kind, count in channel.dram.stats.counts.items():
            counts[kind] = counts.get(kind, 0) + count
    return pim_ns, counts


def _program_keys(config: CentConfig, model: ModelConfig, context: int,
                  fc_channels: int, attention_channels: int) -> list:
    block = compile_transformer_block(
        model, context, num_channels=fc_channels,
        attention_channels=attention_channels, geometry=config.geometry)
    return [ProgramMemo.key(operation.program, config.timing, config.geometry)
            for operation in block.operations if len(operation.program)]


def _plan(tp_devices: int, channels_per_device: int) -> ParallelismPlan:
    """One block per device: ``tp_devices == 1`` gives fc = attention =
    ``channels_per_device``; more devices give fc = tp x attention."""
    return ParallelismPlan(name="drawn", num_devices=tp_devices,
                           tp_devices=tp_devices,
                           channels_per_device=channels_per_device)


@st.composite
def _small_models(draw) -> ModelConfig:
    num_heads = draw(st.sampled_from([2, 4]))
    return ModelConfig(
        name="drawn",
        num_layers=1,
        d_model=num_heads * draw(st.sampled_from([16, 32, 64])),
        num_heads=num_heads,
        num_kv_heads=draw(st.sampled_from([1, num_heads])),
        d_ff=draw(st.sampled_from([64, 192, 320])),
        vocab_size=512,
        max_context=256,
        ffn_kind=draw(st.sampled_from(list(FfnKind))),
    )


class TestProgramMemoOracle:
    @settings(settings.get_profile("ci"), max_examples=25)
    @given(model=_small_models(),
           context=st.integers(min_value=1, max_value=256),
           tp_devices=st.integers(min_value=1, max_value=3),
           channels=st.integers(min_value=1, max_value=8))
    def test_block_cost_equals_fresh_channels(self, model, context, tp_devices,
                                              channels):
        config = CentConfig(num_devices=tp_devices)
        plan = _plan(tp_devices, channels)
        fc = plan.fc_channels_per_block(model)
        attention = plan.attention_channels_per_block(model)
        pim_ns, counts = _fresh_execution(config, model, context, fc, attention)
        # The first model may miss the memo; the second is served from it.
        for performance in (PerformanceModel(config), PerformanceModel(config)):
            cost = performance.block_cost(model, plan, context)
            assert cost.breakdown.pim_ns == pim_ns
            assert list(cost.command_counts_per_channel.items()) == list(counts.items())
        for key in _program_keys(config, model, context, fc, attention):
            assert key in PROGRAM_MEMO

    def test_timing_and_geometry_never_share_an_entry(self, small_model):
        base = CentConfig(num_devices=4)
        configs = [
            base,
            dataclasses.replace(base, timing=dataclasses.replace(
                base.timing, t_ccd_s=2 * base.timing.t_ccd_s)),
            dataclasses.replace(base, geometry=dataclasses.replace(
                base.geometry, bank_capacity_bytes=base.geometry.bank_capacity_bytes // 2)),
        ]
        plan = PipelineParallel(4, small_model)
        fc = plan.fc_channels_per_block(small_model)
        attention = plan.attention_channels_per_block(small_model)
        key_sets = []
        for config in configs:
            cost = PerformanceModel(config).block_cost(small_model, plan, 128)
            pim_ns, _ = _fresh_execution(config, small_model, 128, fc, attention)
            assert cost.breakdown.pim_ns == pim_ns
            keys = set(_program_keys(config, small_model, 128, fc, attention))
            assert all(key in PROGRAM_MEMO for key in keys)
            key_sets.append(keys)
        for index, keys in enumerate(key_sets):
            for other in key_sets[index + 1:]:
                assert not keys & other

    def test_capacity_bounds_the_memo(self, small_model):
        memo = ProgramMemo(capacity=3)
        config = CentConfig(num_devices=4)
        block = compile_transformer_block(small_model, 64, num_channels=8)
        programs = [operation.program for operation in block.operations
                    if len(operation.program)]
        for program in programs:
            memo.outcome(program, config.timing, config.geometry)
        assert len(memo) == 3
        with pytest.raises(ValueError):
            ProgramMemo(capacity=0)

    def test_concurrent_lookups_stay_exact_and_bounded(self, small_model):
        """Replicas advancing on worker threads share the memo."""
        config = CentConfig(num_devices=4)
        block = compile_transformer_block(small_model, 64, num_channels=8)
        programs = [operation.program for operation in block.operations
                    if len(operation.program)]
        expected = [ProgramMemo(capacity=64).outcome(
            program, config.timing, config.geometry) for program in programs]
        memo = ProgramMemo(capacity=4)
        failures = []

        def worker(offset: int) -> None:
            for round_index in range(3):
                for position in range(len(programs)):
                    index = (position + offset + round_index) % len(programs)
                    outcome = memo.outcome(programs[index], config.timing,
                                           config.geometry)
                    if outcome != expected[index]:
                        failures.append(index)
                    if len(memo) > memo.capacity:
                        failures.append("bound")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestProgramMemoCounts:
    @pytest.fixture
    def executions(self, monkeypatch):
        """Every program the cycle-level channel executes, in order."""
        executed = []
        original = PIMChannel.execute_program

        def counting(channel, instructions):
            executed.append(instructions)
            return original(channel, instructions)

        monkeypatch.setattr(PIMChannel, "execute_program", counting)
        return executed

    def test_second_system_runs_no_programs(self, small_model, executions):
        PROGRAM_MEMO.clear()
        config = CentConfig(num_devices=4, context_samples=2)
        plan = PipelineParallel(4, small_model)
        fc = plan.fc_channels_per_block(small_model)
        keys = _program_keys(config, small_model, 256, fc, fc)
        assert len(set(keys)) < len(keys)  # the block repeats programs

        first = CentSystem(config, small_model).performance.block_cost(
            small_model, plan, 256)
        # Identical programs within the block ran once.
        assert len(executions) == len(set(keys))

        executions.clear()
        second = CentSystem(config, small_model).performance.block_cost(
            small_model, plan, 256)
        assert executions == []
        assert second.breakdown == first.breakdown
        assert second.command_counts_per_channel == first.command_counts_per_channel


class TestBlockCacheKey:
    def test_models_sharing_a_name_are_not_aliased(self):
        narrow = ModelConfig(name="m", num_layers=2, d_model=256, num_heads=4,
                             num_kv_heads=4, d_ff=512, vocab_size=512,
                             max_context=512)
        wide = dataclasses.replace(narrow, d_model=512, d_ff=1024)
        config = CentConfig(num_devices=2)
        plan = PipelineParallel(2, narrow)
        performance = PerformanceModel(config)
        narrow_cost = performance.block_cost(narrow, plan, 128)
        wide_cost = performance.block_cost(wide, plan, 128)
        expected = PerformanceModel(config).block_cost(wide, plan, 128)
        assert wide_cost.breakdown.pim_ns == expected.breakdown.pim_ns
        assert wide_cost.breakdown.pim_ns > narrow_cost.breakdown.pim_ns
