"""The DRAM and PIM channels against the per-bank reference scheduler.

``repro.dram.channel.DRAMChannel`` keeps bank state as broadcast values plus
per-bank overrides so that all-bank commands cost O(1).  It must schedule
exactly as ``reference_channel.py``'s per-bank scheduler does: random
programs over all eleven PIM opcodes (EW_MUL bursts and the single-bank
WR_SBK/RD_SBK/WR_ABK ops that break bank uniformity included) and random
DRAM command streams, on random valid timings and geometries, give the same
float bits and the same command counts in the same first-issue order.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.performance import ProgramOutcome
from repro.dram.channel import DRAMChannel
from repro.dram.commands import CommandType, DRAMCommand
from repro.dram.geometry import ChannelGeometry
from repro.dram.timing import TimingParameters
from repro.isa.instructions import (
    ActivationFunction,
    CopyBankToGlobalBuffer,
    CopyGlobalBufferToBank,
    ElementwiseMul,
    MacAllBank,
    Opcode,
    ReadMacRegister,
    ReadSingleBank,
    WriteAllBanks,
    WriteBias,
    WriteGlobalBuffer,
    WriteSingleBank,
)
from repro.pim.channel import PIMChannel

from reference_channel import ReferenceDRAMChannel, ReferencePIMChannel

ROWS = st.integers(min_value=0, max_value=3)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _span(draw, low: float, high: float) -> float:
    return draw(st.floats(min_value=low, max_value=high,
                          allow_nan=False, allow_infinity=False))


@st.composite
def _timings(draw) -> TimingParameters:
    t_ccd_s = _span(draw, 0.25, 4.0)
    t_rcd_rd = _span(draw, 0.5, 40.0)
    return TimingParameters(
        t_ck=_span(draw, 0.25, 2.0),
        t_rcd_rd=t_rcd_rd,
        t_rcd_wr=_span(draw, 0.5, 40.0),
        t_ras=t_rcd_rd + _span(draw, 0.0, 40.0),
        t_rp=_span(draw, 0.5, 40.0),
        t_cl=_span(draw, 0.5, 40.0),
        t_cwl=_span(draw, 0.5, 20.0),
        t_ccd_s=t_ccd_s,
        t_ccd_l=t_ccd_s + _span(draw, 0.0, 4.0),
        t_rrd=_span(draw, 0.5, 10.0),
        t_wr=_span(draw, 0.5, 30.0),
        t_refi=_span(draw, 1000.0, 8000.0),
        t_rfc=_span(draw, 10.0, 400.0),
        burst_ns=_span(draw, 0.25, 4.0),
    )


_GEOMETRIES = st.builds(ChannelGeometry,
                        num_bank_groups=st.integers(min_value=1, max_value=4),
                        banks_per_group=st.integers(min_value=1, max_value=4))


def _instruction_builders(num_banks: int):
    """One strategy per PIM instruction class."""
    sizes = st.integers(min_value=1, max_value=40)
    small = st.integers(min_value=1, max_value=8)
    banks = st.integers(min_value=0, max_value=num_banks - 1)
    return {
        MacAllBank: st.builds(MacAllBank, op_size=sizes, row=ROWS,
                              column=st.integers(min_value=0, max_value=63),
                              reg_id=st.integers(min_value=0, max_value=31)),
        ElementwiseMul: st.builds(ElementwiseMul, op_size=sizes, row=ROWS),
        ActivationFunction: st.builds(ActivationFunction),
        WriteSingleBank: st.builds(WriteSingleBank, op_size=small, bank=banks,
                                   row=ROWS),
        ReadSingleBank: st.builds(ReadSingleBank, op_size=small, bank=banks,
                                  row=ROWS),
        WriteAllBanks: st.builds(WriteAllBanks, row=ROWS),
        CopyBankToGlobalBuffer: st.builds(CopyBankToGlobalBuffer, op_size=small,
                                          row=ROWS),
        CopyGlobalBufferToBank: st.builds(CopyGlobalBufferToBank, op_size=small,
                                          row=ROWS),
        WriteBias: st.builds(WriteBias),
        ReadMacRegister: st.builds(ReadMacRegister),
        WriteGlobalBuffer: st.builds(WriteGlobalBuffer,
                                     op_size=st.integers(min_value=1, max_value=64)),
    }


@st.composite
def _programs(draw):
    geometry = draw(_GEOMETRIES)
    instructions = st.one_of(*_instruction_builders(geometry.num_banks).values())
    program = draw(st.lists(instructions, min_size=1, max_size=40))
    return draw(_timings()), geometry, program


def _run(channel, program):
    """Per-instruction latencies and the fresh-channel outcome."""
    latencies = [_bits(channel.execute(instruction)) for instruction in program]
    channel.close_row()
    return latencies, ProgramOutcome.of(channel)


class TestPimChannelOracle:
    @settings(settings.get_profile("ci"), max_examples=300)
    @given(case=_programs())
    def test_programs_match_the_per_bank_reference(self, case):
        timing, geometry, program = case
        channel = PIMChannel(timing=timing, geometry=geometry)
        reference = ReferencePIMChannel(timing=timing, geometry=geometry)
        latencies, outcome = _run(channel, program)
        expected_latencies, expected = _run(reference, program)
        assert latencies == expected_latencies
        assert _bits(outcome.busy_until_ns) == _bits(expected.busy_until_ns)
        assert outcome == expected  # command counts in first-issue order
        assert _bits(channel.dram.now_ns) == _bits(reference.dram.now_ns)
        assert (list(channel.stats.instructions.items())
                == list(reference.stats.instructions.items()))
        assert channel.stats.mac_micro_ops == reference.stats.mac_micro_ops

    def test_programs_draw_every_pim_opcode(self):
        drawn = [kind.opcode for kind in _instruction_builders(16)]
        assert sorted(drawn, key=list(Opcode).index) == [
            opcode for opcode in Opcode if opcode.is_pim]


@st.composite
def _command_streams(draw):
    geometry = draw(_GEOMETRIES)
    kinds = st.sampled_from(list(CommandType))
    banks = st.integers(min_value=0, max_value=geometry.num_banks - 1)
    groups = st.integers(min_value=0, max_value=geometry.num_bank_groups - 1)
    stream = draw(st.lists(st.tuples(kinds, banks, groups, ROWS,
                                     st.integers(min_value=1, max_value=12)),
                           min_size=1, max_size=60))
    return draw(_timings()), geometry, stream


def _issue_stream(channel, stream):
    """Issue times (or the error) of every command of ``stream``."""
    trace = []
    for kind, bank, group, row, count in stream:
        command = DRAMCommand(kind, bank=bank, bank_group=group, row=row)
        try:
            if kind.is_column_command and count > 1:
                trace.append(_bits(channel.issue_column_burst(command, count)))
            else:
                trace.append(_bits(channel.issue(command)))
        except RuntimeError as error:  # a column command to a closed bank
            trace.append(str(error))
    return trace


class TestDramChannelOracle:
    @settings(settings.get_profile("ci"), max_examples=300)
    @given(case=_command_streams())
    def test_command_streams_match_the_per_bank_reference(self, case):
        timing, geometry, stream = case
        channel = DRAMChannel(timing=timing, geometry=geometry)
        reference = ReferenceDRAMChannel(timing=timing, geometry=geometry)
        assert _issue_stream(channel, stream) == _issue_stream(reference, stream)
        assert _bits(channel.now_ns) == _bits(reference.now_ns)
        assert (list(channel.stats.counts.items())
                == list(reference.stats.counts.items()))
        last = channel.now_ns
        assert _bits(channel.completion_time(last)) == _bits(
            reference.completion_time(last))


class TestEwmulBurstMisprice:
    """Pins a known mis-price (ROADMAP item 5) that both schedulers share.

    A burst records its last command as a column access, but an EWMUL
    burst leaves the destination bank's write recovery at the burst's first
    command, so PREab may issue before the last EWMUL's write has
    recovered.  The fix moves block costs and belongs with a fingerprint
    update; this test flips with it.
    """

    @staticmethod
    def _precharge_after(burst: bool) -> float:
        channel = DRAMChannel(apply_refresh_derating=False)
        channel.issue(DRAMCommand(CommandType.ACT_ALL, row=0))
        ewmul = DRAMCommand(CommandType.EWMUL, bank_group=1)
        if burst:
            channel.issue_column_burst(ewmul, 40)
        else:
            for _ in range(40):
                channel.issue(ewmul)
        return channel.issue(DRAMCommand(CommandType.PRE_ALL))

    def test_burst_precharges_before_the_last_write_recovers(self):
        assert self._precharge_after(burst=True) == 57.0
        assert self._precharge_after(burst=False) == 78.0
