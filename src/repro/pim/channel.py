"""Timing model of a PIM channel executing CENT PIM instructions.

The PIM controller of a CXL device manages two PIM channels; each channel
receives micro-ops decoded from CENT instructions and converts them into DRAM
command sequences.  This module models one channel: it expands every PIM-class
instruction (Table 2/3) into the all-bank or per-bank command flow described
in the paper (``ACTab`` → ``MACab``… → ``PREab``) and schedules the commands
on the :class:`~repro.dram.channel.DRAMChannel` substrate, yielding
per-instruction latency and channel activity counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dram.channel import DRAMChannel
from repro.dram.commands import CommandType, DRAMCommand
from repro.dram.geometry import ChannelGeometry, GDDR6_PIM_GEOMETRY
from repro.dram.timing import TimingParameters, GDDR6_PIM_TIMINGS
from repro.isa.instructions import (
    ActivationFunction,
    CopyBankToGlobalBuffer,
    ElementwiseMul,
    Instruction,
    MacAllBank,
    Opcode,
    WriteAllBanks,
    WriteGlobalBuffer,
    WriteSingleBank,
)

__all__ = ["PIMChannel", "PIMChannelStats"]


@dataclass
class PIMChannelStats:
    """Per-channel activity counters beyond raw DRAM commands."""

    instructions: Dict[Opcode, int] = field(default_factory=dict)
    mac_micro_ops: int = 0
    shared_buffer_transfers: int = 0
    global_buffer_writes: int = 0

    def record_instruction(self, opcode: Opcode) -> None:
        self.instructions[opcode] = self.instructions.get(opcode, 0) + 1


class PIMChannel:
    """One GDDR6-PIM channel: DRAM timing substrate + near-bank PU flow."""

    def __init__(
        self,
        channel_id: int = 0,
        timing: TimingParameters = GDDR6_PIM_TIMINGS,
        geometry: ChannelGeometry = GDDR6_PIM_GEOMETRY,
    ) -> None:
        self.channel_id = channel_id
        self.timing = timing
        self.geometry = geometry
        self.dram = DRAMChannel(timing=timing, geometry=geometry)
        self.stats = PIMChannelStats()
        # Row currently open across all banks by an ACTab, or None.
        self._all_bank_open_row: Optional[int] = None
        # Per-bank open row for single-bank accesses.
        self._bank_open_rows: Dict[int, int] = {}
        self.busy_until_ns: float = 0.0

    # ------------------------------------------------------------------ public

    def execute(self, instruction: Instruction) -> float:
        """Execute one PIM instruction; return its latency in nanoseconds.

        The channel is busy from its previous ``busy_until_ns`` until the new
        completion time; the return value is the incremental busy time added
        by this instruction.
        """
        if not instruction.opcode.is_pim:
            raise ValueError(
                f"{instruction.opcode.value} is not a PIM instruction; "
                "PNM/CXL instructions are handled by the device model"
            )
        start = self.busy_until_ns
        end = self._HANDLERS[instruction.opcode](self, instruction)
        self.stats.record_instruction(instruction.opcode)
        self.busy_until_ns = max(self.busy_until_ns, end)
        return self.busy_until_ns - start

    def execute_program(self, instructions) -> float:
        """Execute a sequence of PIM instructions; return total added latency."""
        start = self.busy_until_ns
        for instruction in instructions:
            self.execute(instruction)
        return self.busy_until_ns - start

    def close_row(self) -> float:
        """Precharge any open all-bank row (end of an operation group)."""
        if self._all_bank_open_row is None:
            return self.busy_until_ns
        issue = self.dram.issue(DRAMCommand(CommandType.PRE_ALL))
        self._all_bank_open_row = None
        self._bank_open_rows.clear()
        self.busy_until_ns = max(self.busy_until_ns, issue + self.timing.t_rp)
        return self.busy_until_ns

    def reset_timing(self) -> None:
        """Reset the clock while keeping accumulated statistics."""
        self.dram.reset_time()
        self._all_bank_open_row = None
        self._bank_open_rows.clear()
        self.busy_until_ns = 0.0

    # ------------------------------------------------------------------ peak rates

    def peak_internal_bandwidth_gbps(self) -> float:
        return self.dram.peak_internal_bandwidth_gbps()

    def peak_compute_gflops(self) -> float:
        return self.dram.peak_compute_gflops()

    # ------------------------------------------------------------------ handlers

    def _open_all_bank_row(self, row: int) -> None:
        """Ensure ``row`` is open in all banks (ACTab), precharging first if a
        different row is open."""
        if self._all_bank_open_row == row:
            return
        if self._all_bank_open_row is not None or self._bank_open_rows:
            self.dram.issue(DRAMCommand(CommandType.PRE_ALL))
            self._bank_open_rows.clear()
        self.dram.issue(DRAMCommand(CommandType.ACT_ALL, row=row))
        self._all_bank_open_row = row

    def _open_bank_row(self, bank: int, row: int) -> None:
        if self._bank_open_rows.get(bank) == row and self._all_bank_open_row is None:
            return
        if self._all_bank_open_row is not None:
            self.dram.issue(DRAMCommand(CommandType.PRE_ALL))
            self._all_bank_open_row = None
            self._bank_open_rows.clear()
        elif bank in self._bank_open_rows:
            self.dram.issue(DRAMCommand(CommandType.PRE, bank=bank))
            del self._bank_open_rows[bank]
        self.dram.issue(DRAMCommand(CommandType.ACT, bank=bank, row=row))
        self._bank_open_rows[bank] = row

    def _execute_mac_all_bank(self, instruction: MacAllBank) -> float:
        """ACTab (if needed) followed by ``op_size`` MACab commands."""
        self._open_all_bank_row(instruction.row)
        last = self.dram.issue_column_burst(
            DRAMCommand(
                CommandType.MAC_ALL,
                row=instruction.row,
                column=instruction.column,
            ),
            count=instruction.op_size,
        )
        self.stats.mac_micro_ops += instruction.op_size
        return self.dram.completion_time(last)

    def _execute_elementwise_mul(self, instruction: ElementwiseMul) -> float:
        self._open_all_bank_row(instruction.row)
        last = self.dram.now_ns
        for group in range(self.geometry.num_bank_groups):
            last = self.dram.issue_column_burst(
                DRAMCommand(
                    CommandType.EWMUL,
                    bank_group=group,
                    row=instruction.row,
                    column=instruction.column,
                ),
                count=instruction.op_size,
            )
        return self.dram.completion_time(last)

    def _execute_activation(self, instruction: ActivationFunction) -> float:
        last = self.dram.issue(DRAMCommand(CommandType.AF))
        return self.dram.completion_time(last)

    def _execute_single_bank(self, instruction) -> float:
        is_write = isinstance(instruction, WriteSingleBank)
        kind = CommandType.WR if is_write else CommandType.RD
        self._open_bank_row(instruction.bank, instruction.row)
        last = self.dram.issue_column_burst(
            DRAMCommand(
                kind,
                bank=instruction.bank,
                row=instruction.row,
                column=instruction.column,
            ),
            count=instruction.op_size,
        )
        self.stats.shared_buffer_transfers += instruction.op_size
        return self.dram.completion_time(last)

    def _execute_write_all_banks(self, instruction: WriteAllBanks) -> float:
        """Scatter one shared-buffer slot across all 16 banks: ACTab + WR."""
        self._open_all_bank_row(instruction.row)
        last = self.dram.now_ns
        for bank in range(self.geometry.num_banks):
            last = self.dram.issue(
                DRAMCommand(
                    CommandType.WR,
                    bank=bank,
                    row=instruction.row,
                    column=instruction.column,
                )
            )
        self.stats.shared_buffer_transfers += 1
        return self.dram.completion_time(last)

    def _execute_copy_bank_gb(self, instruction) -> float:
        to_global_buffer = isinstance(instruction, CopyBankToGlobalBuffer)
        kind = CommandType.RD if to_global_buffer else CommandType.WR
        self._open_all_bank_row(instruction.row)
        last = self.dram.issue_column_burst(
            DRAMCommand(
                kind,
                bank=0,
                row=instruction.row,
                column=instruction.column,
            ),
            count=instruction.op_size,
        )
        return self.dram.completion_time(last)

    def _execute_register_io(self, instruction) -> float:
        """WR_BIAS / RD_MAC: one 256-bit transfer between the shared buffer and
        the PU register file, pipelined at the column-command rate."""
        last = self.dram.issue(DRAMCommand(CommandType.AF))
        self.stats.shared_buffer_transfers += 1
        return last + self.timing.t_ccd_l

    def _execute_write_global_buffer(self, instruction: WriteGlobalBuffer) -> float:
        """WR_GB: stream ``op_size`` slots from the shared buffer to the global
        buffer over the channel I/O at one slot per tCCD_S."""
        start = max(self.busy_until_ns, self.dram.now_ns)
        duration = instruction.op_size * self.timing.t_ccd_s
        self.stats.global_buffer_writes += instruction.op_size
        return start + duration

    #: Per-opcode handler, built once for the class rather than per instruction.
    _HANDLERS = {
        Opcode.MAC_ABK: _execute_mac_all_bank,
        Opcode.EW_MUL: _execute_elementwise_mul,
        Opcode.AF: _execute_activation,
        Opcode.WR_SBK: _execute_single_bank,
        Opcode.RD_SBK: _execute_single_bank,
        Opcode.WR_ABK: _execute_write_all_banks,
        Opcode.COPY_BKGB: _execute_copy_bank_gb,
        Opcode.COPY_GBBK: _execute_copy_bank_gb,
        Opcode.WR_BIAS: _execute_register_io,
        Opcode.RD_MAC: _execute_register_io,
        Opcode.WR_GB: _execute_write_global_buffer,
    }
