"""Per-bank reference scheduler: the oracle of the DRAM and PIM channels.

``ReferenceDRAMChannel`` states the channel's timing rules directly: one
:class:`~repro.dram.bank.Bank` state machine per bank, and every all-bank
command (ACTab, MACab, PREab, EWMUL) reads and writes each bank in turn.  ``ReferencePIMChannel`` is the PIM controller over it, building one
:class:`~repro.dram.commands.DRAMCommand` per command and counting by enum.

``repro.dram.channel.DRAMChannel`` keeps the same timing rules in a
broadcast-plus-overrides state that makes all-bank commands O(1); the
property tests in ``test_channel_oracle.py`` hold it to this reference bit
for bit.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dram.bank import Bank, BankGroup
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


@dataclass
class ReferenceCommandStats:
    """Command counts by kind, in first-issue order."""

    counts: Dict[CommandType, int] = field(default_factory=dict)

    def record(self, kind: CommandType, amount: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + amount


class ReferenceDRAMChannel:
    """The per-bank scheduler: every all-bank command walks all banks."""

    def __init__(
        self,
        timing: TimingParameters = GDDR6_PIM_TIMINGS,
        geometry: ChannelGeometry = GDDR6_PIM_GEOMETRY,
        apply_refresh_derating: bool = True,
    ) -> None:
        self.timing = timing
        self.geometry = geometry
        self.apply_refresh_derating = apply_refresh_derating
        self.bank_groups: List[BankGroup] = []
        bank_index = 0
        for group_index in range(geometry.num_bank_groups):
            banks = []
            for _ in range(geometry.banks_per_group):
                banks.append(Bank(index=bank_index, timing=timing))
                bank_index += 1
            self.bank_groups.append(BankGroup(index=group_index, banks=banks))
        # Flat bank list, built once: every all-bank command walks it.
        self._banks: List[Bank] = [bank for group in self.bank_groups
                                   for bank in group.banks]
        self.stats = ReferenceCommandStats()
        self._now: float = 0.0
        self._last_column_bus: float = -1e18
        self._last_activate_any: float = -1e18

    # ------------------------------------------------------------------ helpers

    @property
    def now_ns(self) -> float:
        """Current channel time: when the last issued command completed issue."""
        return self._now

    def banks(self) -> List[Bank]:
        return list(self._banks)

    def bank(self, flat_index: int) -> Bank:
        group, local = divmod(flat_index, self.geometry.banks_per_group)
        return self.bank_groups[group].banks[local]

    def reset_time(self) -> None:
        """Reset the clock and bank state (activity counters are kept)."""
        self._now = 0.0
        self._last_column_bus = -1e18
        self._last_activate_any = -1e18
        for bank in self._banks:
            bank.open_row = None
            bank.last_activate = -1e18
            bank.last_precharge = -1e18
            bank.last_column_access = -1e18
            bank.last_write_end = -1e18

    # ------------------------------------------------------------------ issue

    def issue(self, command: DRAMCommand) -> float:
        """Schedule one command and return its issue time in nanoseconds."""
        issue_time = self._ISSUERS[command.kind](self, command)
        self.stats.record(command.kind)
        self._now = max(self._now, issue_time)
        return issue_time

    def issue_column_burst(self, command: DRAMCommand, count: int) -> float:
        """Issue ``count`` back-to-back column commands of the same kind.

        A burst repeatedly targets the same bank (or the same set of banks for
        all-bank PIM commands).  All-bank PIM commands (MACab, EWMUL) pipeline
        at tCCD_S — the 1 GHz PU clock — while ordinary per-bank reads/writes
        obey the per-bank-group tCCD_L.  The burst is scheduled as the first
        command followed by ``count - 1`` commands at that spacing, which
        keeps the cost of large ``OPsize`` instructions independent of the
        size.  It is not equivalent to one-by-one issue for EWMUL: the
        destination bank's write recovery stays at the first command of the
        burst (ROADMAP item 5).
        """
        if count <= 0:
            raise ValueError("burst count must be positive")
        if not command.kind.is_column_command:
            raise ValueError(f"{command.kind.value} is not a column command")
        first = self.issue(command)
        if count == 1:
            return first
        spacing = (self.timing.t_ccd_s if command.kind.is_all_bank
                   else self.timing.t_ccd_l)
        last = first + (count - 1) * spacing
        is_write = command.kind is CommandType.WR
        # EWMUL is an all-bank kind, so an EWMUL burst records its last
        # command on every bank and the elif below is never taken.
        if command.kind.is_all_bank:
            affected = self._banks
        elif command.kind is CommandType.EWMUL:
            affected = self.bank_groups[command.bank_group].banks
        else:
            affected = [self.bank(command.bank)]
        for bank in affected:
            bank.record_column(last, is_write=is_write)
        self._last_column_bus = last
        self.stats.record(command.kind, count - 1)
        self._now = max(self._now, last)
        return last

    def issue_all(self, commands: List[DRAMCommand]) -> float:
        """Issue a command sequence in order; return the completion time."""
        last = self._now
        for command in commands:
            last = self.issue(command)
        return self.completion_time(last)

    def completion_time(self, last_issue: float) -> float:
        """Completion time of the command stream whose last issue was at
        ``last_issue`` (adds CAS latency and burst time, plus the refresh
        bandwidth derating)."""
        completion = last_issue + self.timing.t_cl + self.timing.burst_ns
        if self.apply_refresh_derating:
            derating = 1.0 + self.timing.t_rfc / self.timing.t_refi
            completion *= derating
        return completion

    # ------------------------------------------------------------------ per-kind

    def _issue_activate(self, command: DRAMCommand) -> float:
        bank = self.bank(command.bank)
        time = max(
            bank.earliest_activate(self._now),
            self._last_activate_any + self.timing.t_rrd,
        )
        bank.record_activate(time, command.row)
        self._last_activate_any = time
        return time

    def _issue_precharge(self, command: DRAMCommand) -> float:
        bank = self.bank(command.bank)
        time = bank.earliest_precharge(self._now)
        bank.record_precharge(time)
        return time

    def _issue_activate_all(self, command: DRAMCommand) -> float:
        """ACTab: activate the same row in every bank of the channel."""
        time = max(
            max(bank.earliest_activate(self._now) for bank in self._banks),
            self._last_activate_any + self.timing.t_rrd,
        )
        for bank in self._banks:
            bank.record_activate(time, command.row)
        self._last_activate_any = time
        return time

    def _issue_precharge_all(self, command: DRAMCommand) -> float:
        time = max(bank.earliest_precharge(self._now) for bank in self._banks)
        for bank in self._banks:
            bank.record_precharge(time)
        return time

    def _issue_column(self, command: DRAMCommand) -> float:
        is_write = command.kind is CommandType.WR
        bank = self.bank(command.bank)
        time = max(
            bank.earliest_column(self._now, is_write=is_write),
            self._last_column_bus + self.timing.t_ccd_s,
        )
        bank.record_column(time, is_write=is_write)
        self._last_column_bus = time
        return time

    def _issue_mac_all(self, command: DRAMCommand) -> float:
        """MACab: one MAC step in all 16 near-bank PUs.

        All banks must have a row open (the controller issues ACTab first).
        Successive MACab commands are pipelined at tCCD_S, i.e. one 256-bit
        operand per bank per nanosecond — the 1 GHz PU rate.
        """
        constraint = self._last_column_bus + self.timing.t_ccd_s
        for bank in self._banks:
            constraint = max(constraint, bank.earliest_column(self._now, is_write=False,
                                                              all_bank=True))
        time = max(self._now, constraint)
        for bank in self._banks:
            bank.record_column(time, is_write=False)
        self._last_column_bus = time
        return time

    def _issue_ewmul(self, command: DRAMCommand) -> float:
        """EWMUL: element-wise multiply of two banks in a bank group, with the
        result written to a third bank of the group.  Occupies the column bus
        like a column command and also incurs the write recovery of the
        destination bank."""
        group = self.bank_groups[command.bank_group]
        constraint = self._last_column_bus + self.timing.t_ccd_s
        for bank in group.banks:
            constraint = max(constraint, bank.earliest_column(self._now, is_write=False,
                                                              all_bank=True))
        time = max(self._now, constraint)
        for bank in group.banks:
            bank.record_column(time, is_write=False)
        # Destination bank sees a write.
        group.banks[-1].record_column(time, is_write=True)
        self._last_column_bus = time
        return time

    def _issue_af(self, command: DRAMCommand) -> float:
        """AF: activation-function lookup in the near-bank PUs.  Modelled as a
        column access (LUT read) on the column bus."""
        time = max(self._now, self._last_column_bus + self.timing.t_ccd_l)
        self._last_column_bus = time
        return time

    def _issue_refresh(self, command: DRAMCommand) -> float:
        time = max(
            self._now,
            max(bank.earliest_precharge(self._now) for bank in self._banks),
        )
        for bank in self._banks:
            bank.record_precharge(time)
            bank.last_activate = time + self.timing.t_rfc - self.timing.t_rc
        return time + self.timing.t_rfc

    #: Per-kind scheduler, built once for the class rather than per command.
    _ISSUERS = {
        CommandType.ACT: _issue_activate,
        CommandType.PRE: _issue_precharge,
        CommandType.ACT_ALL: _issue_activate_all,
        CommandType.PRE_ALL: _issue_precharge_all,
        CommandType.RD: _issue_column,
        CommandType.WR: _issue_column,
        CommandType.MAC_ALL: _issue_mac_all,
        CommandType.EWMUL: _issue_ewmul,
        CommandType.AF: _issue_af,
        CommandType.REF: _issue_refresh,
    }


@dataclass
class ReferencePIMChannelStats:
    """Per-channel activity counters beyond raw DRAM commands."""

    instructions: Dict[Opcode, int] = field(default_factory=dict)
    mac_micro_ops: int = 0
    shared_buffer_transfers: int = 0
    global_buffer_writes: int = 0

    def record_instruction(self, opcode: Opcode) -> None:
        self.instructions[opcode] = self.instructions.get(opcode, 0) + 1


class ReferencePIMChannel:
    """The PIM controller over :class:`ReferenceDRAMChannel`, building one
    :class:`DRAMCommand` per command."""

    def __init__(
        self,
        channel_id: int = 0,
        timing: TimingParameters = GDDR6_PIM_TIMINGS,
        geometry: ChannelGeometry = GDDR6_PIM_GEOMETRY,
    ) -> None:
        self.channel_id = channel_id
        self.timing = timing
        self.geometry = geometry
        self.dram = ReferenceDRAMChannel(timing=timing, geometry=geometry)
        self.stats = ReferencePIMChannelStats()
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
