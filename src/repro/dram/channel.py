"""Command-level timing model of one GDDR6-PIM channel.

The channel accepts :class:`~repro.dram.commands.DRAMCommand` objects in
program order and schedules each at the earliest time permitted by the
GDDR6-PIM timing constraints.  It returns the issue time of every command so
higher layers (the PIM controller) can compute instruction latencies, and it
keeps per-command-type activity counters consumed by the power model.

The model covers:

* per-bank activate / precharge / column constraints (tRC, tRP, tRAS, tRCD,
  tCCD_L, tWR),
* channel-wide column-bus occupancy (tCCD_S) — also the issue rate of the
  all-bank ``MACab`` command (one MAC step per tCCD_S, i.e. the 1 GHz PU
  clock),
* tRRD between activates to different banks,
* refresh overhead as a bandwidth derating factor (tRFC / tREFI), applied to
  the final busy time rather than by injecting individual REF commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dram.bank import Bank, BankGroup
from repro.dram.commands import CommandType, DRAMCommand
from repro.dram.geometry import ChannelGeometry, GDDR6_PIM_GEOMETRY
from repro.dram.timing import TimingParameters, GDDR6_PIM_TIMINGS

__all__ = ["DRAMChannel", "CommandStats"]


@dataclass
class CommandStats:
    """Activity counters for one channel, consumed by the power model."""

    counts: Dict[CommandType, int] = field(default_factory=dict)

    def record(self, kind: CommandType, amount: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def count(self, kind: CommandType) -> int:
        return self.counts.get(kind, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "CommandStats") -> None:
        for kind, amount in other.counts.items():
            self.record(kind, amount)


class DRAMChannel:
    """Timing/state model of a single GDDR6-PIM channel."""

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
        self.stats = CommandStats()
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
        command followed by ``count - 1`` commands at that spacing, which is
        timing-equivalent to issuing them one by one while keeping the cost
        of large ``OPsize`` instructions independent of the size.
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

    # ------------------------------------------------------------------ throughput

    def peak_internal_bandwidth_gbps(self) -> float:
        """Peak internal bandwidth of this channel in GB/s.

        16 banks each deliver a 32-byte burst per tCCD_S to their local PU:
        16 * 32 B / 1 ns = 512 GB/s, matching the paper's 512 TB/s across
        1024 channels.
        """
        bytes_per_burst = self.geometry.access_granularity_bytes
        return (
            self.geometry.num_banks
            * bytes_per_burst
            / self.timing.t_ccd_s
        )

    def peak_compute_gflops(self) -> float:
        """Peak BF16 MAC throughput of the channel in GFLOPS.

        Each of the 16 PUs performs a 16-wide MAC (32 FLOPs) per tCCD_S.
        """
        flops_per_pu_per_cmd = 2 * self.geometry.elements_per_access
        return (
            self.geometry.num_banks
            * flops_per_pu_per_cmd
            / self.timing.t_ccd_s
        )
