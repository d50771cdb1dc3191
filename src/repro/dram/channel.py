"""Command-level timing model of one GDDR6-PIM channel.

The channel schedules DRAM commands in program order, each at the earliest
time permitted by the GDDR6-PIM timing constraints.  It returns the issue
time of every command so higher layers (the PIM controller) can compute
instruction latencies, and it keeps per-command-type activity counters
consumed by the power model.

The model covers:

* per-bank activate / precharge / column constraints (tRC, tRP, tRAS, tRCD,
  tCCD_L, tWR),
* channel-wide column-bus occupancy (tCCD_S) — also the issue rate of the
  all-bank ``MACab`` command (one MAC step per tCCD_S, i.e. the 1 GHz PU
  clock),
* tRRD between activates to different banks,
* refresh overhead as a bandwidth derating factor (tRFC / tREFI), applied to
  the final busy time rather than by injecting individual REF commands.

State representation
--------------------
The 16 near-bank PUs of a channel run every all-bank command (``ACTab`` →
``MACab``… → ``PREab``) in lockstep (the AiM/Newton design), so the banks'
timing state is nearly always uniform.  The channel therefore keeps each
per-bank field (open row, last activate, last precharge, last column
access, end of write recovery) as one *broadcast* value plus a dict of the
per-bank *overrides* written since the last command that wrote the field in
every bank.  A bank's value is its override if it has one, else the
broadcast value.  An all-bank command reads a field's maximum over the banks
as the larger of the broadcast value (unless every bank is overridden) and
the overrides, and writes the field by replacing the broadcast value and
dropping the overrides: ``ACTab``, ``MACab``, ``PREab`` and ``EWMUL`` cost
O(1 + overrides) instead of O(banks).

This is exact, not an approximation.  Every bank constraint has the form
``x_b + c`` for a timing constant ``c``, and IEEE-754 addition rounds
monotonically, so ``max_b fl(x_b + c) == fl(max_b x_b + c)``: taking the
maximum before adding the constant yields the same bits as the per-bank
loop.  ``tests/reference_channel.py`` keeps that per-bank scheduler as the
oracle, and a derandomized property test holds the two to identical
outcomes on random programs, timings and geometries.

Commands are identified by integer codes (the position of their
:class:`~repro.dram.commands.CommandType` in ``COMMAND_KINDS``).  The PIM
controller calls the per-code methods (``activate_all``, ``column_burst``,
...) and builds no :class:`~repro.dram.commands.DRAMCommand`;
``CommandType`` keys appear only at the API edge: :meth:`DRAMChannel.issue`
and :attr:`CommandStats.counts`, which lists kinds in first-issue order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dram.commands import CommandType, DRAMCommand
from repro.dram.geometry import ChannelGeometry, GDDR6_PIM_GEOMETRY
from repro.dram.timing import TimingParameters, GDDR6_PIM_TIMINGS

__all__ = ["DRAMChannel", "CommandStats", "CodeCounter", "COMMAND_KINDS"]

#: Command kinds by integer code.
COMMAND_KINDS: Tuple[CommandType, ...] = tuple(CommandType)
_CODES: Dict[CommandType, int] = {kind: code for code, kind in enumerate(COMMAND_KINDS)}

ACT = _CODES[CommandType.ACT]
PRE = _CODES[CommandType.PRE]
RD = _CODES[CommandType.RD]
WR = _CODES[CommandType.WR]
ACT_ALL = _CODES[CommandType.ACT_ALL]
PRE_ALL = _CODES[CommandType.PRE_ALL]
MAC_ALL = _CODES[CommandType.MAC_ALL]
EWMUL = _CODES[CommandType.EWMUL]
AF = _CODES[CommandType.AF]
REF = _CODES[CommandType.REF]

#: Before any command, every timing field lies far in the past.
_NEVER = -1e18


class CodeCounter:
    """Counts per integer code, reported per key in first-issue order."""

    __slots__ = ("keys", "_counts", "_order")

    def __init__(self, keys: Sequence) -> None:
        self.keys = tuple(keys)
        self._counts: List[int] = [0] * len(self.keys)
        self._order: List[int] = []

    def add(self, code: int, amount: int = 1) -> None:
        counts = self._counts
        if not counts[code] and code not in self._order:
            self._order.append(code)
        counts[code] += amount

    def __getitem__(self, code: int) -> int:
        return self._counts[code]

    @property
    def total(self) -> int:
        return sum(self._counts)

    def items(self) -> Dict:
        """``{key: count}`` in the order each key was first counted."""
        return {self.keys[code]: self._counts[code] for code in self._order}


class CommandStats(CodeCounter):
    """Activity counters for one channel, consumed by the power model."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(COMMAND_KINDS)

    @property
    def counts(self) -> Dict[CommandType, int]:
        return self.items()

    def record(self, kind: CommandType, amount: int = 1) -> None:
        self.add(_CODES[kind], amount)

    def count(self, kind: CommandType) -> int:
        return self[_CODES[kind]]

    def merge(self, other: "CommandStats") -> None:
        for code in other._order:
            self.add(code, other._counts[code])


def _peak(value: float, overrides: Dict[int, float], num_banks: int) -> float:
    """Maximum over all banks of a field held as (broadcast, overrides).
    The all-bank commands test ``overrides`` before calling, so the common
    override-free case costs no call."""
    if not overrides:
        return value
    top = max(overrides.values())
    if len(overrides) < num_banks and value > top:
        return value
    return top


def _peak_in(value: float, overrides: Dict[int, float], banks: range) -> float:
    """Maximum of a field over ``banks`` (a contiguous bank range)."""
    if not overrides:
        return value
    top = None
    covered = 0
    for bank, override in overrides.items():
        if bank in banks:
            covered += 1
            if top is None or override > top:
                top = override
    if top is None or (covered < len(banks) and value > top):
        return value
    return top


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
        self.stats = CommandStats()
        self._counts = self.stats._counts  # counted into directly by _advance
        self._num_banks = geometry.num_banks
        self._t_rc = timing.t_rc
        self._group_size = geometry.banks_per_group
        self._derating = 1.0 + timing.t_rfc / timing.t_refi
        self.reset_time()

    # ------------------------------------------------------------------ helpers

    @property
    def now_ns(self) -> float:
        """Current channel time: when the last issued command completed issue."""
        return self._now

    def reset_time(self) -> None:
        """Reset the clock and bank state (activity counters are kept)."""
        self._now = 0.0
        self._last_column_bus = _NEVER
        self._last_activate_any = _NEVER
        # Per-bank fields: broadcast value + {bank: override}.
        self._open: Optional[int] = None
        self._open_at: Dict[int, Optional[int]] = {}
        self._act = _NEVER
        self._act_at: Dict[int, float] = {}
        self._pre = _NEVER
        self._pre_at: Dict[int, float] = {}
        self._col = _NEVER
        self._col_at: Dict[int, float] = {}
        self._wend = _NEVER
        self._wend_at: Dict[int, float] = {}

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self._num_banks:
            raise IndexError(f"bank {bank} out of range [0, {self._num_banks})")

    def _require_open(self, banks: range) -> None:
        """Raise unless every bank of ``banks`` has a row open."""
        open_at = self._open_at
        if self._open is not None and not open_at:
            return
        for bank in banks:
            if open_at.get(bank, self._open) is None:
                raise RuntimeError(
                    f"bank {bank}: column command issued with no open row")

    def _advance(self, code: int, time: float) -> float:
        """Count one ``code`` command issued at ``time``; return ``time``."""
        if self._counts[code]:
            self._counts[code] += 1
        else:
            self.stats.add(code)
        if time > self._now:
            self._now = time
        return time

    # ------------------------------------------------------------------ API edge

    def issue(self, command: DRAMCommand) -> float:
        """Schedule one command and return its issue time in nanoseconds."""
        code = _CODES[command.kind]
        if code == ACT:
            return self.activate(command.bank, command.row)
        if code == PRE:
            return self.precharge(command.bank)
        if code == ACT_ALL:
            return self.activate_all(command.row)
        if code == PRE_ALL:
            return self.precharge_all()
        if code == RD or code == WR:
            return self.column(code, command.bank)
        if code == MAC_ALL:
            return self.mac_all()
        if code == EWMUL:
            return self.ewmul(command.bank_group)
        if code == AF:
            return self.activation()
        return self.refresh()

    def issue_column_burst(self, command: DRAMCommand, count: int) -> float:
        """Issue ``count`` back-to-back column commands of the same kind."""
        if not command.kind.is_column_command:
            raise ValueError(f"{command.kind.value} is not a column command")
        return self.column_burst(_CODES[command.kind], count, bank=command.bank,
                                 bank_group=command.bank_group)

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
            completion *= self._derating
        return completion

    # ------------------------------------------------------------------ per code

    def activate(self, bank: int, row: int) -> float:
        """ACT: open ``row`` in one bank."""
        self._check_bank(bank)
        timing = self.timing
        time = max(
            self._now,
            self._act_at.get(bank, self._act) + self._t_rc,
            self._pre_at.get(bank, self._pre) + timing.t_rp,
            self._last_activate_any + timing.t_rrd,
        )
        self._open_at[bank] = row
        self._act_at[bank] = time
        self._last_activate_any = time
        return self._advance(ACT, time)

    def precharge(self, bank: int) -> float:
        """PRE: close the open row of one bank."""
        self._check_bank(bank)
        time = max(
            self._now,
            self._act_at.get(bank, self._act) + self.timing.t_ras,
            self._wend_at.get(bank, self._wend) + self.timing.t_wr,
        )
        self._open_at[bank] = None
        self._pre_at[bank] = time
        return self._advance(PRE, time)

    def activate_all(self, row: int) -> float:
        """ACTab: activate the same row in every bank of the channel."""
        act = _peak(self._act, self._act_at, self._num_banks) if self._act_at else self._act
        pre = _peak(self._pre, self._pre_at, self._num_banks) if self._pre_at else self._pre
        time = max(
            self._now,
            act + self._t_rc,
            pre + self.timing.t_rp,
            self._last_activate_any + self.timing.t_rrd,
        )
        self._open = row
        self._open_at.clear()
        self._act = time
        self._act_at.clear()
        self._last_activate_any = time
        return self._advance(ACT_ALL, time)

    def precharge_all(self) -> float:
        """PREab: precharge every bank."""
        time = self._precharge_all_time()
        self._close_all(time)
        return self._advance(PRE_ALL, time)

    def column(self, code: int, bank: int) -> float:
        """RD / WR to one bank (``code`` is ``RD`` or ``WR``)."""
        self._check_bank(bank)
        self._require_open(range(bank, bank + 1))
        timing = self.timing
        is_write = code == WR
        time = max(
            self._now,
            self._act_at.get(bank, self._act)
            + (timing.t_rcd_wr if is_write else timing.t_rcd_rd),
            self._col_at.get(bank, self._col) + timing.t_ccd_l,
            self._last_column_bus + timing.t_ccd_s,
        )
        self._col_at[bank] = time
        if is_write:
            self._wend_at[bank] = time + timing.t_cwl + timing.burst_ns
        self._last_column_bus = time
        return self._advance(code, time)

    def mac_all(self) -> float:
        """MACab: one MAC step in all 16 near-bank PUs.

        All banks must have a row open (the controller issues ACTab first).
        Successive MACab commands are pipelined at tCCD_S, i.e. one 256-bit
        operand per bank per nanosecond — the 1 GHz PU rate.
        """
        if self._open is None or self._open_at:
            self._require_open(range(self._num_banks))
        act = _peak(self._act, self._act_at, self._num_banks) if self._act_at else self._act
        col = _peak(self._col, self._col_at, self._num_banks) if self._col_at else self._col
        timing = self.timing
        time = max(
            self._now,
            self._last_column_bus + timing.t_ccd_s,
            act + timing.t_rcd_rd,
            col + timing.t_ccd_s,
        )
        self._col = time
        self._col_at.clear()
        self._last_column_bus = time
        return self._advance(MAC_ALL, time)

    def ewmul(self, bank_group: int) -> float:
        """EWMUL: element-wise multiply of two banks in a bank group, with the
        result written to a third bank of the group (its last bank).
        Occupies the column bus like a column command and also incurs the
        write recovery of the destination bank."""
        if not 0 <= bank_group < self.geometry.num_bank_groups:
            raise IndexError(f"bank group {bank_group} out of range")
        first = bank_group * self._group_size
        banks = range(first, first + self._group_size)
        self._require_open(banks)
        timing = self.timing
        time = max(
            self._now,
            self._last_column_bus + timing.t_ccd_s,
            _peak_in(self._act, self._act_at, banks) + timing.t_rcd_rd,
            _peak_in(self._col, self._col_at, banks) + timing.t_ccd_s,
        )
        col_at = self._col_at
        for bank in banks:
            col_at[bank] = time
        self._wend_at[banks[-1]] = time + timing.t_cwl + timing.burst_ns
        self._last_column_bus = time
        return self._advance(EWMUL, time)

    def activation(self) -> float:
        """AF: activation-function lookup in the near-bank PUs.  Modelled as a
        column access (LUT read) on the column bus."""
        time = max(self._now, self._last_column_bus + self.timing.t_ccd_l)
        self._last_column_bus = time
        return self._advance(AF, time)

    def refresh(self) -> float:
        """REF: precharge every bank and block activates for tRFC.  Returns
        the end of the refresh."""
        timing = self.timing
        time = self._precharge_all_time()
        self._close_all(time)
        self._act = time + timing.t_rfc - self._t_rc
        self._act_at.clear()
        return self._advance(REF, time + timing.t_rfc)

    def column_burst(self, code: int, count: int, bank: int = 0,
                     bank_group: int = 0) -> float:
        """Issue ``count`` back-to-back column commands of kind ``code``.

        A burst repeatedly targets the same bank (or, for the all-bank PIM
        commands MACab and EWMUL, all banks).  All-bank PIM commands
        pipeline at tCCD_S — the 1 GHz PU clock — while ordinary per-bank
        reads/writes obey the per-bank-group tCCD_L.  The burst is scheduled
        as the first command followed by ``count - 1`` commands at that
        spacing, which keeps the cost of large ``OPsize`` instructions
        independent of the size.  The burst's last command is recorded as a
        column access of every affected bank; the write recovery of a WR
        burst's bank moves to its last command, but an EWMUL burst leaves
        the destination banks' write recovery at the first command (see
        ROADMAP item 5).
        """
        if count <= 0:
            raise ValueError("burst count must be positive")
        if code == MAC_ALL:
            first = self.mac_all()
        elif code == EWMUL:
            first = self.ewmul(bank_group)
        else:
            first = self.column(code, bank)
        if count == 1:
            return first
        timing = self.timing
        if code == MAC_ALL or code == EWMUL:
            last = first + (count - 1) * timing.t_ccd_s
            self._col = last
            self._col_at.clear()
        else:
            last = first + (count - 1) * timing.t_ccd_l
            self._col_at[bank] = last
            if code == WR:
                self._wend_at[bank] = last + timing.t_cwl + timing.burst_ns
        self._last_column_bus = last
        self.stats.add(code, count - 1)
        if last > self._now:
            self._now = last
        return last

    def _precharge_all_time(self) -> float:
        act = _peak(self._act, self._act_at, self._num_banks) if self._act_at else self._act
        wend = (_peak(self._wend, self._wend_at, self._num_banks) if self._wend_at
                else self._wend)
        return max(self._now, act + self.timing.t_ras, wend + self.timing.t_wr)

    def _close_all(self, time: float) -> None:
        self._open = None
        self._open_at.clear()
        self._pre = time
        self._pre_at.clear()

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
