"""Per-bank and per-bank-group state machines.

A bank tracks its open row and the earliest time each class of command may be
issued to it.  These are the per-bank timing rules of the channel model:
``repro.dram.channel.DRAMChannel`` applies the same rules to all banks at
once (one broadcast value per field plus per-bank overrides) and combines
them with channel-wide constraints (column bus occupancy, tRRD, refresh);
the per-bank reference scheduler in ``tests/reference_channel.py`` keeps
one ``Bank`` per bank and is that model's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dram.timing import TimingParameters

__all__ = ["Bank", "BankGroup"]


@dataclass
class Bank:
    """State of a single DRAM bank."""

    index: int
    timing: TimingParameters
    open_row: Optional[int] = None
    last_activate: float = field(default=-1e18)
    last_precharge: float = field(default=-1e18)
    last_column_access: float = field(default=-1e18)
    last_write_end: float = field(default=-1e18)
    activate_count: int = 0
    precharge_count: int = 0

    def earliest_activate(self, now: float) -> float:
        """Earliest time a new row may be activated in this bank."""
        ready = max(
            self.last_activate + self.timing.t_rc,
            self.last_precharge + self.timing.t_rp,
        )
        return max(now, ready)

    def earliest_precharge(self, now: float) -> float:
        """Earliest time the open row may be precharged."""
        ready = max(
            self.last_activate + self.timing.t_ras,
            self.last_write_end + self.timing.t_wr,
        )
        return max(now, ready)

    def earliest_column(self, now: float, is_write: bool, all_bank: bool = False) -> float:
        """Earliest time a column command (RD/WR/MAC) may be issued.

        ``all_bank`` selects the AiM-style all-bank PIM commands (MACab,
        EWMUL), which the PIM channel pipelines at tCCD_S — the 1 GHz
        near-bank PU clock — instead of the per-bank-group tCCD_L that
        ordinary reads and writes obey.
        """
        if self.open_row is None:
            raise RuntimeError(
                f"bank {self.index}: column command issued with no open row"
            )
        rcd = self.timing.t_rcd_wr if is_write else self.timing.t_rcd_rd
        spacing = self.timing.t_ccd_s if all_bank else self.timing.t_ccd_l
        ready = max(
            self.last_activate + rcd,
            self.last_column_access + spacing,
        )
        return max(now, ready)

    def record_activate(self, time: float, row: int) -> None:
        self.open_row = row
        self.last_activate = time
        self.activate_count += 1

    def record_precharge(self, time: float) -> None:
        self.open_row = None
        self.last_precharge = time
        self.precharge_count += 1

    def record_column(self, time: float, is_write: bool) -> None:
        self.last_column_access = time
        if is_write:
            self.last_write_end = time + self.timing.t_cwl + self.timing.burst_ns


@dataclass
class BankGroup:
    """A group of banks sharing the long column-to-column delay (tCCD_L)."""

    index: int
    banks: list

    def __post_init__(self) -> None:
        if not self.banks:
            raise ValueError("a bank group must contain at least one bank")

    def bank(self, local_index: int) -> Bank:
        return self.banks[local_index]
