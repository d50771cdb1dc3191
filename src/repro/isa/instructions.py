"""CENT instruction dataclasses.

Field names follow the assembly syntax of Tables 2 and 3:

* ``ch_mask`` — bitmask of PIM channels the PIM decoder broadcasts micro-ops
  to (``CHmask``).
* ``op_size`` — number of micro-ops generated from the instruction, each
  targeting the next shared-buffer slot / DRAM column (``OPsize``).
* ``row`` / ``column`` — DRAM row and starting column (``RO``, ``CO``).
* ``reg_id`` — accumulation register inside the near-bank PU (``Regid``).
* ``af_id`` — activation-function table selector (``AFid``).
* ``rd`` / ``rs`` — destination / source shared-buffer slot addresses.
* ``device_id`` / ``device_count`` — CXL destination device id (``DVid``) or
  broadcast fan-out (``DVcount``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "OPCODES",
    "Opcode",
    "Instruction",
    "MacAllBank",
    "ElementwiseMul",
    "ActivationFunction",
    "Exponent",
    "Reduction",
    "Accumulation",
    "RiscvOp",
    "SendCxl",
    "RecvCxl",
    "BroadcastCxl",
    "WriteSingleBank",
    "ReadSingleBank",
    "WriteAllBanks",
    "CopyBankToGlobalBuffer",
    "CopyGlobalBufferToBank",
    "WriteBias",
    "ReadMacRegister",
    "WriteGlobalBuffer",
]


class Opcode(enum.Enum):
    """Assembly mnemonics of the CENT ISA."""

    MAC_ABK = "MAC_ABK"
    EW_MUL = "EW_MUL"
    AF = "AF"
    EXP = "EXP"
    RED = "RED"
    ACC = "ACC"
    RISCV = "RISCV"
    SEND_CXL = "SEND_CXL"
    RECV_CXL = "RECV_CXL"
    BCAST_CXL = "BCAST_CXL"
    WR_SBK = "WR_SBK"
    RD_SBK = "RD_SBK"
    WR_ABK = "WR_ABK"
    COPY_BKGB = "COPY_BKGB"
    COPY_GBBK = "COPY_GBBK"
    WR_BIAS = "WR_BIAS"
    RD_MAC = "RD_MAC"
    WR_GB = "WR_GB"

    @property
    def is_arithmetic(self) -> bool:
        return self in (Opcode.MAC_ABK, Opcode.EW_MUL, Opcode.AF,
                        Opcode.EXP, Opcode.RED, Opcode.ACC, Opcode.RISCV)

    @property
    def is_pim(self) -> bool:
        """Instructions executed by the near-bank PUs / PIM channels."""
        return self in (Opcode.MAC_ABK, Opcode.EW_MUL, Opcode.AF,
                        Opcode.WR_SBK, Opcode.RD_SBK, Opcode.WR_ABK,
                        Opcode.COPY_BKGB, Opcode.COPY_GBBK,
                        Opcode.WR_BIAS, Opcode.RD_MAC, Opcode.WR_GB)

    @property
    def is_pnm(self) -> bool:
        """Instructions executed by the PNM accelerators / RISC-V cores."""
        return self in (Opcode.EXP, Opcode.RED, Opcode.ACC, Opcode.RISCV)

    @property
    def is_cxl(self) -> bool:
        """Inter-device communication instructions."""
        return self in (Opcode.SEND_CXL, Opcode.RECV_CXL, Opcode.BCAST_CXL)


#: Every opcode, in declaration order; an opcode's index is its code.
OPCODES = tuple(Opcode)


@dataclass
class Instruction:
    """Base class of all CENT instructions."""

    opcode: ClassVar[Opcode]
    #: ``opcode``'s index in :data:`OPCODES`: per-opcode counters index by
    #: it instead of hashing the enum member (a Python-level hash).
    code: ClassVar[int]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "opcode" in cls.__dict__:
            cls.code = OPCODES.index(cls.opcode)

    @property
    def micro_op_count(self) -> int:
        """Number of micro-ops the decoder expands this instruction into."""
        return getattr(self, "op_size", 1)


# --------------------------------------------------------------------------- PIM arithmetic

@dataclass
class MacAllBank(Instruction):
    """``MAC_ABK CHmask OPsize RO CO Regid`` — one MAC sweep across all banks
    of the selected channels, ``op_size`` consecutive columns starting at
    (``row``, ``column``), accumulating into register ``reg_id``."""

    opcode: ClassVar[Opcode] = Opcode.MAC_ABK
    ch_mask: int = 1
    op_size: int = 1
    row: int = 0
    column: int = 0
    reg_id: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)
        _require_mask("ch_mask", self.ch_mask)
        if not 0 <= self.reg_id < 32:
            raise ValueError(f"reg_id must be in [0, 32), got {self.reg_id}")


@dataclass
class ElementwiseMul(Instruction):
    """``EW_MUL CHmask OPsize RO CO`` — element-wise multiply of two banks in
    each bank group, result stored in a third bank of the group."""

    opcode: ClassVar[Opcode] = Opcode.EW_MUL
    ch_mask: int = 1
    op_size: int = 1
    row: int = 0
    column: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)
        _require_mask("ch_mask", self.ch_mask)


@dataclass
class ActivationFunction(Instruction):
    """``AF CHmask AFid Regid`` — lookup-table activation applied to the value
    in accumulation register ``reg_id``."""

    opcode: ClassVar[Opcode] = Opcode.AF
    ch_mask: int = 1
    af_id: int = 0
    reg_id: int = 0

    def __post_init__(self) -> None:
        _require_mask("ch_mask", self.ch_mask)
        if self.af_id < 0:
            raise ValueError("af_id must be non-negative")


# --------------------------------------------------------------------------- PNM arithmetic

@dataclass
class Exponent(Instruction):
    """``EXP OPsize Rd Rs`` — exponent of 16 BF16 lanes per shared-buffer slot."""

    opcode: ClassVar[Opcode] = Opcode.EXP
    op_size: int = 1
    rd: int = 0
    rs: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)


@dataclass
class Reduction(Instruction):
    """``RED OPsize Rd Rs`` — reduce 16 BF16 lanes of each slot to one value."""

    opcode: ClassVar[Opcode] = Opcode.RED
    op_size: int = 1
    rd: int = 0
    rs: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)


@dataclass
class Accumulation(Instruction):
    """``ACC OPsize Rd Rs`` — lane-wise accumulation of two slots."""

    opcode: ClassVar[Opcode] = Opcode.ACC
    op_size: int = 1
    rd: int = 0
    rs: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)


@dataclass
class RiscvOp(Instruction):
    """``RISCV OPsize PC Rd Rs`` — run a RISC-V routine starting at ``pc``.

    ``routine`` names the functional behaviour (for the functional simulator)
    such as ``"sqrt_inv"``, ``"softmax_scale"``, ``"rope_pack"``,
    ``"rope_unpack"`` or ``"residual_add"``.
    """

    opcode: ClassVar[Opcode] = Opcode.RISCV
    op_size: int = 1
    pc: int = 0
    rd: int = 0
    rs: int = 0
    routine: str = "generic"

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)


# --------------------------------------------------------------------------- CXL data movement

@dataclass
class SendCxl(Instruction):
    """``SEND_CXL DVid Rs Rd`` — non-blocking send of one shared-buffer slot
    range to device ``device_id``."""

    opcode: ClassVar[Opcode] = Opcode.SEND_CXL
    device_id: int = 0
    rs: int = 0
    rd: int = 0
    num_slots: int = 1

    def __post_init__(self) -> None:
        _require_positive("num_slots", self.num_slots)
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")


@dataclass
class RecvCxl(Instruction):
    """``RECV_CXL`` — blocking receive; no device id (sender order is
    inconsequential)."""

    opcode: ClassVar[Opcode] = Opcode.RECV_CXL
    num_slots: int = 1

    def __post_init__(self) -> None:
        _require_positive("num_slots", self.num_slots)


@dataclass
class BroadcastCxl(Instruction):
    """``BCAST_CXL DVcount Rs Rd`` — broadcast to ``device_count`` subsequent
    devices via the reserved H-slot code of the PBR flit."""

    opcode: ClassVar[Opcode] = Opcode.BCAST_CXL
    device_count: int = 1
    rs: int = 0
    rd: int = 0
    num_slots: int = 1

    def __post_init__(self) -> None:
        _require_positive("device_count", self.device_count)
        _require_positive("num_slots", self.num_slots)


# --------------------------------------------------------------------------- intra-device data movement

@dataclass
class WriteSingleBank(Instruction):
    """``WR_SBK CHid OPsize BK RO CO Rs`` — shared buffer -> one DRAM bank."""

    opcode: ClassVar[Opcode] = Opcode.WR_SBK
    ch_id: int = 0
    op_size: int = 1
    bank: int = 0
    row: int = 0
    column: int = 0
    rs: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)


@dataclass
class ReadSingleBank(Instruction):
    """``RD_SBK CHid OPsize BK RO CO Rd`` — one DRAM bank -> shared buffer."""

    opcode: ClassVar[Opcode] = Opcode.RD_SBK
    ch_id: int = 0
    op_size: int = 1
    bank: int = 0
    row: int = 0
    column: int = 0
    rd: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)


@dataclass
class WriteAllBanks(Instruction):
    """``WR_ABK CHid RO CO Rs Regid`` — scatter the 16 BF16 elements of one
    shared-buffer slot to the same (row, column) of all 16 banks."""

    opcode: ClassVar[Opcode] = Opcode.WR_ABK
    ch_id: int = 0
    row: int = 0
    column: int = 0
    rs: int = 0
    reg_id: int = 0


@dataclass
class CopyBankToGlobalBuffer(Instruction):
    """``COPY_BKGB CHmask OPsize RO CO`` — bank -> global buffer copy."""

    opcode: ClassVar[Opcode] = Opcode.COPY_BKGB
    ch_mask: int = 1
    op_size: int = 1
    row: int = 0
    column: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)
        _require_mask("ch_mask", self.ch_mask)


@dataclass
class CopyGlobalBufferToBank(Instruction):
    """``COPY_GBBK CHmask OPsize RO CO`` — global buffer -> bank copy."""

    opcode: ClassVar[Opcode] = Opcode.COPY_GBBK
    ch_mask: int = 1
    op_size: int = 1
    row: int = 0
    column: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)
        _require_mask("ch_mask", self.ch_mask)


@dataclass
class WriteBias(Instruction):
    """``WR_BIAS CHmask Rs`` — initialise the accumulation registers."""

    opcode: ClassVar[Opcode] = Opcode.WR_BIAS
    ch_mask: int = 1
    rs: int = 0

    def __post_init__(self) -> None:
        _require_mask("ch_mask", self.ch_mask)


@dataclass
class ReadMacRegister(Instruction):
    """``RD_MAC CHmask Rd Regid`` — read accumulation registers to the shared
    buffer."""

    opcode: ClassVar[Opcode] = Opcode.RD_MAC
    ch_mask: int = 1
    rd: int = 0
    reg_id: int = 0

    def __post_init__(self) -> None:
        _require_mask("ch_mask", self.ch_mask)


@dataclass
class WriteGlobalBuffer(Instruction):
    """``WR_GB CHmask OPsize CO Rs`` — shared buffer -> global buffer."""

    opcode: ClassVar[Opcode] = Opcode.WR_GB
    ch_mask: int = 1
    op_size: int = 1
    column: int = 0
    rs: int = 0

    def __post_init__(self) -> None:
        _require_positive("op_size", self.op_size)
        _require_mask("ch_mask", self.ch_mask)


# --------------------------------------------------------------------------- validation helpers

def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _require_mask(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must select at least one channel, got {value}")
