"""Data structures produced by the compiler."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.isa.program import Program

if TYPE_CHECKING:
    from repro.compiler.allocator import ChannelAllocator
    from repro.dram.geometry import ChannelGeometry

__all__ = ["PnmUnit", "PnmTask", "CompiledOperation", "BlockStep"]


class PnmUnit(enum.Enum):
    """PNM execution resources a task can target."""

    ACCUMULATOR = "accumulator"
    REDUCTION = "reduction"
    EXPONENT = "exponent"
    RISCV = "riscv"


@dataclass(frozen=True)
class PnmTask:
    """One unit of PNM work: which resource, which routine, how many elements."""

    unit: PnmUnit
    num_elements: int
    routine: str = ""

    def __post_init__(self) -> None:
        if self.num_elements <= 0:
            raise ValueError("a PNM task must process at least one element")
        if self.unit is PnmUnit.RISCV and not self.routine:
            raise ValueError("RISC-V tasks must name their routine")


@dataclass
class CompiledOperation:
    """One LLM operation lowered onto the CENT hardware.

    Attributes
    ----------
    name:
        Human-readable operation name, e.g. ``"ffn.w1_gemv"``.
    program:
        Per-channel PIM instruction stream.  Every channel assigned to the
        operation executes the same stream over its own weight slice.
    pnm_tasks:
        PNM accelerator / RISC-V work items executed on the device's shared
        PNM units after (or between) the PIM phases.
    parallel_channels:
        Number of PIM channels executing ``program`` concurrently.
    flops:
        Total arithmetic operations across all channels (multiply+add = 2).
    dram_bytes_read:
        Total bytes streamed out of DRAM banks across all channels
        (weights, KV-cache entries and stored activations).
    """

    name: str
    program: Program
    pnm_tasks: List[PnmTask] = field(default_factory=list)
    parallel_channels: int = 1
    flops: int = 0
    dram_bytes_read: int = 0

    def __post_init__(self) -> None:
        if self.parallel_channels <= 0:
            raise ValueError("parallel_channels must be positive")
        if self.flops < 0 or self.dram_bytes_read < 0:
            raise ValueError("flops and byte counts must be non-negative")

    @property
    def mac_micro_ops(self) -> int:
        """Per-channel MAC micro-op count (timing proxy for PIM work)."""
        from repro.isa.instructions import Opcode

        return self.program.stats.micro_ops(Opcode.MAC_ABK)


@dataclass(frozen=True)
class BlockStep:
    """One step of a transformer block before compilation: a compile
    function and the arguments it is called with.

    ``compile(name, *args, allocator=..., geometry=...)`` returns the step's
    compiled operations in order.  ``allocator`` names the channel
    allocator the step places its matrices with (``None`` for a step that
    allocates nothing).  Steps compare and hash on (compile, args,
    allocator) but not on ``name``, which only labels the operations: two
    equal steps compile to the same programs, flops, DRAM bytes and PNM
    tasks, and advance their allocator by the same number of rows, whenever
    their allocators start at the same row.
    """

    name: str = field(compare=False)
    compile: Callable[..., List[CompiledOperation]]
    args: Tuple = ()
    allocator: Optional[str] = None

    def compile_on(self, allocator: Optional["ChannelAllocator"],
                   geometry: "ChannelGeometry") -> List[CompiledOperation]:
        return self.compile(self.name, *self.args, allocator=allocator,
                            geometry=geometry)
