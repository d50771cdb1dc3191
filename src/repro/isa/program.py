"""Program container and static statistics for CENT instruction traces."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.dram.channel import CodeCounter
from repro.isa.instructions import OPCODES, Instruction, Opcode

__all__ = ["Program", "ProgramStats"]


class ProgramStats:
    """Static statistics of a program, independent of any timing model.

    Counts by integer opcode code (``Instruction.code``); the dict views
    list opcodes in the order each was first recorded.
    """

    __slots__ = ("_instructions", "_micro_ops")

    def __init__(self) -> None:
        self._instructions = CodeCounter(OPCODES)
        self._micro_ops = CodeCounter(OPCODES)

    def record(self, instruction: Instruction) -> None:
        code = instruction.code
        self._instructions.add(code)
        self._micro_ops.add(code, instruction.micro_op_count)

    @property
    def instruction_counts(self) -> Dict[Opcode, int]:
        return self._instructions.items()

    @property
    def micro_op_counts(self) -> Dict[Opcode, int]:
        return self._micro_ops.items()

    @property
    def total_instructions(self) -> int:
        return self._instructions.total

    @property
    def total_micro_ops(self) -> int:
        return self._micro_ops.total

    def count(self, opcode: Opcode) -> int:
        return self._instructions[OPCODES.index(opcode)]

    def micro_ops(self, opcode: Opcode) -> int:
        return self._micro_ops[OPCODES.index(opcode)]

    def mac_fraction(self) -> float:
        """Fraction of arithmetic micro-ops that are MAC operations.

        The paper observes that MAC operations constitute over 99% of the
        arithmetic operations of a transformer block; this statistic lets
        tests check the same property on compiled programs.
        """
        arithmetic = sum(
            count for opcode, count in self.micro_op_counts.items() if opcode.is_arithmetic
        )
        if arithmetic == 0:
            return 0.0
        macs = self.micro_ops(Opcode.MAC_ABK) + self.micro_ops(Opcode.EW_MUL)
        return macs / arithmetic


class Program:
    """An ordered list of CENT instructions with a label and static stats."""

    def __init__(self, label: str = "program", instructions: Optional[Iterable[Instruction]] = None) -> None:
        self.label = label
        self._instructions: List[Instruction] = []
        self.stats = ProgramStats()
        if instructions is not None:
            for instruction in instructions:
                self.append(instruction)

    def append(self, instruction: Instruction) -> None:
        if not isinstance(instruction, Instruction):
            raise TypeError(f"expected an Instruction, got {type(instruction).__name__}")
        self._instructions.append(instruction)
        self.stats.record(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        for instruction in instructions:
            self.append(instruction)

    def concat(self, other: "Program") -> "Program":
        """Return a new program with ``other`` appended after ``self``."""
        combined = Program(label=f"{self.label}+{other.label}")
        combined.extend(self._instructions)
        combined.extend(other._instructions)
        return combined

    def filter(self, predicate) -> "Program":
        """Return a new program containing the instructions matching
        ``predicate``."""
        result = Program(label=f"{self.label}[filtered]")
        result.extend(inst for inst in self._instructions if predicate(inst))
        return result

    @property
    def instructions(self) -> List[Instruction]:
        return list(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __repr__(self) -> str:
        return f"Program(label={self.label!r}, instructions={len(self)})"
