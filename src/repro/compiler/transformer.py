"""Transformer-block compiler (Figure 10a).

``compile_transformer_block`` lowers one decoder block — attention with
rotary embedding and grouped-query support, residual connections, RMSNorm and
the feed-forward network — onto the PIM channels assigned to it, producing a
:class:`BlockProgram`: the ordered list of compiled operations together with
the residual-connection PNM tasks.  The block is one list of
:class:`~repro.compiler.operations.BlockStep` descriptors
(:func:`block_steps`): ``compile_transformer_block`` compiles every step,
while the performance model walks the same list and compiles a step only
when its process-wide memo has not seen the step's compile inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.compiler.allocator import ChannelAllocator
from repro.compiler.attention import compile_attention
from repro.compiler.ffn import compile_ffn
from repro.compiler.gemv import compile_gemv
from repro.compiler.normalization import compile_rmsnorm
from repro.compiler.operations import BlockStep, CompiledOperation, PnmTask, PnmUnit
from repro.compiler.rope import compile_rope
from repro.dram.geometry import ChannelGeometry, GDDR6_PIM_GEOMETRY
from repro.isa.program import Program
from repro.models.config import ModelConfig

__all__ = ["BlockProgram", "block_steps", "compile_transformer_block"]


@dataclass
class BlockProgram:
    """All compiled operations of one transformer block for one token."""

    model: ModelConfig
    context_length: int
    num_channels: int
    attention_channels: int = 0
    operations: List[CompiledOperation] = field(default_factory=list)
    allocator: ChannelAllocator = field(default_factory=ChannelAllocator)

    def __post_init__(self) -> None:
        if self.attention_channels <= 0:
            self.attention_channels = self.num_channels

    @property
    def total_flops(self) -> int:
        return sum(op.flops for op in self.operations)

    @property
    def total_dram_bytes(self) -> int:
        return sum(op.dram_bytes_read for op in self.operations)

    @property
    def total_instructions(self) -> int:
        return sum(len(op.program) for op in self.operations)

    @property
    def pnm_tasks(self) -> List[PnmTask]:
        tasks: List[PnmTask] = []
        for op in self.operations:
            tasks.extend(op.pnm_tasks)
        return tasks

    def operation(self, name: str) -> CompiledOperation:
        for op in self.operations:
            if op.name == name:
                return op
        raise KeyError(f"block has no operation named {name!r}")

    def mac_fraction(self) -> float:
        """Fraction of element-level arithmetic operations that are MACs.

        The paper reports this exceeds 99% for a transformer block, which
        motivates the hierarchical PIM-PNM split.  Micro-op counts are
        weighted by the number of BF16 element operations each performs: a
        ``MAC_ABK`` micro-op drives all 16 near-bank PUs over 16 lanes, an
        ``EW_MUL`` micro-op multiplies 16 lanes in each of the 4 bank groups,
        and PNM tasks are already expressed in elements.
        """
        from repro.isa.instructions import Opcode

        mac_elements = 0
        other_elements = 0
        banks = 16
        lanes = 16
        groups = 4
        for op in self.operations:
            stats = op.program.stats
            mac_elements += stats.micro_ops(Opcode.MAC_ABK) * banks * lanes
            mac_elements += stats.micro_ops(Opcode.EW_MUL) * groups * lanes
            other_elements += stats.micro_ops(Opcode.AF) * banks * lanes
        other_elements += sum(task.num_elements for task in self.pnm_tasks)
        total = mac_elements + other_elements
        return mac_elements / total if total else 0.0


#: Allocator roles of block steps: the fully-connected weights' allocator
#: and the attention layer's (one allocator when both run on the same
#: channels).
FC_ALLOCATOR = "fc"
ATTENTION_ALLOCATOR = "attention"


def block_steps(
    model: ModelConfig,
    context_length: int,
    num_channels: int,
    attention_channels: int | None = None,
) -> List[BlockStep]:
    """The steps of one transformer block for a single token, in execution
    order.  Arguments as for :func:`compile_transformer_block`."""
    if context_length <= 0:
        raise ValueError("context length must be positive")
    if context_length > model.max_context:
        raise ValueError(
            f"context {context_length} exceeds {model.name}'s maximum "
            f"of {model.max_context}"
        )
    if num_channels <= 0:
        raise ValueError("num_channels must be positive")
    if attention_channels is None:
        attention_channels = num_channels
    if attention_channels <= 0:
        raise ValueError("attention_channels must be positive")

    fc = FC_ALLOCATOR
    attention = fc if attention_channels == num_channels else ATTENTION_ALLOCATOR
    d_model = model.d_model
    steps = [
        BlockStep("attn.rmsnorm", _rmsnorm, (d_model, attention_channels)),
        BlockStep("attn.wq", _gemv, (d_model, d_model, num_channels), fc),
        BlockStep("attn.wk", _gemv, (model.kv_dim, d_model, num_channels), fc),
        BlockStep("attn.wv", _gemv, (model.kv_dim, d_model, num_channels), fc),
    ]
    if model.positional_encoding == "rotary":
        steps.append(BlockStep("attn.rope", _rope,
                               (d_model + model.kv_dim, attention_channels)))
    steps += [
        BlockStep("attention", _attention,
                  (model, context_length, attention_channels), attention),
        BlockStep("attn.wo", _gemv, (d_model, d_model, num_channels), fc),
        BlockStep("attn.residual", _residual, (d_model, attention_channels)),
        BlockStep("ffn.rmsnorm", _rmsnorm, (d_model, attention_channels)),
        BlockStep("ffn", _ffn, (model, num_channels), fc),
        BlockStep("ffn.residual", _residual, (d_model, attention_channels)),
    ]
    return steps


def compile_transformer_block(
    model: ModelConfig,
    context_length: int,
    num_channels: int,
    attention_channels: int | None = None,
    geometry: ChannelGeometry = GDDR6_PIM_GEOMETRY,
) -> BlockProgram:
    """Compile one transformer block for a single token at ``context_length``.

    ``num_channels`` is the channel count executing the sharded
    fully-connected layers; ``attention_channels`` (defaulting to
    ``num_channels``) is the channel count of the master device that runs the
    normalisation, RoPE and attention layers under tensor parallelism.
    The block is the concatenation of its :func:`block_steps`, each compiled
    on its role's allocator.
    """
    steps = block_steps(model, context_length, num_channels, attention_channels)
    allocators: Dict[str, ChannelAllocator] = {}
    operations: List[CompiledOperation] = []
    for step in steps:
        allocator = None
        if step.allocator is not None:
            allocator = allocators.setdefault(step.allocator,
                                              ChannelAllocator(geometry))
        operations.extend(step.compile_on(allocator, geometry))
    return BlockProgram(
        model=model,
        context_length=context_length,
        num_channels=num_channels,
        attention_channels=attention_channels or num_channels,
        operations=operations,
        allocator=allocators[FC_ALLOCATOR],
    )


# Block steps: every compile function takes (name, *args, allocator,
# geometry) and returns the step's operations.

def _rmsnorm(name, hidden_dim, num_channels, allocator, geometry):
    return [compile_rmsnorm(name, hidden_dim, num_channels, geometry=geometry)]


def _gemv(name, out_dim, in_dim, num_channels, allocator, geometry):
    return [compile_gemv(name, out_dim=out_dim, in_dim=in_dim,
                         num_channels=num_channels, allocator=allocator,
                         geometry=geometry)]


def _rope(name, num_elements, num_channels, allocator, geometry):
    return [compile_rope(name, num_elements=num_elements,
                         num_channels=num_channels, geometry=geometry)]


def _attention(name, model, context_length, num_channels, allocator, geometry):
    return compile_attention(model, context_length, num_channels,
                             allocator=allocator, geometry=geometry).operations


def _ffn(name, model, num_channels, allocator, geometry):
    return compile_ffn(model, num_channels, allocator=allocator,
                       geometry=geometry).operations


def _residual(name, num_elements, num_channels, allocator, geometry):
    """A residual connection: RISC-V work only, no PIM program."""
    return [CompiledOperation(
        name=name,
        program=Program(label=name),
        pnm_tasks=[PnmTask(PnmUnit.RISCV, num_elements=num_elements,
                           routine="residual_add")],
        parallel_channels=num_channels,
        flops=num_elements,
    )]
