"""Compiler from LLM operations to CENT instruction programs.

The CENT library exposes Python APIs for the common LLM operations (GEMV,
RMSNorm, RoPE, Softmax, SiLU/GeLU, element-wise products, residual additions)
and an in-house compiler lowers them to the arithmetic and data-movement
instructions of §4.3.  The unit of compilation is a *per-channel* instruction
stream: all PIM channels assigned to a transformer block execute the same
stream over their own slice of the weights, so the performance model needs to
simulate only one representative channel.

Operations that the PIM channels cannot perform (square root, division,
exponent normalisation, residual addition, RoPE packing) are emitted as
:class:`~repro.compiler.operations.PnmTask` work items handled by the PNM
accelerators and RISC-V cores.
"""

from repro.compiler.operations import BlockStep, CompiledOperation, PnmTask, PnmUnit
from repro.compiler.allocator import ChannelAllocator, MatrixPlacement
from repro.compiler.gemv import compile_gemv
from repro.compiler.elementwise import compile_elementwise_multiply, compile_activation
from repro.compiler.normalization import compile_rmsnorm
from repro.compiler.rope import compile_rope
from repro.compiler.attention import compile_attention
from repro.compiler.ffn import compile_ffn
from repro.compiler.transformer import BlockProgram, block_steps, compile_transformer_block

__all__ = [
    "CompiledOperation",
    "PnmTask",
    "PnmUnit",
    "ChannelAllocator",
    "MatrixPlacement",
    "compile_gemv",
    "compile_elementwise_multiply",
    "compile_activation",
    "compile_rmsnorm",
    "compile_rope",
    "compile_attention",
    "compile_ffn",
    "BlockProgram",
    "BlockStep",
    "block_steps",
    "compile_transformer_block",
]
