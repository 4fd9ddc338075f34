"""The TRIPS EDGE instruction set architecture.

Public API::

    from repro.isa import (
        Opcode, Format, OpClass, Instruction, Target, OperandKind,
        TripsBlock, ReadInstruction, WriteInstruction, Program,
        ProgramBuilder, make,
    )
"""

from .opcodes import ACCESS_SIZE, BY_MNEMONIC, Format, OpClass, Opcode
from .targets import OperandKind, Target
from .encoding import EncodingError, Instruction, make
from .block import (
    BlockError,
    CHUNK_BYTES,
    MAX_BODY_INSTS,
    MAX_MEM_OPS,
    MAX_READS,
    MAX_WRITES,
    NUM_ARCH_REGS,
    NUM_REG_BANKS,
    SLOTS_PER_BANK,
    ReadInstruction,
    TripsBlock,
    WriteInstruction,
    reg_bank,
)
from .program import EXIT_ADDRESS, Program, ProgramBuilder, ProgramError
# imported for its effect: every Opcode member gets its ``alu`` evaluator
from . import alu  # noqa: F401

__all__ = [
    "ACCESS_SIZE", "BY_MNEMONIC", "Format", "OpClass", "Opcode",
    "OperandKind", "Target", "EncodingError", "Instruction", "make",
    "BlockError", "CHUNK_BYTES", "MAX_BODY_INSTS", "MAX_MEM_OPS",
    "MAX_READS", "MAX_WRITES", "NUM_ARCH_REGS", "NUM_REG_BANKS",
    "SLOTS_PER_BANK", "ReadInstruction", "TripsBlock", "WriteInstruction",
    "reg_bank", "EXIT_ADDRESS", "Program", "ProgramBuilder", "ProgramError",
]
