"""Functional semantics of TRIPS opcodes, shared by every execution model.

The execution tiles of the cycle simulator, the functional block simulator
and the compiler's constant folder all call :func:`execute` so that results
are bit-identical everywhere.  Each opcode carries its own evaluator,
``Opcode.ADD.alu(inst, left, right)``, so evaluation costs one call and no
table lookup.  An evaluator is bound to the :mod:`repro.tir.semantics`
operator function the opcode names in :data:`_BINOP`, :data:`_IMMOP` or
:data:`_UNOP`; that module is the single source of truth for 64-bit
operator behaviour.
"""

from __future__ import annotations

from typing import Optional

from ..tir import semantics
from ..tir.ir import MASK64, int_to_bits
from .encoding import Instruction
from .opcodes import Opcode

#: TRIPS opcode -> TIR binary operator name.
_BINOP = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.DIVS: "div", Opcode.AND: "and", Opcode.OR: "or",
    Opcode.XOR: "xor", Opcode.SLL: "shl", Opcode.SRL: "shr",
    Opcode.SRA: "sra",
    Opcode.TEQ: "eq", Opcode.TNE: "ne", Opcode.TLT: "lt",
    Opcode.TLE: "le", Opcode.TGT: "gt", Opcode.TGE: "ge",
    Opcode.TLTU: "ltu", Opcode.TGEU: "geu",
    Opcode.FADD: "fadd", Opcode.FSUB: "fsub", Opcode.FMUL: "fmul",
    Opcode.FDIV: "fdiv",
    Opcode.FEQ: "feq", Opcode.FNE: "fne", Opcode.FLT: "flt",
    Opcode.FLE: "fle", Opcode.FGT: "fgt", Opcode.FGE: "fge",
}

#: TRIPS immediate opcode -> TIR binary operator applied as (left, imm).
_IMMOP = {
    Opcode.ADDI: "add", Opcode.SUBI: "sub", Opcode.MULI: "mul",
    Opcode.ANDI: "and", Opcode.ORI: "or", Opcode.XORI: "xor",
    Opcode.SLLI: "shl", Opcode.SRLI: "shr", Opcode.SRAI: "sra",
    Opcode.TEQI: "eq", Opcode.TNEI: "ne", Opcode.TLTI: "lt",
    Opcode.TGEI: "ge", Opcode.TGTI: "gt", Opcode.TLEI: "le",
}

#: TRIPS unary opcode -> TIR unary operator name.
_UNOP = {Opcode.NOT: "not", Opcode.FTOI: "ftoi", Opcode.ITOF: "itof"}


class AluError(ValueError):
    """An opcode reached the ALU that the ALU cannot evaluate."""


def _binary(name: str):
    fn = semantics.BINOPS[name]
    return lambda inst, left, right: fn(left, right)


def _immediate(name: str):
    fn = semantics.BINOPS[name]
    return lambda inst, left, right: fn(left, inst.imm)


def _unary(name: str):
    fn = semantics.UNOPS[name]
    return lambda inst, left, right: fn(left)


def _not_alu(op: Opcode):
    def evaluate(inst, left, right):
        raise AluError(f"ALU cannot execute {op.mnemonic}")
    return evaluate


_EVALUATORS = {
    **{op: _binary(name) for op, name in _BINOP.items()},
    **{op: _immediate(name) for op, name in _IMMOP.items()},
    **{op: _unary(name) for op, name in _UNOP.items()},
    Opcode.MOV: lambda inst, left, right: left & MASK64,
    Opcode.MOVI: lambda inst, left, right: int_to_bits(inst.const),
    Opcode.MOVIH: lambda inst, left, right:
        ((left << 16) | (inst.const & 0xFFFF)) & MASK64,
}
for _op in Opcode:
    _op.alu = _EVALUATORS.get(_op) or _not_alu(_op)
del _op


def execute(inst: Instruction, left: Optional[int] = None,
            right: Optional[int] = None) -> int:
    """Compute the result value of a non-memory, non-branch instruction.

    ``left``/``right`` are 64-bit patterns (already known to be non-null
    tokens; nullification is handled by the caller).  Loads, stores and
    branches have side effects and are executed by the tiles, not here.
    """
    return inst.opcode.alu(inst, left, right)


def effective_address(inst: Instruction, left: int) -> int:
    """Address of a load/store: left operand plus the signed immediate."""
    if not inst.opcode.is_memory:
        raise AluError(f"{inst.opcode.mnemonic} has no effective address")
    return (left + inst.imm) & MASK64
