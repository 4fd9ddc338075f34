"""Opcode space of the TRIPS EDGE ISA.

The TRIPS ISA (Figure 1 of the paper) encodes instructions in 32-bit words
using a small number of formats.  Each opcode carries static properties the
rest of the system needs:

* which **format** it is encoded in (G, I, L, S, B, C),
* how many **dataflow operands** it consumes (left / right / none),
* its **execution latency** in cycles on an execution tile, and
* its **class** (arithmetic, test, memory, branch, ...), which the
  microarchitecture uses for routing results (e.g. branches go to the
  global tile, stores go to data tiles).

All arithmetic is performed on 64-bit two's-complement integers or IEEE
doubles; sub-word loads/stores truncate/extend exactly as a 64-bit machine
would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Format(enum.Enum):
    """Instruction encoding formats from Figure 1."""

    G = "G"  # general: OPCODE PR XOP T1 T0
    I = "I"  # immediate: OPCODE PR IMM T0
    L = "L"  # load: OPCODE PR LSID IMM T0
    S = "S"  # store: OPCODE PR LSID IMM
    B = "B"  # branch: OPCODE PR EXIT OFFSET
    C = "C"  # constant: OPCODE CONST T0
    # Read (R) and write (W) instructions live in the block header chunk and
    # are modelled by :class:`repro.isa.block.ReadInstruction` /
    # :class:`repro.isa.block.WriteInstruction` rather than by opcodes.


class OpClass(enum.Enum):
    """Coarse functional class of an opcode."""

    ARITH = "arith"          # integer ALU
    FP = "fp"                # floating point unit
    TEST = "test"            # produces a 0/1 predicate value
    MOVE = "move"            # fanout / data movement
    NULLIFY = "null"         # produces null tokens (Section 4.2)
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode."""

    mnemonic: str
    format: Format
    opclass: OpClass
    latency: int
    num_operands: int          # dataflow operands (not counting predicate)
    pipelined: bool = True


class Opcode(enum.Enum):
    """All opcodes understood by the assembler, compiler and simulator.

    The value of each member is its :class:`OpInfo`.  Integer encodings are
    assigned deterministically by declaration order (see :data:`ENCODING`).
    """

    # --- integer arithmetic (G format: two operands) ---------------------
    ADD = OpInfo("add", Format.G, OpClass.ARITH, 1, 2)
    SUB = OpInfo("sub", Format.G, OpClass.ARITH, 1, 2)
    MUL = OpInfo("mul", Format.G, OpClass.ARITH, 3, 2)
    DIVS = OpInfo("divs", Format.G, OpClass.ARITH, 24, 2, pipelined=False)
    AND = OpInfo("and", Format.G, OpClass.ARITH, 1, 2)
    OR = OpInfo("or", Format.G, OpClass.ARITH, 1, 2)
    XOR = OpInfo("xor", Format.G, OpClass.ARITH, 1, 2)
    SLL = OpInfo("sll", Format.G, OpClass.ARITH, 1, 2)
    SRL = OpInfo("srl", Format.G, OpClass.ARITH, 1, 2)
    SRA = OpInfo("sra", Format.G, OpClass.ARITH, 1, 2)

    # --- tests: produce 0/1, typically routed to predicate fields --------
    TEQ = OpInfo("teq", Format.G, OpClass.TEST, 1, 2)
    TNE = OpInfo("tne", Format.G, OpClass.TEST, 1, 2)
    TLT = OpInfo("tlt", Format.G, OpClass.TEST, 1, 2)
    TLE = OpInfo("tle", Format.G, OpClass.TEST, 1, 2)
    TGT = OpInfo("tgt", Format.G, OpClass.TEST, 1, 2)
    TGE = OpInfo("tge", Format.G, OpClass.TEST, 1, 2)
    TLTU = OpInfo("tltu", Format.G, OpClass.TEST, 1, 2)
    TGEU = OpInfo("tgeu", Format.G, OpClass.TEST, 1, 2)

    # --- floating point (operands are IEEE-754 doubles in 64-bit regs) ---
    FADD = OpInfo("fadd", Format.G, OpClass.FP, 4, 2)
    FSUB = OpInfo("fsub", Format.G, OpClass.FP, 4, 2)
    FMUL = OpInfo("fmul", Format.G, OpClass.FP, 4, 2)
    FDIV = OpInfo("fdiv", Format.G, OpClass.FP, 12, 2)
    FTOI = OpInfo("ftoi", Format.G, OpClass.FP, 2, 1)
    ITOF = OpInfo("itof", Format.G, OpClass.FP, 2, 1)
    FEQ = OpInfo("feq", Format.G, OpClass.FP, 2, 2)
    FNE = OpInfo("fne", Format.G, OpClass.FP, 2, 2)
    FLT = OpInfo("flt", Format.G, OpClass.FP, 2, 2)
    FLE = OpInfo("fle", Format.G, OpClass.FP, 2, 2)
    FGT = OpInfo("fgt", Format.G, OpClass.FP, 2, 2)
    FGE = OpInfo("fge", Format.G, OpClass.FP, 2, 2)

    # --- single-operand moves / nullification ----------------------------
    MOV = OpInfo("mov", Format.G, OpClass.MOVE, 1, 1)
    NOT = OpInfo("not", Format.G, OpClass.ARITH, 1, 1)
    NULL = OpInfo("null", Format.G, OpClass.NULLIFY, 1, 0)

    # --- immediate forms (I format: one operand + signed 14-bit imm) -----
    ADDI = OpInfo("addi", Format.I, OpClass.ARITH, 1, 1)
    SUBI = OpInfo("subi", Format.I, OpClass.ARITH, 1, 1)
    MULI = OpInfo("muli", Format.I, OpClass.ARITH, 3, 1)
    ANDI = OpInfo("andi", Format.I, OpClass.ARITH, 1, 1)
    ORI = OpInfo("ori", Format.I, OpClass.ARITH, 1, 1)
    XORI = OpInfo("xori", Format.I, OpClass.ARITH, 1, 1)
    SLLI = OpInfo("slli", Format.I, OpClass.ARITH, 1, 1)
    SRLI = OpInfo("srli", Format.I, OpClass.ARITH, 1, 1)
    SRAI = OpInfo("srai", Format.I, OpClass.ARITH, 1, 1)
    TEQI = OpInfo("teqi", Format.I, OpClass.TEST, 1, 1)
    TNEI = OpInfo("tnei", Format.I, OpClass.TEST, 1, 1)
    TLTI = OpInfo("tlti", Format.I, OpClass.TEST, 1, 1)
    TGEI = OpInfo("tgei", Format.I, OpClass.TEST, 1, 1)
    TGTI = OpInfo("tgti", Format.I, OpClass.TEST, 1, 1)
    TLEI = OpInfo("tlei", Format.I, OpClass.TEST, 1, 1)

    # --- constants (C format: 16-bit constant, no operands) --------------
    MOVI = OpInfo("movi", Format.C, OpClass.MOVE, 1, 0)
    # "movih" shifts the current value left 16 and ors in the constant,
    # allowing wide constants to be synthesised in 16-bit pieces.
    MOVIH = OpInfo("movih", Format.C, OpClass.MOVE, 1, 1)

    # --- memory (address = left operand + IMM; store data = right) -------
    LB = OpInfo("lb", Format.L, OpClass.LOAD, 2, 1)
    LBU = OpInfo("lbu", Format.L, OpClass.LOAD, 2, 1)
    LH = OpInfo("lh", Format.L, OpClass.LOAD, 2, 1)
    LHU = OpInfo("lhu", Format.L, OpClass.LOAD, 2, 1)
    LW = OpInfo("lw", Format.L, OpClass.LOAD, 2, 1)
    LWU = OpInfo("lwu", Format.L, OpClass.LOAD, 2, 1)
    LD = OpInfo("ld", Format.L, OpClass.LOAD, 2, 1)
    SB = OpInfo("sb", Format.S, OpClass.STORE, 1, 2)
    SH = OpInfo("sh", Format.S, OpClass.STORE, 1, 2)
    SW = OpInfo("sw", Format.S, OpClass.STORE, 1, 2)
    SD = OpInfo("sd", Format.S, OpClass.STORE, 1, 2)

    # --- branches (exactly one fires per block) ---------------------------
    BRO = OpInfo("bro", Format.B, OpClass.BRANCH, 1, 0)    # pc-relative
    CALLO = OpInfo("callo", Format.B, OpClass.BRANCH, 1, 0)
    BR = OpInfo("br", Format.B, OpClass.BRANCH, 1, 1)      # target = operand
    RET = OpInfo("ret", Format.B, OpClass.BRANCH, 1, 1)    # target = operand
    HALT = OpInfo("halt", Format.B, OpClass.BRANCH, 1, 0)  # stop simulation

    # Static properties (info, mnemonic, opclass, latency, num_operands,
    # is_load/is_store/is_memory/is_branch, uses_fpu, format, completion,
    # access_size, sign_extends) are attached as plain member attributes
    # below: Enum's ``.value`` goes through a DynamicClassAttribute
    # descriptor on every access, which shows up in the simulator's
    # station-wakeup and issue loops.


#: ``Opcode.completion``: what an execution tile does with the result of
#: an issued instruction (compute a value, emit null tokens, send a load
#: or store to a data tile, or send the block's exit to the global tile)
COMPLETE_ALU, COMPLETE_NULL, COMPLETE_LOAD, COMPLETE_STORE, \
    COMPLETE_BRANCH = range(5)

#: opcode -> 7-bit binary encoding, by declaration order.
ENCODING: dict = {op: i for i, op in enumerate(Opcode)}
#: 7-bit binary encoding -> opcode.
DECODING: dict = {i: op for op, i in ENCODING.items()}

#: width of a memory access in bytes, for load/store opcodes.
ACCESS_SIZE = {
    Opcode.LB: 1, Opcode.LBU: 1, Opcode.SB: 1,
    Opcode.LH: 2, Opcode.LHU: 2, Opcode.SH: 2,
    Opcode.LW: 4, Opcode.LWU: 4, Opcode.SW: 4,
    Opcode.LD: 8, Opcode.SD: 8,
}

#: loads that sign-extend their result.
SIGNED_LOADS = {Opcode.LB, Opcode.LH, Opcode.LW, Opcode.LD}

_COMPLETION = {OpClass.NULLIFY: COMPLETE_NULL, OpClass.LOAD: COMPLETE_LOAD,
               OpClass.STORE: COMPLETE_STORE, OpClass.BRANCH: COMPLETE_BRANCH}

# Flatten each member's OpInfo onto the member itself.  ``Opcode.ADD.latency``
# is then a single instance-dict lookup instead of two descriptor calls.
# ``pipelined`` is False only for DIVS, whose unit the ET holds busy;
# :mod:`repro.isa.alu` adds each member's ``alu`` evaluator.
for _op in Opcode:
    _info = _op.value
    _op.info = _info
    _op.mnemonic = _info.mnemonic
    _op.format = _info.format
    _op.opclass = _info.opclass
    _op.latency = _info.latency
    _op.num_operands = _info.num_operands
    _op.pipelined = _info.pipelined
    _op.is_load = _info.opclass is OpClass.LOAD
    _op.is_store = _info.opclass is OpClass.STORE
    _op.is_memory = _op.is_load or _op.is_store
    _op.is_branch = _info.opclass is OpClass.BRANCH
    _op.uses_fpu = _info.opclass is OpClass.FP
    _op.completion = _COMPLETION.get(_info.opclass, COMPLETE_ALU)
    _op.access_size = ACCESS_SIZE.get(_op, 0)
    _op.sign_extends = _op in SIGNED_LOADS
del _op, _info

#: mnemonic -> opcode, for the assembler.
BY_MNEMONIC: dict = {op.mnemonic: op for op in Opcode}

assert len(ENCODING) <= 128, "opcode field is 7 bits wide"
