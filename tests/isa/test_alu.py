"""Unit tests for the shared opcode ALU (isa/alu.py)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.isa import Format, Instruction, Opcode, make
from repro.isa.alu import AluError, effective_address, execute
from repro.tir import bits_to_float, bits_to_int, float_to_bits, int_to_bits
from repro.tir import semantics
from repro.tir.ir import MASK64

u64 = st.integers(min_value=0, max_value=2**64 - 1)


# ----------------------------------------------------------------------
# Reference: the table-dispatch ALU the per-opcode evaluators replaced.
# It maps each opcode to the repro.tir.semantics operator it applies,
# independently of isa/alu.py, so a wrong mapping or a mistyped
# evaluator shows up as a mismatch.
_REF_BINOP = {
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
_REF_IMMOP = {
    Opcode.ADDI: "add", Opcode.SUBI: "sub", Opcode.MULI: "mul",
    Opcode.ANDI: "and", Opcode.ORI: "or", Opcode.XORI: "xor",
    Opcode.SLLI: "shl", Opcode.SRLI: "shr", Opcode.SRAI: "sra",
    Opcode.TEQI: "eq", Opcode.TNEI: "ne", Opcode.TLTI: "lt",
    Opcode.TGEI: "ge", Opcode.TGTI: "gt", Opcode.TLEI: "le",
}
_REF_UNOP = {Opcode.NOT: "not", Opcode.FTOI: "ftoi", Opcode.ITOF: "itof"}


def _reference_execute(inst, left=None, right=None):
    op = inst.opcode
    if op in _REF_BINOP:
        return semantics.binop(_REF_BINOP[op], left, right)
    if op in _REF_IMMOP:
        return semantics.binop(_REF_IMMOP[op], left, int_to_bits(inst.imm))
    if op in _REF_UNOP:
        return semantics.unop(_REF_UNOP[op], left)
    if op is Opcode.MOV:
        return left & MASK64
    if op is Opcode.MOVI:
        return int_to_bits(inst.const)
    if op is Opcode.MOVIH:
        return ((left << 16) | (inst.const & 0xFFFF)) & MASK64
    raise AluError(f"ALU cannot execute {op.mnemonic}")


_INT64_MIN = 1 << 63
#: 0, 1, -1, INT64_MIN/MAX, shift counts at and past 64, and the IEEE
#: double patterns NaN, +-0.0, +-inf plus two ordinary values; 0 in the
#: right operand is the divide-by-zero case
_GRID = [0, 1, int_to_bits(-1), _INT64_MIN, _INT64_MIN - 1, 2, 63, 64, 65,
         127, 0xFFFF, float_to_bits(float("nan")), float_to_bits(-0.0),
         float_to_bits(float("inf")), float_to_bits(float("-inf")),
         float_to_bits(1.5), float_to_bits(-2.5)]
_IMMS = [0, 1, -1, 63, 64, 65, 8191, -8192]
_CONSTS = [0, 1, -1, 0x1234, 0x7FFF, -0x8000]
_ALU_OPS = [op for op in Opcode if op in _REF_BINOP or op in _REF_IMMOP
            or op in _REF_UNOP or op in (Opcode.MOV, Opcode.MOVI,
                                         Opcode.MOVIH)]


def _instances(op):
    if op.format is Format.I:
        return [Instruction(op, imm=imm) for imm in _IMMS]
    if op.format is Format.C:
        return [Instruction(op, const=c) for c in _CONSTS]
    return [Instruction(op)]


@pytest.mark.parametrize("op", _ALU_OPS, ids=lambda op: op.mnemonic)
def test_evaluator_matches_table_dispatch(op):
    """Every ALU opcode's evaluator (and execute) equals the reference
    over the edge-case grid, bit for bit."""
    for inst in _instances(op):
        for left, right in itertools.product(_GRID, _GRID):
            want = _reference_execute(inst, left, right)
            assert op.alu(inst, left, right) == want, (inst, left, right)
            assert execute(inst, left, right) == want, (inst, left, right)


@pytest.mark.parametrize("op", [op for op in Opcode if op not in _ALU_OPS],
                         ids=lambda op: op.mnemonic)
def test_non_alu_opcodes_raise(op):
    inst = Instruction(op)
    with pytest.raises(AluError):
        _reference_execute(inst, 0, 0)
    with pytest.raises(AluError):
        op.alu(inst, 0, 0)
    with pytest.raises(AluError):
        execute(inst, 0, 0)


class TestExecute:
    def test_binops_match_semantics(self):
        assert execute(make("add"), 3, 4) == 7
        assert execute(make("sub"), 3, 4) == int_to_bits(-1)
        assert execute(make("mul"), 1 << 63, 2) == 0          # wraps
        assert execute(make("divs"), int_to_bits(-9), 2) == int_to_bits(-4)
        assert execute(make("sra"), int_to_bits(-8), 2) == int_to_bits(-2)

    def test_tests_produce_01(self):
        assert execute(make("tlt"), int_to_bits(-1), 0) == 1
        assert execute(make("tgeu"), int_to_bits(-1), 0) == 1  # unsigned
        assert execute(make("teq"), 5, 5) == 1
        assert execute(make("tne"), 5, 5) == 0

    def test_immediate_forms(self):
        assert execute(make("addi", imm=5), 10) == 15
        assert execute(make("subi", imm=3), 10) == 7
        assert execute(make("tlti", imm=0), int_to_bits(-2)) == 1
        assert execute(make("slli", imm=4), 1) == 16

    def test_fp_ops(self):
        a, b = float_to_bits(1.5), float_to_bits(2.5)
        assert bits_to_float(execute(make("fadd"), a, b)) == 4.0
        assert execute(make("flt"), a, b) == 1
        assert execute(make("fge"), a, b) == 0

    def test_constants(self):
        assert execute(make("movi", const=-7)) == int_to_bits(-7)
        assert execute(make("movih", const=0x1234), 0x5) == 0x51234
        # movih with a negative-looking chunk masks to 16 bits
        assert execute(make("movih", const=-1), 0) == 0xFFFF

    def test_mov_passthrough(self):
        assert execute(make("mov"), 0xDEAD) == 0xDEAD

    def test_unops(self):
        assert execute(make("not"), 0) == 2**64 - 1
        assert bits_to_float(execute(make("itof"), int_to_bits(-3))) == -3.0

    def test_memory_ops_rejected(self):
        with pytest.raises(AluError):
            execute(make("lw", lsid=0), 0)
        with pytest.raises(AluError):
            execute(make("bro", offset=0))

    @given(u64, u64)
    def test_add_sub_inverse_property(self, a, b):
        s = execute(make("add"), a, b)
        assert execute(make("sub"), s, b) == a


class TestEffectiveAddress:
    def test_load_address(self):
        inst = make("lw", lsid=0, imm=-4)
        assert effective_address(inst, 0x1004) == 0x1000

    def test_wraps(self):
        inst = make("ld", lsid=0, imm=8)
        assert effective_address(inst, 2**64 - 4) == 4

    def test_non_memory_rejected(self):
        with pytest.raises(AluError):
            effective_address(make("add"), 0)
