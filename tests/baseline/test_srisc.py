"""Tests for the SRISC ISA, its functional executor, and TIR lowering."""

import pytest

from repro.baseline.srisc import (
    NUM_REGS,
    SInst,
    SriscError,
    SriscProgram,
    run_functional,
)
from repro.compiler import extract_outputs
from repro.compiler.srisc import compile_srisc
from repro.tir import (
    Array,
    Assign,
    BinOp,
    Const,
    For,
    If,
    Load,
    Store,
    TirProgram,
    V,
    bits_to_int,
    interpret,
)


def prog_of(insts, labels=None, **kwargs):
    p = SriscProgram(insts=insts, labels=labels or {}, **kwargs)
    return p


class TestFunctional:
    def test_li_and_alu(self):
        res = run_functional(prog_of([
            SInst("li", rd=1, imm=6),
            SInst("li", rd=2, imm=7),
            SInst("mul", rd=3, ra=1, rb=2),
            SInst("add", rd=3, ra=3, imm=1),
            SInst("halt"),
        ]))
        assert res.regs[3] == 43
        assert res.dynamic_count == 5

    def test_memory_roundtrip(self):
        res = run_functional(prog_of([
            SInst("li", rd=1, imm=0x2000),
            SInst("li", rd=2, imm=-5),
            SInst("st", ra=1, rb=2, imm=8, size=2),
            SInst("ld", rd=3, ra=1, imm=8, size=2, signed=True),
            SInst("ld", rd=4, ra=1, imm=8, size=2, signed=False),
            SInst("halt"),
        ]))
        assert bits_to_int(res.regs[3]) == -5
        assert res.regs[4] == 0xFFFB

    def test_branches(self):
        res = run_functional(prog_of([
            SInst("li", rd=1, imm=3),
            SInst("li", rd=2, imm=0),
            SInst("add", rd=2, ra=2, rb=1),      # loop:
            SInst("sub", rd=1, ra=1, imm=1),
            SInst("bnz", ra=1, label="loop"),
            SInst("halt"),
        ], labels={"loop": 2}))
        assert res.regs[2] == 3 + 2 + 1

    def test_stream_records_outcomes(self):
        res = run_functional(prog_of([
            SInst("li", rd=1, imm=1),
            SInst("bz", ra=1, label="skip"),
            SInst("li", rd=2, imm=5),
            SInst("halt"),                        # skip:
        ], labels={"skip": 3}))
        branch = res.stream[1]
        assert branch.inst.op == "bz" and branch.taken is False
        assert res.regs[2] == 5

    def test_undefined_label(self):
        with pytest.raises(SriscError, match="undefined"):
            run_functional(prog_of([SInst("jmp", label="nowhere")]))

    def test_budget(self):
        p = prog_of([SInst("jmp", label="spin")], labels={"spin": 0})
        with pytest.raises(SriscError, match="budget"):
            run_functional(p, max_insts=100)


class TestCompileSrisc:
    def co_validate(self, tir):
        golden = interpret(tir).output_signature(tir.outputs)
        sp = compile_srisc(tir)
        res = run_functional(sp)
        assert extract_outputs(tir, sp.var_regs, sp.array_addrs, res.regs,
                               res.memory) == golden
        return sp, res

    def test_loop_program(self):
        self.co_validate(TirProgram("t", scalars={"acc": 0},
            body=[For("i", 0, 9, 1, [Assign("acc", V("acc") + V("i") * 2)])],
            outputs=["acc"]))

    def test_arrays_and_branches(self):
        self.co_validate(TirProgram("t",
            arrays={"a": Array("i64", [3, -4, 5, -6])},
            scalars={"pos": 0},
            body=[For("i", 0, 4, 1, [
                Assign("v", Load("a", V("i"))),
                If(V("v").gt(0), [Assign("pos", V("pos") + V("v"))],
                   [Store("a", V("i"), Const(0) - V("v"))])])],
            outputs=["pos", "a"]))

    def test_address_offset_folding(self):
        sp, _ = self.co_validate(TirProgram("t",
            arrays={"a": Array("i64", [1, 2, 3, 4])},
            scalars={"s": 0},
            body=[For("i", 0, 2, 1, [
                Assign("s", V("s") + Load("a", V("i")) +
                       Load("a", V("i") + 1) + Load("a", V("i") + 2))])],
            outputs=["s"]))
        # constant index offsets become load immediates, not extra adds
        loads = [i for i in sp.insts if i.op == "ld"]
        assert any(i.imm != 0 for i in loads)

    def test_temp_pool_released(self):
        # deep-ish expression still fits the temp pool
        expr = Const(1)
        for k in range(2, 9):
            expr = expr + Const(k) * Const(k)
        self.co_validate(TirProgram("t", scalars={"x": 0},
                                    body=[Assign("x", expr)], outputs=["x"]))
