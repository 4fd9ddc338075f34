"""End-to-end compiler tests: TIR -> TRIPS blocks -> tsim-arch == interp."""

import pytest

import repro.compiler.lower as lower
from repro.compiler import CompileError, compile_tir
from repro.isa import BlockError, TripsBlock
from repro.tir import (
    Array,
    Assign,
    BinOp,
    Const,
    F,
    For,
    If,
    Load,
    Store,
    TirProgram,
    UnOp,
    V,
    While,
)

from .conftest import co_validate


class TestStraightLine:
    def test_constants_and_arithmetic(self):
        co_validate(TirProgram("t", scalars={"x": 0, "y": 0}, body=[
            Assign("x", Const(6) * 7),
            Assign("y", V("x") + V("x") * 2),
        ], outputs=["x", "y"]))

    def test_wide_constants(self):
        co_validate(TirProgram("t", scalars={"a": 0, "b": 0, "c": 0}, body=[
            Assign("a", Const(0x123456789ABCDEF0)),
            Assign("b", Const(-1)),
            Assign("c", Const(0x7FFFFFFF) + 1),
        ], outputs=["a", "b", "c"]))

    def test_float_constants_and_math(self):
        co_validate(TirProgram("t", scalars={"x": 0}, body=[
            Assign("x", BinOp("fdiv", BinOp("fadd", F(1.5), F(2.5)), F(8.0))),
        ], outputs=["x"]))

    def test_division_and_rem(self):
        co_validate(TirProgram("t", scalars={"q": 0, "r": 0, "n": -17, "d": 5},
                               body=[
            Assign("q", BinOp("div", V("n"), V("d"))),
            Assign("r", BinOp("rem", V("n"), V("d"))),
        ], outputs=["q", "r"]))

    def test_unops(self):
        co_validate(TirProgram("t", scalars={"a": 0, "b": 0, "c": 0}, body=[
            Assign("a", UnOp("not", Const(0))),
            Assign("b", UnOp("neg", Const(7))),
            Assign("c", UnOp("ftoi", UnOp("itof", Const(12345)))),
        ], outputs=["a", "b", "c"]))

    def test_immediate_folding_roundtrip(self):
        # values near the 14-bit immediate boundary
        co_validate(TirProgram("t", scalars={"x": 1, "a": 0, "b": 0}, body=[
            Assign("a", V("x") + 8191),
            Assign("b", V("x") + 8192),   # too wide for an immediate
        ], outputs=["a", "b"]))

    def test_array_copy(self):
        co_validate(TirProgram("t",
            arrays={"src": Array("i64", [3, 1, 4, 1, 5]),
                    "dst": Array("i64", [0] * 5)},
            body=[Store("dst", Const(i), Load("src", Const(i)))
                  for i in range(5)],
            outputs=["dst"]))

    def test_narrow_arrays(self):
        co_validate(TirProgram("t",
            arrays={"bytes": Array("u8", [250, 251, 252]),
                    "halves": Array("i16", [-2, -1, 0])},
            scalars={"s": 0},
            body=[
                Assign("s", Load("bytes", Const(0)) + Load("halves", Const(0))),
                Store("bytes", Const(2), Const(0x1FF)),
                Store("halves", Const(2), UnOp("neg", Const(5))),
            ],
            outputs=["bytes", "halves", "s"]))


class TestControlFlow:
    def test_counted_loop(self):
        co_validate(TirProgram("t", scalars={"acc": 0}, body=[
            For("i", 0, 10, 1, [Assign("acc", V("acc") + V("i"))]),
        ], outputs=["acc"]))

    def test_loop_with_dynamic_bound(self):
        co_validate(TirProgram("t", scalars={"n": 7, "acc": 0}, body=[
            For("i", 0, V("n"), 1, [Assign("acc", V("acc") + V("i") * V("i"))]),
        ], outputs=["acc"]))

    def test_nested_loops(self):
        co_validate(TirProgram("t", scalars={"acc": 0}, body=[
            For("i", 0, 4, 1, [
                For("j", 0, 3, 1, [
                    Assign("acc", V("acc") + V("i") * 10 + V("j")),
                ]),
            ]),
        ], outputs=["acc"]))

    def test_if_else_both_levels(self):
        for init in (3, -3):
            co_validate(TirProgram("t", scalars={"x": init, "y": 0}, body=[
                If(V("x").gt(0),
                   [Assign("y", V("x") * 2)],
                   [Assign("y", 0 - V("x"))]),
            ], outputs=["y"]))

    def test_if_with_one_sided_assignment(self):
        for init in (1, 0):
            co_validate(TirProgram("t", scalars={"f": init, "y": 42}, body=[
                If(V("f").ne(0), [Assign("y", Const(7))], []),
            ], outputs=["y"]))

    def test_conditional_store_nullification(self):
        # the Figure 5a shape: a store on only one predicated path
        for flag in (0, 1):
            co_validate(TirProgram("t",
                arrays={"out": Array("i64", [99])},
                scalars={"f": flag},
                body=[If(V("f").eq(0), [Store("out", Const(0), Const(11))], [])],
                outputs=["out"]))

    def test_if_inside_loop(self):
        co_validate(TirProgram("t",
            arrays={"a": Array("i64", [5, -2, 7, -4, 0, 3])},
            scalars={"pos": 0, "neg": 0},
            body=[
                For("i", 0, 6, 1, [
                    Assign("v", Load("a", V("i"))),
                    If(V("v").lt(0),
                       [Assign("neg", V("neg") + 1)],
                       [Assign("pos", V("pos") + V("v"))]),
                ]),
            ], outputs=["pos", "neg"]))

    def test_while_loop(self):
        co_validate(TirProgram("t", scalars={"n": 6, "f": 1}, body=[
            While(V("n").gt(1), [
                Assign("f", V("f") * V("n")),
                Assign("n", V("n") - 1),
            ]),
        ], outputs=["f"]))

    def test_unroll_hint(self):
        results = co_validate(TirProgram("t",
            arrays={"a": Array("i64", list(range(8))),
                    "b": Array("i64", [0] * 8)},
            body=[
                For("i", 0, 8, 1,
                    [Store("b", V("i"), Load("a", V("i")) * 3)],
                    unroll=4),
            ], outputs=["b"]))
        # hand level honours the unroll: fewer blocks executed
        _, sim_tcc = results["tcc"]
        _, sim_hand = results["hand"]
        assert sim_hand.stats.blocks < sim_tcc.stats.blocks

    def test_empty_loop_body_degenerate(self):
        co_validate(TirProgram("t", scalars={"x": 5}, body=[
            For("i", 0, 0, 1, [Assign("x", Const(0))]),
        ], outputs=["x"]))


class TestBlockStructure:
    def test_hand_level_produces_fewer_blocks(self):
        prog = TirProgram("t", scalars={"acc": 0}, body=[
            For("i", 0, 20, 1, [
                Assign("t1", V("i") * 3),
                Assign("acc", V("acc") + V("t1")),
            ]),
        ], outputs=["acc"])
        results = co_validate(prog)
        tcc_prog = results["tcc"][0].program
        hand_prog = results["hand"][0].program
        assert len(hand_prog.blocks) < len(tcc_prog.blocks)
        # rotated loops: one block per iteration at hand level
        assert results["hand"][1].stats.blocks < results["tcc"][1].stats.blocks

    def test_large_block_splits(self):
        # 80 stores cannot fit one block (32 LSID limit): must split and
        # still produce correct results.
        n = 80
        prog = TirProgram("t",
            arrays={"a": Array("i64", [0] * n)},
            body=[Store("a", Const(i), Const(i * i)) for i in range(n)],
            outputs=["a"])
        results = co_validate(prog)
        assert len(results["tcc"][0].program.blocks) >= 3

    def test_cse_within_block(self):
        prog = TirProgram("t",
            arrays={"a": Array("i64", [7, 8, 9])},
            scalars={"i": 1, "s": 0},
            body=[Assign("s", Load("a", V("i") + 1) + (V("i") + 1))],
            outputs=["s"])
        compiled = compile_tir(prog, level="hand")
        # (i+1) computed once: count ADDI/ADD instructions
        from repro.isa import Opcode
        addis = sum(
            1 for blk in compiled.program.blocks.values()
            for inst in blk.body.values()
            if inst.opcode in (Opcode.ADDI, Opcode.ADD))
        # one i+1, one base+scaled address add
        assert addis <= 3

    def test_every_block_satisfies_isa_constraints(self):
        prog = TirProgram("t",
            arrays={"m": Array("i64", list(range(64)))},
            scalars={"acc": 0},
            body=[
                For("i", 0, 8, 1, [
                    For("j", 0, 8, 1, [
                        Assign("acc", V("acc")
                               + Load("m", V("i") * 8 + V("j"))),
                    ]),
                ]),
            ], outputs=["acc"])
        for level in ("tcc", "hand"):
            compiled = compile_tir(prog, level=level)
            for blk in compiled.program.blocks.values():
                blk.validate()    # would raise on any violation

    @staticmethod
    def _split_program():
        # 80 stores: blocks split mid-statement-list and at the terminator
        return TirProgram("t", arrays={"a": Array("i64", [0] * 80)},
                          body=[Store("a", Const(i), Const(i * i))
                                for i in range(80)],
                          outputs=["a"])

    def test_each_block_validated_once(self, monkeypatch):
        """The terminator attempt validates its block, since a failure
        splits it; the image validates every other block, and none
        twice."""
        checked = []
        real = TripsBlock.validate

        def validate(block):
            checked.append(id(block))
            real(block)

        monkeypatch.setattr(TripsBlock, "validate", validate)
        for level in ("tcc", "hand"):
            checked.clear()
            blocks = compile_tir(self._split_program(),
                                 level=level).program.blocks.values()
            assert len(blocks) >= 3
            assert sorted(checked) == sorted(map(id, blocks))

    def test_invalid_block_stops_the_compile(self, monkeypatch):
        """A block formed without a check at formation still fails the
        compile, when the program's image validates it."""
        real = lower.materialize

        def without_branches(dag, name):
            block = real(dag, name)
            for slot in block.branches():
                del block.body[slot]
            return block

        monkeypatch.setattr(lower, "materialize", without_branches)
        with pytest.raises(BlockError, match="no branch"):
            compile_tir(self._split_program())

    def test_too_many_scalars_rejected(self):
        body = [Assign(f"v{i}", Const(i)) for i in range(130)]
        prog = TirProgram("t", body=body, outputs=[])
        with pytest.raises(CompileError, match="register budget"):
            compile_tir(prog)
