"""Tests for the TIR reference interpreter."""

import pytest

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
    TirError,
    TirProgram,
    UnOp,
    V,
    While,
    bits_to_float,
    bits_to_int,
    interpret,
)
from repro.tir import interp


def run(prog):
    prog.validate()
    return interpret(prog)


class TestBasics:
    def test_assign_and_arith(self):
        prog = TirProgram("t", body=[
            Assign("x", Const(40) + 2),
            Assign("y", V("x") * 3 - 6),
        ], outputs=[])
        res = run(prog)
        assert bits_to_int(res.scalars["x"]) == 42
        assert bits_to_int(res.scalars["y"]) == 120

    def test_array_load_store(self):
        prog = TirProgram("t",
            arrays={"a": Array("i64", [10, 20, 30])},
            body=[Store("a", Const(1), Load("a", Const(0)) + Load("a", Const(2)))],
            outputs=["a"])
        res = run(prog)
        assert [bits_to_int(v) for v in res.arrays["a"]] == [10, 40, 30]

    def test_narrow_array_truncates(self):
        prog = TirProgram("t",
            arrays={"a": Array("u8", [0])},
            body=[Store("a", Const(0), Const(0x1FF))],
            outputs=["a"])
        assert run(prog).arrays["a"] == [0xFF]

    def test_signed_narrow_load(self):
        prog = TirProgram("t",
            arrays={"a": Array("i8", [-1])},
            body=[Assign("x", Load("a", Const(0)))])
        assert bits_to_int(run(prog).scalars["x"]) == -1

    def test_float_arith(self):
        prog = TirProgram("t", body=[
            Assign("x", BinOp("fmul", F(1.5), F(4.0))),
        ])
        assert bits_to_float(run(prog).scalars["x"]) == 6.0

    def test_out_of_bounds_raises(self):
        prog = TirProgram("t",
            arrays={"a": Array("i64", [1])},
            body=[Assign("x", Load("a", Const(5)))])
        with pytest.raises(TirError, match="out of bounds"):
            run(prog)


class TestControlFlow:
    def test_for_sums(self):
        prog = TirProgram("t",
            scalars={"acc": 0},
            body=[For("i", 0, 10, 1, [Assign("acc", V("acc") + V("i"))])])
        assert bits_to_int(run(prog).scalars["acc"]) == 45

    def test_for_negative_step(self):
        prog = TirProgram("t", scalars={"acc": 0},
            body=[For("i", 5, 0, -1, [Assign("acc", V("acc") + V("i"))])])
        assert bits_to_int(run(prog).scalars["acc"]) == 15

    def test_for_empty_range(self):
        prog = TirProgram("t", scalars={"acc": 7},
            body=[For("i", 3, 3, 1, [Assign("acc", Const(0))])])
        assert bits_to_int(run(prog).scalars["acc"]) == 7

    def test_nested_for(self):
        prog = TirProgram("t", scalars={"acc": 0},
            body=[For("i", 0, 3, 1, [
                For("j", 0, 4, 1, [Assign("acc", V("acc") + 1)])])])
        assert bits_to_int(run(prog).scalars["acc"]) == 12

    def test_if_else(self):
        prog = TirProgram("t", scalars={"x": 3},
            body=[If(V("x").gt(2), [Assign("y", Const(1))],
                     [Assign("y", Const(0))])])
        assert bits_to_int(run(prog).scalars["y"]) == 1

    def test_while_countdown(self):
        prog = TirProgram("t", scalars={"n": 5, "acc": 1},
            body=[While(V("n").gt(0), [
                Assign("acc", V("acc") * V("n")),
                Assign("n", V("n") - 1)])])
        assert bits_to_int(run(prog).scalars["acc"]) == 120

    def test_statement_budget(self, monkeypatch):
        # the interpreter reads the budget at call time, so a small one
        # reaches the same error path without 50M statements of work
        assert interp.MAX_DYNAMIC_STATEMENTS == 50_000_000
        monkeypatch.setattr(interp, "MAX_DYNAMIC_STATEMENTS", 1_000)
        prog = TirProgram("t", scalars={"x": 1},
            body=[While(V("x").gt(0), [Assign("x", V("x") + 1)])])
        with pytest.raises(TirError, match="budget"):
            run(prog)


class TestValidation:
    def test_undeclared_array(self):
        prog = TirProgram("t", body=[Assign("x", Load("nope", Const(0)))])
        with pytest.raises(TirError, match="undeclared"):
            prog.validate()

    def test_undefined_variable(self):
        prog = TirProgram("t", body=[Assign("x", V("ghost"))])
        with pytest.raises(TirError, match="undefined"):
            prog.validate()

    def test_namespace_collision(self):
        prog = TirProgram("t", arrays={"x": Array("i64", [0])},
                          scalars={"x": 0})
        with pytest.raises(TirError, match="collide"):
            prog.validate()

    def test_bad_output(self):
        prog = TirProgram("t", outputs=["nothing"])
        with pytest.raises(TirError, match="undeclared"):
            prog.validate()

    def test_all_variables_order(self):
        prog = TirProgram("t", scalars={"a": 1},
            body=[Assign("b", V("a")), For("i", 0, 1, 1, [Assign("c", V("b"))])])
        assert prog.all_variables() == ["a", "b", "i", "c"]

    def test_bool_rejected(self):
        with pytest.raises(TirError, match="bool"):
            Const(1) + True


class TestResultSignature:
    def test_signature_covers_outputs(self):
        prog = TirProgram("t",
            arrays={"a": Array("i64", [5])},
            scalars={"s": 2},
            body=[Assign("s", V("s") + 1)],
            outputs=["a", "s"])
        res = run(prog)
        sig = res.output_signature(prog.outputs)
        assert sig == (("a", (5,)), ("s", 3))

    def test_op_counts(self):
        prog = TirProgram("t", scalars={"acc": 0},
            body=[For("i", 0, 4, 1, [Assign("acc", V("acc") + V("i"))])])
        res = run(prog)
        assert res.op_counts["add"] >= 4
