"""Differential testing: random TIR programs across every execution model.

Hypothesis generates small structured programs (arithmetic, arrays, loops,
branches); the TIR interpreter's outputs are the oracle and the TRIPS
functional simulator (both compile levels) plus the SRISC baseline must
agree bit for bit.  A thinner sample also runs the cycle-level simulator.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.baseline.ooo import run_baseline
from repro.compiler import compile_tir, extract_outputs
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
    UnOp,
    V,
    interpret,
)
from repro.uarch import FunctionalSim
from repro.uarch.proc import TripsProcessor

ARRAY_LEN = 8
VARS = ["v0", "v1", "v2"]
SAFE_BINOPS = ["add", "sub", "mul", "and", "or", "xor",
               "eq", "ne", "lt", "ge", "div", "rem", "shl", "sra"]


def exprs(depth):
    base = st.one_of(
        st.integers(-100, 100).map(Const),
        st.sampled_from(VARS).map(V),
        st.integers(0, ARRAY_LEN - 1).map(lambda i: Load("arr", Const(i))),
    )
    if depth <= 0:
        return base
    sub = exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(SAFE_BINOPS), sub, sub).map(
            lambda t: BinOp(t[0], _shift_safe(t[0], t[1]), _shift_guard(t[0], t[2]))),
        sub.map(lambda e: UnOp("not", e)),
    )


def _shift_safe(op, e):
    return e


def _shift_guard(op, e):
    # keep shift amounts bounded so semantics stay interesting
    if op in ("shl", "sra"):
        return BinOp("and", e, Const(7))
    return e


def stmts(depth):
    assign = st.tuples(st.sampled_from(VARS), exprs(2)).map(
        lambda t: Assign(t[0], t[1]))
    store = st.tuples(st.integers(0, ARRAY_LEN - 1), exprs(1)).map(
        lambda t: Store("arr", Const(t[0]), t[1]))
    if depth <= 0:
        return st.one_of(assign, store)
    inner = st.lists(stmts(depth - 1), min_size=1, max_size=3)
    loop = st.tuples(st.integers(1, 4), inner).map(
        lambda t: For("it%d" % depth, 0, t[0], 1, t[1]))
    branch = st.tuples(exprs(1), inner,
                       st.lists(stmts(depth - 1), max_size=2)).map(
        lambda t: If(BinOp("ge", t[0], Const(0)), t[1], t[2]))
    return st.one_of(assign, store, loop, branch)


programs = st.lists(stmts(2), min_size=1, max_size=5).map(
    lambda body: TirProgram(
        "rand",
        arrays={"arr": Array("i64", [((i * 13) % 7) - 3
                                     for i in range(ARRAY_LEN)])},
        scalars={name: i - 1 for i, name in enumerate(VARS)},
        body=body,
        outputs=["arr"] + VARS))


def _baseline_outputs(prog):
    sp = compile_srisc(prog)
    functional, _ = run_baseline(sp)
    return extract_outputs(prog, sp.var_regs, sp.array_addrs,
                           functional.regs, functional.memory)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs)
@example(
    # Discovered failure: hand-level if-conversion produced a write slot fed
    # both by a predicated mov and by an unpredicated fanout mov hanging off
    # the opposite-polarity predicated mov; TripsBlock.validate rejected the
    # (dynamically correct) block.  Fixed by the guardedness refinement in
    # isa/block.py plus the constant-condition phi fold in compiler/dag.py.
    prog=TirProgram(
        name='rand',
        arrays={'arr': Array(dtype='i64', data=[-3, 3, 2, 1, 0, -1, -2, -3])},
        scalars={'v0': -1, 'v1': 0, 'v2': 1},
        body=[If(cond=BinOp(op='ge', a=Const(bits=0), b=Const(bits=0)),
                 then_body=[Assign(var='v0', expr=Const(bits=0))],
                 else_body=[Assign(var='v2', expr=Const(bits=0))]),
              Assign(var='v1', expr=V('v2')),
              Assign(var='v0', expr=V('v1'))],
        outputs=['arr', 'v0', 'v1', 'v2']),
).via('discovered failure')
def test_all_functional_models_agree(prog):
    golden = interpret(prog).output_signature(prog.outputs)
    for level in ("tcc", "hand"):
        compiled = compile_tir(prog, level=level)
        sim = FunctionalSim(compiled.program)
        sim.run()
        got = compiled.extract_outputs(sim.regs, sim.memory)
        assert got == golden, f"level {level} diverged"
    assert _baseline_outputs(prog) == golden, "baseline diverged"


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs)
def test_cycle_simulator_agrees(prog):
    golden = interpret(prog).output_signature(prog.outputs)
    compiled = compile_tir(prog, level="hand")
    proc = TripsProcessor(compiled.program)
    proc.run()
    assert compiled.extract_outputs(proc.regs, proc.memory) == golden
