"""The fast-forwarder must be architecturally exact, not approximately.

It is the master timeline of every sampled run: block counts, instruction
counts and final memory/register images all come from it, so it is held
to bit-identity against the reference functional simulator on the whole
suite — including the fuzz-promoted synth programs and generated fuzz
programs, whose whole purpose is to poke semantic corners (division
overflow, non-finite float conversion, predicate webs) where a compiled
fast path might cut one.

Every comparison is the ``ffwd`` fuzz check's (``ffwd_diff``), so it
covers what the block compiler can break: the whole ``FunctionalStats``
record (``fired``, ``loads``, ``stores``, ``reads``,
``nullified_outputs``, ``branches_by_exit``), the registers and the
touched pages, on both the warm ``run()`` path and the cold
``run_blocks`` loop of a profiling pass (collecting BBVs).  A
SyntaxWarning while compiling a block is an error: it is how a folded
literal in an ``is`` test would show.
"""

from types import SimpleNamespace

import pytest

from repro.compiler import compile_tir
from repro.fuzz.gen import generate
from repro.fuzz.oracle import ffwd_diff, run_ffwd
from repro.isa import (OperandKind, Program, ReadInstruction, Target,
                       TripsBlock, WriteInstruction, make)
from repro.sampling import FastForwarder, compile_block
from repro.uarch.config import TripsConfig
from repro.uarch.functional import FunctionalSim, FunctionalStats, SimError
from repro.workloads import get_workload, workload_names

pytestmark = pytest.mark.filterwarnings("error::SyntaxWarning")

FUZZ_SEEDS = range(50)


def assert_exact(program):
    ref = FunctionalSim(program)
    ref.run()
    for warm in (False, True):
        assert ffwd_diff(run_ffwd(program, warm), ref) == []


@pytest.mark.parametrize("name", workload_names())
def test_bit_identical_to_functional_sim(name):
    assert_exact(compile_tir(get_workload(name), level="tcc").program)


@pytest.mark.parametrize("name", workload_names())
def test_bit_identical_at_hand_level(name):
    assert_exact(compile_tir(get_workload(name), level="hand").program)


@pytest.mark.parametrize("level", ["tcc", "hand"])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_program_is_exact(seed, level):
    assert_exact(compile_tir(generate(seed), level=level).program)


def test_scaled_workload_is_exact_too():
    program = compile_tir(get_workload("mcf", size=8), level="tcc").program
    ff = FastForwarder(program, TripsConfig(), warm=True)
    ff.run()
    ref = FunctionalSim(program)
    ref.run()
    assert list(ff.regs) == list(ref.regs)
    assert ff.stats.blocks == ref.stats.blocks
    assert ff.stats.fired == ref.stats.fired


def test_warming_does_not_change_architecture():
    program = compile_tir(get_workload("a2time01"), level="tcc").program
    warm = FastForwarder(program, TripsConfig(), warm=True)
    warm.run()
    cold = FastForwarder(program, TripsConfig(), warm=False)
    cold.run()
    assert list(warm.regs) == list(cold.regs)
    assert warm.stats.blocks == cold.stats.blocks


def test_constant_chain_folds_to_a_literal():
    """MOVI -> MOVIH -> MOV builds 0x12345678 in register 4: the
    generated source writes the literal and has no line for the chain,
    yet all three instructions still count as fired."""
    block = TripsBlock(name="chain")
    block.body[0] = make("movi", const=0x1234,
                         targets=[Target(1, OperandKind.LEFT)])
    block.body[1] = make("movih", const=0x5678,
                         targets=[Target(2, OperandKind.LEFT)])
    block.body[2] = make("mov", targets=[Target(0, OperandKind.WRITE)])
    block.body[3] = make("halt")
    block.writes[0] = WriteInstruction(4)
    block.validate()
    fn = compile_block(block, 0x1000)
    source = fn.__ffwd_source__
    assert f"regs[4] = {0x12345678}" in source
    assert not any(line.lstrip().startswith(("t0 ", "t1 ", "t2 "))
                   for line in source.splitlines())
    sim = SimpleNamespace(regs=[0] * 128, stats=FunctionalStats())
    nx, ex, _bt, loads, stores = fn(sim)
    assert sim.regs[4] == 0x12345678
    assert (nx, ex, loads, stores) == (0, 0, (), ())
    assert sim.stats.fired == 4 and sim.stats.branches_by_exit == {0: 1}


def test_folded_constant_in_a_phi_is_a_variable():
    """Register 4 gets 5 from a MOV whose predicate is a constant (so it
    folds), or 7 from one guarded by a test at run time: the phi's
    ``is not None`` test needs the folded 5 in a variable (``5 is not
    None`` is a SyntaxWarning, an error here)."""
    left, pred = OperandKind.LEFT, OperandKind.PRED
    write = Target(0, OperandKind.WRITE)
    block = TripsBlock(name="phi")
    block.reads[0] = ReadInstruction(4, [Target(1, left),
                                         Target(1, OperandKind.RIGHT)])
    block.body[0] = make("movi", const=1, targets=[Target(2, pred)])
    block.body[1] = make("teq", targets=[Target(5, pred)])   # always 1
    block.body[2] = make("mov_t", targets=[write])
    block.body[3] = make("movi", const=5, targets=[Target(2, left)])
    block.body[5] = make("mov_f", targets=[write])
    block.body[6] = make("movi", const=7, targets=[Target(5, left)])
    block.body[7] = make("halt")
    block.writes[0] = WriteInstruction(4)
    program = Program(entry=0x1000)
    program.add_block(0x1000, block)
    assert "    t2 = 5\n" in compile_block(block, 0x1000).__ffwd_source__
    assert_exact(program)


def test_in_line_memory_falls_back_exactly():
    """Loads no store can forward to, on pages that do not exist yet
    and across page ends, at every width and signedness, then stores
    beside them: the in-line page read falls back to ``BackingStore``
    and allocates exactly the pages the interpreter allocates."""
    L, R = OperandKind.LEFT, OperandKind.RIGHT
    a, b, data = 0x200FFC, 0x3000FFE, 0x8877665544332211
    block = TripsBlock(name="pages")
    block.reads[0] = ReadInstruction(4, [Target(8, L), Target(4, L)])
    block.reads[1] = ReadInstruction(8, [Target(9, L), Target(5, L)])
    block.reads[2] = ReadInstruction(12, [Target(10, L)])
    block.body[8] = make("mov", targets=[Target(0, L), Target(1, L)])
    block.body[9] = make("mov", targets=[Target(2, L), Target(11, L)])
    block.body[10] = make("mov", targets=[Target(4, R), Target(12, L)])
    block.body[11] = make("mov", targets=[Target(5, R)])
    block.body[12] = make("mov", targets=[Target(6, R)])
    # loads, LSIDs 0-3: crossing, in a page the first one allocated,
    # in an absent page, and at a constant address that crosses
    block.body[0] = make("ld", lsid=0, targets=[Target(0, OperandKind.WRITE)])
    block.body[1] = make("lw", lsid=1, targets=[Target(1, OperandKind.WRITE)])
    block.body[2] = make("lb", lsid=2, targets=[Target(2, OperandKind.WRITE)])
    block.body[13] = make("movi", const=0x400, targets=[Target(14, L)])
    block.body[14] = make("movih", const=0x0FFF, targets=[Target(3, L)])
    block.body[3] = make("lh", lsid=3, targets=[Target(3, OperandKind.WRITE)])
    # stores, LSIDs 4-6: into an allocated page, across a page end, and
    # at a constant address in an absent page
    block.body[4] = make("sd", lsid=4, imm=8)
    block.body[5] = make("sw", lsid=5)
    block.body[15] = make("movi", const=0x500, targets=[Target(16, L)])
    block.body[16] = make("movih", const=0, targets=[Target(6, L)])
    block.body[6] = make("sh", lsid=6)
    block.body[7] = make("halt")
    for slot, reg in enumerate((16, 20, 24, 28)):
        block.writes[slot] = WriteInstruction(reg)
    program = Program(entry=0x1000, initial_regs={4: a, 8: b, 12: data})
    program.add_block(0x1000, block)
    program.add_data(0x4001000, bytes(range(1, 9)))
    source = compile_block(block, 0x1000).__ffwd_source__
    assert "_pg(" in source and "_ld(" not in source
    assert_exact(program)


@pytest.mark.parametrize("test,message", [("teq", "two branches fired"),
                                          ("tne", "no branch fired")])
def test_completion_checks_still_fire(test, message):
    """Two branches guarded by the *same* value of one predicate are not
    exclusive: the compiled block keeps the checks a malformed block
    trips, and raises where the interpreter raises."""
    pred = OperandKind.PRED
    block = TripsBlock(name="twice")
    block.reads[0] = ReadInstruction(4, [Target(0, OperandKind.LEFT),
                                         Target(0, OperandKind.RIGHT)])
    block.body[0] = make(test, targets=[Target(1, pred), Target(2, pred)])
    block.body[1] = make("halt_t", exit_no=0)
    block.body[2] = make("halt_t", exit_no=1)
    program = Program(entry=0x1000)
    program.add_block(0x1000, block)
    with pytest.raises(SimError, match=message):
        FunctionalSim(program).run()
    with pytest.raises(SimError, match=message):
        FastForwarder(program, TripsConfig(), warm=True).run()
    cold = FastForwarder(program, TripsConfig(), warm=False)
    with pytest.raises(SimError, match=message):
        cold.run_blocks(1)
