"""Fetch-protocol corner cases: I-cache capacity, refill, calls/returns."""

import pytest

from repro.asm import assemble
from repro.isa import ProgramBuilder, Target, OperandKind, TripsBlock, make
from repro.sampling import FastForwarder
from repro.uarch.config import TripsConfig
from repro.uarch.functional import FunctionalSim
from repro.uarch.predictor import BT_CALL, BT_RETURN
from repro.uarch.proc import TripsProcessor

#: 200 iterations of two call sites calling two distinct callees; each
#: callee RETs through the register its CALLO's link target wrote (R9,
#: R10), so every iteration is call_a, fa, call_b, fb, tail
CALL_RETURN_LOOP = """.reg R4 = 200
.reg R5 = 1
.reg R6 = 7
.block call_a
    W[8]  write R9
    N[0]  callo exit0 @fa W[8]
.block call_b
    W[16] write R10
    N[0]  callo exit0 @fb W[16]
.block tail
    R[0]  read R4 N[2,L]
    W[0]  write R4
    N[2]  subi #1 N[3,L]
    N[3]  mov W[0] N[4,L]
    N[4]  tgti #0 N[7,L]
    N[7]  mov N[5,P] N[6,P]
    N[5]  bro_t exit0 @call_a
    N[6]  bro_f exit1 @exit
.block fa
    R[8]  read R5 N[1,L]
    R[9]  read R9 N[0,L]
    W[8]  write R5
    N[1]  muli #3 N[2,L]
    N[2]  addi #1 W[8]
    N[0]  ret exit0
.block fb
    R[16] read R6 N[1,L]
    R[8]  read R5 N[1,R]
    R[17] read R10 N[0,L]
    W[16] write R6
    N[1]  add W[16]
    N[0]  ret exit0
"""


def chain_program(n_blocks: int, loops: int = 2):
    """A chain of ``n_blocks`` trivial blocks walked ``loops`` times."""
    builder = ProgramBuilder(base=0x1000)
    for i in range(n_blocks):
        blk = TripsBlock(name=f"b{i}")
        inst = make("bro")
        inst.label = f"c{i + 1}" if i + 1 < n_blocks else "tail"
        blk.body[0] = inst
        builder.append(blk, label=f"c{i}")
    tail = TripsBlock(name="tail")
    # countdown in R4: loop back to c0 while positive
    from repro.isa import ReadInstruction
    tail.reads[0] = ReadInstruction(4, [Target(0, OperandKind.LEFT)])
    tail.writes[0] = __import__("repro.isa", fromlist=["WriteInstruction"]) \
        .WriteInstruction(4)
    tail.body[0] = make("subi", imm=1,
                        targets=[Target(1, OperandKind.LEFT)])
    tail.body[1] = make("mov", targets=[Target(0, OperandKind.WRITE),
                                        Target(2, OperandKind.LEFT)])
    tail.body[2] = make("tgei", imm=0,
                        targets=[Target(3, OperandKind.LEFT)])
    tail.body[3] = make("mov", targets=[Target(4, OperandKind.PRED),
                                        Target(5, OperandKind.PRED)])
    back = make("bro", pred=True)
    back.label = "c0"
    tail.body[4] = back
    out = make("bro", pred=False, exit_no=1)
    out.label = "@exit"
    tail.body[5] = out
    builder.append(tail, label="tail")
    program = builder.finish()
    program.initial_regs[4] = loops - 1
    return program


class TestICache:
    def test_small_chain_hits_on_second_pass(self):
        program = chain_program(20, loops=2)
        proc = TripsProcessor(program)
        proc.run()
        # 21 cold misses; the second pass hits
        assert proc.stats.icache_miss_blocks == 21
        assert proc.stats.blocks_committed == 2 * 21

    def test_capacity_evictions_on_long_chain(self):
        # each IT bank holds 128 chunks; a 140-block chain walked twice
        # must evict and re-miss
        program = chain_program(140, loops=2)
        proc = TripsProcessor(program, config=TripsConfig(
            max_cycles=2_000_000))
        proc.run()
        assert proc.stats.blocks_committed == 2 * 141
        assert proc.stats.icache_miss_blocks > 141

    def test_refill_latency_observable(self):
        program = chain_program(4, loops=1)
        slow = TripsProcessor(program,
                              config=TripsConfig(l2_hit_cycles=200))
        slow.run()
        fast = TripsProcessor(program,
                              config=TripsConfig(l2_hit_cycles=4))
        fast.run()
        assert slow.stats.cycles > fast.stats.cycles + 100


class TestCallReturn:
    PROGRAM = """.reg R4 = 3
.block main
    W[8]  write R9
    N[0]  callo exit0 @callee W[8]
.block after
    R[0]  read R4 N[2,L]
    W[0]  write R4
    N[2]  subi #1 N[3,L]
    N[3]  mov W[0] N[4,L]
    N[4]  tgti #0 N[7,L]
    N[7]  mov N[5,P] N[6,P]
    N[5]  bro_t exit0 @main
    N[6]  bro_f exit1 @exit
.block callee
    R[8]  read R9 N[0,L]
    N[0]  ret exit0
"""

    def test_call_return_loop(self):
        # main calls callee; callee returns through the link register to
        # main's fall-through ("after"), which loops — the RAS and branch
        # type predictor see real call/return traffic
        proc = TripsProcessor(assemble(self.PROGRAM))
        proc.run()
        # 3 x (main + callee + after) = 9 committed blocks
        assert proc.stats.blocks_committed == 9
        assert proc.halted

    def test_ras_reduces_flushes_eventually(self):
        proc = TripsProcessor(assemble(self.PROGRAM.replace("= 3", "= 8")))
        proc.run()
        assert proc.stats.blocks_committed == 24
        # the tournament + RAS must do better than one flush per block
        assert proc.stats.flushes_mispredict < proc.stats.blocks_committed

    def test_two_call_sites_every_engine_agrees(self):
        # the compiler never emits callo/ret, so this hand-assembled loop
        # is what drives the ETs' CALLO/RET arms and the predictor's CTB,
        # branch-type table and RAS through the cycle engine
        program = assemble(CALL_RETURN_LOOP)
        fast = TripsProcessor(program)
        stats = fast.run().to_dict()
        full = TripsProcessor(program, config=TripsConfig(fast_path=False))
        assert full.run().to_dict() == stats
        assert stats["blocks_committed"] == 5 * 200
        assert {BT_CALL, BT_RETURN} <= set(fast.predictor.btype)
        ref = FunctionalSim(program)
        ref.run()
        ff = FastForwarder(program, TripsConfig(), warm=True)
        ff.run()
        assert ff.fallback_blocks == 0
        assert list(fast.regs) == list(full.regs) == list(ref.regs) \
            == list(ff.regs)
        assert fast.regs[9] == program.labels["call_b"]
        assert fast.regs[10] == program.labels["tail"]
