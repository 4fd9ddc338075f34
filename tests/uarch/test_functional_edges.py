"""Edge cases for the functional simulator and supporting pieces."""

from repro.asm import assemble
from repro.isa import Program, ProgramBuilder, TripsBlock, make
from repro.uarch import FunctionalSim, SimError


class TestFunctionalEdges:
    def test_null_poisons_arithmetic_chain(self):
        # null -> add -> mov -> write: the write arrives nullified
        sim = FunctionalSim(assemble(""".reg R4 = 9
.block main
    R[0] read R4 N[5,L]
    W[0] write R4
    N[0] teqi #1 N[4,L]
    N[5] mov N[0,L] N[6,L]
    N[4] mov N[1,P] N[6,P]
    N[1] null_t N[3,L]
    N[6] mov_f N[3,L]
    N[3] addi #1 W[0]
    N[7] halt exit0
"""))
        sim.run()
        # R4 == 9 -> teqi 9==1 false -> mov_f forwards 9 -> R4 = 10
        assert sim.regs[4] == 10

    def test_divide_by_zero_defined(self):
        sim = FunctionalSim(assemble(""".block main
    W[0] write R4
    N[0] movi #5 N[2,L]
    N[1] movi #0 N[2,R]
    N[2] divs W[0]
    N[3] halt exit0
"""))
        sim.run()
        assert sim.regs[4] == 0           # defined: x/0 == 0

    def test_predicated_branch_pair_one_fires(self):
        for r4, blocks in ((0, 1), (1, 2)):
            sim = FunctionalSim(assemble(f""".reg R4 = {r4}
.block main
    R[0] read R4 N[0,L]
    N[0] teqi #1 N[3,L]
    N[3] mov N[1,P] N[2,P]
    N[1] bro_t exit0 @extra
    N[2] bro_f exit1 @exit
.block extra
    N[0] bro exit0 @exit
"""))
            sim.run()
            assert sim.stats.blocks == blocks

    def test_listing_and_memory_image(self):
        prog = assemble(""".entry main
.block main
    N[0] halt exit0
""")
        text = prog.listing()
        assert "halt" in text and "main" in text
        image = prog.memory_image()
        assert sum(len(v) for v in image.values()) >= 256


class TestProgramBuilderEdges:
    def test_branch_offset_resolution_backward(self):
        pb = ProgramBuilder(base=0x1000)
        blk_a = TripsBlock()
        fwd = make("bro")
        fwd.label = "b"
        blk_a.body[0] = fwd
        pb.append(blk_a, label="a")
        blk_b = TripsBlock()
        back = make("bro")
        back.label = "a"
        blk_b.body[0] = back
        pb.append(blk_b, label="b")
        prog = pb.finish()
        a, b = prog.labels["a"], prog.labels["b"]
        assert a + prog.blocks[a].body[0].offset == b
        assert b + prog.blocks[b].body[0].offset == a
