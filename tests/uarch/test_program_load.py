"""A program is validated and encoded once, however many simulators load it.

Every simulator — the cycle-level core, the functional simulator and the
fast-forwarder built on it — loads ``Program.memory_image()``, which
validates and encodes each block on first use and keeps the result.
``add_block``/``add_data`` drop it; an invalid program still raises when
a simulator is built from it.
"""

from collections import Counter

import pytest

from repro.compiler import compile_tir
from repro.isa import (BlockError, Program, ProgramError, TripsBlock,
                       make)
from repro.sampling import FastForwarder
from repro.uarch.functional import FunctionalSim
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload


def _fresh_copy(program: Program) -> Program:
    """The same program, never imaged."""
    return Program(blocks=dict(program.blocks), data=dict(program.data),
                   entry=program.entry,
                   initial_regs=dict(program.initial_regs),
                   labels=dict(program.labels))


def _count(monkeypatch):
    """From now on, per-block validate/encode counts by block identity."""
    seen = {"validate": Counter(), "encode": Counter()}
    for name in seen:
        original = getattr(TripsBlock, name)

        def counted(self, _original=original, _name=name):
            seen[_name][id(self)] += 1
            return _original(self)

        monkeypatch.setattr(TripsBlock, name, counted)
    return seen


def _build_all(program: Program) -> None:
    for _ in range(2):
        TripsProcessor(program)
        FunctionalSim(program)
        FastForwarder(program)


def test_each_block_validated_and_encoded_once(monkeypatch):
    program = _fresh_copy(compile_tir(get_workload("vadd"), "tcc").program)
    blocks = {id(b) for b in program.blocks.values()}
    counts = _count(monkeypatch)
    _build_all(program)
    for name in ("validate", "encode"):
        assert set(counts[name]) == blocks, name
        assert set(counts[name].values()) == {1}, name


def test_compiled_program_arrives_imaged(monkeypatch):
    program = compile_tir(get_workload("vadd"), "hand").program
    counts = _count(monkeypatch)
    _build_all(program)
    assert not counts["validate"] and not counts["encode"]


def test_add_data_and_add_block_force_a_fresh_validation(monkeypatch):
    program = _fresh_copy(compile_tir(get_workload("vadd"), "tcc").program)
    n = len(program.blocks)
    counts = _count(monkeypatch)
    FunctionalSim(program)
    assert sum(counts["validate"].values()) == n

    program.add_data(0x7000000, b"\x01\x02\x03")
    sim = FunctionalSim(program)
    assert sum(counts["validate"].values()) == 2 * n
    assert sim.memory.read_bytes(0x7000000, 3) == b"\x01\x02\x03"
    TripsProcessor(program)
    assert sum(counts["validate"].values()) == 2 * n

    spare = TripsBlock(name="spare")
    spare.body[0] = make("halt")
    address = max(program.blocks) + 0x1000
    program.add_block(address, spare)
    assert sum(counts["validate"].values()) == 2 * n
    FastForwarder(program)
    assert sum(counts["validate"].values()) == 3 * n + 1
    assert address in program.memory_image()


@pytest.mark.parametrize("sim", [TripsProcessor, FunctionalSim,
                                 FastForwarder])
def test_invalid_program_still_raises_at_construction(sim):
    no_branch = TripsBlock(name="nobranch")
    no_branch.body[0] = make("movi", const=1)
    program = Program(entry=0x1000)
    program.add_block(0x1000, no_branch)
    with pytest.raises(BlockError, match="no branch"):
        sim(program)

    dangling = TripsBlock(name="dangling")
    dangling.body[0] = make("bro", offset=0x400)
    with pytest.raises(ProgramError, match="holds no block"):
        sim(Program(blocks={0x1000: dangling}, entry=0x1000))

    halt = TripsBlock(name="halt")
    halt.body[0] = make("halt")
    program = Program(blocks={0x1000: halt}, entry=0x1000)
    sim(program)
    program.entry = 0x2000            # the entry is checked on every use
    with pytest.raises(ProgramError, match="entry"):
        sim(program)


def test_image_is_shared_read_only():
    program = compile_tir(get_workload("vadd"), "tcc").program
    image = program.memory_image()
    assert dict(image) == dict(program.memory_image())
    with pytest.raises(TypeError):
        image[0] = b"\x00"
