"""Checkpoint determinism.

The contract :mod:`repro.sampling` rests on: resuming a cycle-accurate
processor from a checkpoint is *the same machine* as one that was never
interrupted.  A block-0 checkpoint must reproduce the uninterrupted run's
``ProcStats`` byte-for-byte on both engine tiers, and a mid-run
checkpoint (JSON round-tripped, like a cache or a disk file would) must
finish with architecturally exact results.
"""

import json

import pytest

from repro.compiler import compile_tir
from repro.sampling import ArchCheckpoint, FastForwarder, take_checkpoint
from repro.tir import interpret
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload, workload_names

_ENGINES = [True, False]            # fast-path and full-scan engine tiers


@pytest.mark.slow
@pytest.mark.parametrize("fast_path", _ENGINES, ids=["fast", "scan"])
@pytest.mark.parametrize("name", workload_names())
def test_block0_resume_is_byte_identical(name, fast_path):
    program = compile_tir(get_workload(name), level="tcc").program
    config = TripsConfig(fast_path=fast_path)
    baseline = TripsProcessor(program, config=config).run().to_dict()

    ff = FastForwarder(program, config, warm=True)
    ckpt = take_checkpoint(ff)          # before a single block retires
    proc = TripsProcessor(program, config=config, checkpoint=ckpt)
    resumed = proc.run().to_dict()
    assert resumed == baseline


@pytest.mark.parametrize("name", ["mcf", "a2time01", "dct8x8",
                                  "wheel_deferred_wake"])
def test_midrun_checkpoint_roundtrip_finishes_exactly(name):
    tir = get_workload(name)
    compiled = compile_tir(tir, level="tcc")
    program = compiled.program
    config = TripsConfig()

    ff = FastForwarder(program, config, warm=True)
    total = FastForwarder(program, config, warm=False).run().blocks
    ff.run_blocks(total // 2)
    ckpt = take_checkpoint(ff)

    # the codec is exact: a JSON round trip changes nothing
    wire = json.dumps(ckpt.to_dict(), sort_keys=True)
    restored = ArchCheckpoint.from_dict(json.loads(wire))
    assert json.dumps(restored.to_dict(), sort_keys=True) == wire

    proc = TripsProcessor(program, config=config, checkpoint=restored)
    stats = proc.run()
    assert stats.blocks_committed == total - ckpt.blocks
    golden = interpret(tir).output_signature(tir.outputs)
    assert compiled.extract_outputs(proc.regs, proc.memory) == golden


def test_halted_checkpoint_refuses_resume():
    program = compile_tir(get_workload("vadd"), level="tcc").program
    ff = FastForwarder(program, TripsConfig(), warm=True)
    ff.run()
    assert ff.halted
    ckpt = take_checkpoint(ff)
    with pytest.raises(ValueError, match="HALT"):
        TripsProcessor(program, config=TripsConfig(), checkpoint=ckpt)


def test_checkpoint_wipes_history_but_keeps_tables():
    """The wrong-path-pollution countermeasure (see take_checkpoint's
    docstring): tables ship warm, history registers ship zeroed."""
    program = compile_tir(get_workload("a2time01"), level="tcc").program
    ff = FastForwarder(program, TripsConfig(), warm=True)
    ff.run_blocks(400)
    ckpt = take_checkpoint(ff)
    assert ckpt.predictor["ghist"] == 0
    assert set(ckpt.predictor["lht"]) == {0}
    live = ff.predictor.state_dict()
    assert ckpt.predictor["gshare_exit"] == live["gshare_exit"]
    assert ckpt.predictor["btb"] == live["btb"]


def test_unwarmed_checkpoint_carries_no_uarch_state():
    program = compile_tir(get_workload("vadd"), level="tcc").program
    ff = FastForwarder(program, TripsConfig(), warm=False)
    ff.run_blocks(50)
    ckpt = take_checkpoint(ff)
    assert ckpt.predictor is None
    assert ckpt.icache is None and ckpt.dcache is None


def test_consecutive_snapshots_share_unchanged_pages():
    """A profiling pass keeps one snapshot per interval: a page the
    stretch between two snapshots left alone is one ``bytes`` object in
    both, and a page it wrote is a fresh image of the live page."""
    program = compile_tir(get_workload("mcf", size=8), level="tcc").program
    ff = FastForwarder(program, TripsConfig(), warm=False)
    ff.run_blocks(1000)
    first = take_checkpoint(ff)
    ff.run_blocks(2000)
    second = take_checkpoint(ff)
    live = dict(ff.memory.touched_pages())
    assert second.pages == live
    unchanged = [addr for addr, image in first.pages.items()
                 if second.pages[addr] == image]
    written = [addr for addr, image in first.pages.items()
               if second.pages[addr] != image]
    assert unchanged and written
    assert all(second.pages[addr] is first.pages[addr] for addr in unchanged)
    assert all(isinstance(image, bytes) for image in second.pages.values())
