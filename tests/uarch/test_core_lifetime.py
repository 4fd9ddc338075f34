"""A finished core frees itself.

A core owns its parts — tiles, OPN, telemetry recorder, timed-event
calendar, memory-response callbacks — and none of them holds the core;
where a call needs the core, the core passes itself.  So a core has no
reference cycle, and reference counting frees it, with everything it
holds, the moment its last owner drops it.  With a cycle anywhere it
would live on until a full collection, and memory would count dead
cores.

Each test runs with the collector disabled: a weak reference that is
still alive after the last strong one is dropped is a cycle.
"""

import gc
import weakref

import pytest

import repro.sampling.sampler as sampler
from repro.chip import TripsChip
from repro.compiler import compile_tir
from repro.sampling.checkpoint import take_checkpoint
from repro.sampling.ffwd import FastForwarder
from repro.sampling.sampler import SamplingConfig, run_sampled_program
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def no_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _program(name="sha", level="hand", **kwargs):
    return compile_tir(get_workload(name), level=level, **kwargs).program


def _refs(proc):
    """Weak references to the core, its OPN mesh and a tile of each
    kind."""
    return [weakref.ref(obj) for obj in
            (proc, proc.opn, proc.ets[5], proc.rts[0], proc.dts[2])]


def _alive(refs):
    return [ref() is not None for ref in refs]


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast", "full-scan"])
@pytest.mark.parametrize("perfect_l2", [True, False], ids=["flat-l2", "nuca"])
def test_finished_core_frees_itself(fast_path, perfect_l2):
    proc = TripsProcessor(_program(), TripsConfig(
        fast_path=fast_path, perfect_l2=perfect_l2))
    assert proc.run().blocks_committed > 0
    refs = _refs(proc)
    del proc
    assert _alive(refs) == [False] * len(refs)


@pytest.mark.parametrize("perfect_l2", [True, False], ids=["flat-l2", "nuca"])
def test_core_with_telemetry_and_trace_frees_itself(perfect_l2):
    proc = TripsProcessor(_program(), TripsConfig(perfect_l2=perfect_l2),
                          telemetry=True, trace=True)
    proc.run()
    refs = _refs(proc) + [weakref.ref(proc.tel), weakref.ref(proc.trace)]
    summary = proc.tel.summary()
    assert summary.cycles == proc.cycle
    del proc
    assert _alive(refs) == [False] * len(refs)


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast", "full-scan"])
def test_core_stopped_mid_flight_frees_itself(fast_path):
    """A run stopped by ``until_blocks`` leaves packets on the OPN, NUCA
    line requests carrying DT callbacks, and calendar entries of the
    core and its tiles."""
    proc = TripsProcessor(_program(), TripsConfig(
        fast_path=fast_path, perfect_l2=False))
    proc.run(until_blocks=5)
    assert not proc.halted
    owners = {type(getattr(fn, "__self__", None)).__name__
              for bucket in proc.ev_buckets.values() for fn, _ in bucket}
    # the core's own entries are unbound; the tiles' are bound methods
    assert owners == {"NoneType", "ExecTile", "DataTile"}
    assert not proc.opn.is_idle()
    assert proc.sysmem.next_work_t() is not None
    refs = _refs(proc) + [weakref.ref(proc.sysmem)]
    del proc
    assert _alive(refs) == [False] * len(refs)


def test_core_resumed_from_a_checkpoint_frees_itself():
    program = _program("mcf", "tcc")
    ff = FastForwarder(program, TripsConfig(perfect_l2=False))
    ff.run_blocks(200)
    proc = TripsProcessor(program, TripsConfig(perfect_l2=False),
                          telemetry=True, checkpoint=take_checkpoint(ff))
    proc.run(until_blocks=50)
    refs = _refs(proc)
    del proc
    assert _alive(refs) == [False] * len(refs)


def test_two_core_chip_frees_its_cores():
    p0 = _program("vadd", base=0x1000, data_base=0x100000)
    p1 = _program("sha", base=0x40000, data_base=0x180000)
    chip = TripsChip(p0, p1, telemetry=True)
    stats = chip.run()
    assert all(core.blocks_committed for core in stats.per_core)
    refs = [weakref.ref(chip), weakref.ref(chip.sysmem)]
    for core in chip.cores:
        refs += _refs(core)
    del chip, core
    assert _alive(refs) == [False] * len(refs)


def test_each_sampled_window_core_is_freed_before_the_next(monkeypatch):
    """Memory holds one window core at a time, and none once the run
    returns."""
    cores = []

    class Recorded(TripsProcessor):
        def __init__(self, *args, **kwargs):
            assert _alive(cores) == [False] * len(cores)
            super().__init__(*args, **kwargs)
            cores.append(weakref.ref(self))

    monkeypatch.setattr(sampler, "TripsProcessor", Recorded)
    sampling = SamplingConfig(interval_blocks=400, warmup_blocks=40,
                              measure_blocks=60)
    sampled, _ff, summaries = run_sampled_program(
        _program("mcf", "tcc"), TripsConfig(perfect_l2=False),
        sampling=sampling, telemetry=True)
    assert len(cores) == len(summaries) == sampled.windows > 1
    assert _alive(cores) == [False] * len(cores)
