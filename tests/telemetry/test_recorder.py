"""Telemetry recorder invariants.

The load-bearing property: cycle accounting is *exact*.  For every tile,
busy + all stalls + idle must sum to exactly ``ProcStats.cycles`` — on
the fast-path engine (where idle-cycle fast-forward charges skipped
stretches through ``account_skip``), on the escape-hatch engine, with
the detailed NUCA memory system, and on the dual-core chip.  Skipped
stretches are charged to the states stepping them would record, so the
fast engine's per-tile totals equal the full-scan engine's.
"""

import pytest

from repro.chip import TripsChip
from repro.compiler import compile_tir
from repro.fuzz.gen import generate
from repro.telemetry.recorder import STATES
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload

WORKLOADS = ["vadd", "sha", "qr", "genalg", "tblook01", "mcf", "matrix"]


def _run_with_tel(name, level="hand", **overrides):
    level = level if name != "mcf" else "tcc"
    program = compile_tir(get_workload(name), level=level).program
    proc = TripsProcessor(program, config=TripsConfig(**overrides),
                          telemetry=True)
    stats = proc.run()
    return stats, proc.tel.summary()


def _assert_tiles_sum(summary, cycles):
    assert summary.cycles == cycles
    assert len(summary.tiles) == 25          # GT + 4 RT + 4 DT + 16 ET
    for name, totals in summary.tiles.items():
        assert sum(totals.values()) == cycles, \
            f"{name}: {totals} sums to {sum(totals.values())} != {cycles}"
        assert set(totals) <= set(STATES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tile_cycles_sum_exactly_fast_engine(name):
    stats, summary = _run_with_tel(name, fast_path=True)
    _assert_tiles_sum(summary, stats.cycles)


@pytest.mark.parametrize("name", ["vadd", "qr"])
def test_tile_cycles_sum_exactly_slow_engine(name):
    stats, summary = _run_with_tel(name, fast_path=False)
    _assert_tiles_sum(summary, stats.cycles)


@pytest.mark.parametrize("name", ["vadd", "sha"])
def test_tile_cycles_sum_exactly_nuca(name):
    """perfect_l2=False: OCN + NUCA banks + DRAM, long fast-forwards."""
    stats, summary = _run_with_tel(name, perfect_l2=False)
    _assert_tiles_sum(summary, stats.cycles)
    assert summary.dram["bank_accesses"] > 0
    assert summary.ocn["total_link_flits"] > 0


def test_fast_forward_cycles_accounted_as_idle_spans():
    """Fast-forwarded stretches appear in the totals (idle-dominated)."""
    stats, summary = _run_with_tel("vadd", perfect_l2=False)
    assert summary.fast_forward["cycles"] > 0
    assert summary.fast_forward["stretches"] > 0
    # skipped stretches charge the GT idle, or gdn_backlog while the
    # dispatch pipe drains; idle dominates
    assert summary.tiles["GT"].get("idle", 0) >= \
        summary.fast_forward["cycles"]


@pytest.mark.parametrize("name,perfect_l2", [("vadd", True), ("qr", True),
                                             ("mcf", True), ("qr", False)])
def test_skip_accounting_matches_full_scan(name, perfect_l2):
    """Skipped cycles are charged to the states stepping them would have
    recorded: every tile's totals equal the full-scan engine's."""
    _, fast = _run_with_tel(name, perfect_l2=perfect_l2, fast_path=True)
    _, scan = _run_with_tel(name, perfect_l2=perfect_l2, fast_path=False)
    assert fast.fast_forward["cycles"] > 0
    assert fast.tiles == scan.tiles
    assert fast.stall_totals == scan.stall_totals


@pytest.mark.parametrize("seed", [134, 138])
def test_fuzz_seed_summaries_match_full_scan_nuca(seed):
    """These generated programs skip stretches in which a DT has a miss
    outstanding and a load deferred.  Stepped and skipped cycles rank
    that DT's states by one precedence, so the whole summary equals the
    full-scan engine's but for the fast engine's own ``fast_forward``
    record."""
    program = compile_tir(generate(seed), level="hand").program
    summaries = []
    for fast_path in (True, False):
        proc = TripsProcessor(program, config=TripsConfig(
            fast_path=fast_path, perfect_l2=False), telemetry=True)
        proc.run()
        summary = proc.tel.summary().to_dict()
        del summary["fast_forward"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_aggregates_match_tiles():
    stats, summary = _run_with_tel("qr")
    busy = sum(t.get("busy", 0) for t in summary.tiles.values())
    idle = sum(t.get("idle", 0) for t in summary.tiles.values())
    assert summary.busy_cycles == busy
    assert summary.idle_cycles == idle
    total = busy + idle + sum(summary.stall_totals.values())
    assert total == summary.cycles * len(summary.tiles)


def test_block_spans_recorded():
    stats, summary = _run_with_tel("qr")
    assert summary.blocks["committed"] == stats.blocks_committed
    assert summary.blocks["flushed"] == stats.blocks_flushed
    phases = summary.block_phases
    assert phases["lifetime"] > 0
    assert phases["lifetime"] >= phases["commit_to_ack"]


def test_opn_utilization_recorded():
    stats, summary = _run_with_tel("qr")
    opn = summary.opn
    assert opn["total_link_flits"] > 0
    assert 0.0 <= opn["peak_link_utilization"] <= 1.0
    assert opn["peak_queue_depth"] >= 1
    hist = opn["queue_depth_hist"]
    # time-weighted histogram covers all 25 routers for every cycle
    assert sum(hist.values()) == 25 * summary.cycles


def test_chip_dual_recorder_cycles_sum():
    """Each chip core carries its own recorder; sums hold per core, and
    the chip's skips are charged as the full-scan chip steps them."""
    from repro.tir import Assign, For, TirProgram, V

    p0 = compile_tir(get_workload("vadd"), level="hand",
                     base=0x1000, data_base=0x100000)
    prog1 = TirProgram(
        "adder", scalars={"acc": 0},
        body=[For("i", 0, 20, 1, [Assign("acc", V("acc") + V("i"))])],
        outputs=["acc"])
    p1 = compile_tir(prog1, level="hand", base=0x40000, data_base=0x180000)

    def run_chip(fast_path):
        chip = TripsChip(p0.program, p1.program,
                         config=TripsConfig(fast_path=fast_path),
                         telemetry=True)
        chip.run()
        return chip

    chip = run_chip(True)
    for core in chip.cores:
        summary = core.tel.summary()
        _assert_tiles_sum(summary, core.cycle)
    # the shared memory system attaches to exactly one recorder (core 0)
    assert chip.cores[0].tel._owns_mem
    assert not chip.cores[1].tel._owns_mem
    scan = run_chip(False)
    assert [core.tel.summary().tiles for core in chip.cores] \
        == [core.tel.summary().tiles for core in scan.cores]
