"""``run(until_blocks=k)`` returns at the same cycle on both engines.

The sampling driver stops the simulator at commit boundaries and reads
partial stats there, so the cycle a call returns at must not depend on
the engine.  Once the commit count is reached the fast engine may not
start an idle-cycle skip: the full-scan engine only steps through those
cycles in the next call, and a window measured between two boundaries
would otherwise be charged cycles that belong to its neighbour.
"""

import pytest

from repro.compiler import compile_tir
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload

_CASES = [("vadd", "hand"), ("sha", "tcc"), ("mcf", "tcc"), ("conv", "hand")]


def _boundary_cycles(program, fast_path):
    """The cycle each ``run(until_blocks=k)`` returns at, k = 1, 2, ..."""
    proc = TripsProcessor(program, config=TripsConfig(fast_path=fast_path))
    cycles = []
    while not proc.halted:
        cycles.append(proc.run(until_blocks=len(cycles) + 1).cycles)
    return cycles, proc.stats.to_dict()


@pytest.mark.parametrize("name,level", _CASES,
                         ids=[f"{n}-{lv}" for n, lv in _CASES])
def test_every_commit_boundary_matches_full_scan(name, level):
    program = compile_tir(get_workload(name), level=level).program
    fast_cycles, fast_stats = _boundary_cycles(program, fast_path=True)
    scan_cycles, scan_stats = _boundary_cycles(program, fast_path=False)
    assert fast_cycles == scan_cycles
    assert fast_stats == scan_stats
