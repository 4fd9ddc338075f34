"""The bisect-indexed predecessor lookup must reproduce the original
linear-scan critical paths exactly, on every registered workload.

``_Walker`` now builds a uid-sorted index of committed blocks once and
bisects for "latest committed block older than uid"; the original code
scanned every traced block per query (quadratic in run length).  The
attribution itself — the backward walk over last-arrival edges — is
untouched, so the reports must be identical field for field.
"""

import pytest

from repro.analysis.critpath import CriticalPathReport, _Walker, \
    analyze_critical_path
from repro.compiler import compile_tir
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload, workload_names


class _ScanWalker(_Walker):
    """Reference walker: the original O(blocks) predecessor scan."""

    def _previous_committed(self, block):
        best = None
        for other in self.trace.blocks.values():
            if other.outcome == "committed" and other.uid < block.uid:
                if best is None or other.uid > best.uid:
                    best = other
        return best


@pytest.mark.parametrize("name", workload_names())
def test_identical_critical_path_all_workloads(name):
    program = compile_tir(get_workload(name), level="tcc").program
    proc = TripsProcessor(program, trace=True)
    proc.run()

    fast = analyze_critical_path(proc.trace)
    ref = CriticalPathReport()
    _ScanWalker(proc.trace, ref).walk()

    assert fast.cycles == ref.cycles
    assert fast.path_length == ref.path_length
    assert fast.events_walked == ref.events_walked
