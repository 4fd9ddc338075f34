"""Table 3 (right half): TRIPS speedups over the conventional baseline and
the IPCs of all three configurations, for all 21 workloads.

Expected shape: hand-optimized code beats compiled (TCC) code everywhere;
`sha` (serial) loses to the baseline; the regular parallel kernels are the
best TRIPS cases; the SPEC proxies have no hand numbers (the paper never
hand-optimized SPEC).  Absolute speedups are NOT expected to match the
paper — see EXPERIMENTS.md for the measured-vs-paper discussion.
"""

import pytest

from repro.harness import render_table, table3_rows
from repro.workloads.registry import HAND_OPTIMIZED

from .conftest import PERFORMANCE, save


@pytest.fixture(scope="module")
def perf_rows(table3):
    return [{"Benchmark": row["Benchmark"],
             **{col: row[col] for col in PERFORMANCE}} for row in table3]


def test_table3_performance(benchmark, perf_rows, results_dir):
    # benchmark one representative workload's row; the session fixture
    # computed the complete table once
    benchmark.pedantic(lambda: table3_rows(["vadd"]),
                       rounds=1, iterations=1)
    text = render_table(perf_rows,
                        "Table 3 (right): preliminary performance vs the "
                        "conventional baseline")
    save(results_dir, "table3_performance.txt", text)

    by_name = {r["Benchmark"]: r for r in perf_rows}
    # hand beats (or at worst ties) compiled code; the serial benchmark is
    # allowed a small regression since hand-level restructuring cannot
    # mine concurrency that is not there
    for name in HAND_OPTIMIZED:
        row = by_name[name]
        assert row["Speedup Hand"] >= 0.85 * row["Speedup TCC"], name
    hand_wins = sum(1 for n in HAND_OPTIMIZED
                    if by_name[n]["Speedup Hand"] > by_name[n]["Speedup TCC"])
    assert hand_wins >= len(HAND_OPTIMIZED) - 1
    # the serial benchmark loses to the baseline (paper: sha 0.91x)
    assert by_name["sha"]["Speedup Hand"] < 1.0
    # regular parallel kernels are TRIPS's best cases
    best = max(r["Speedup Hand"] or 0 for r in perf_rows)
    assert best > 1.0
    assert by_name["sha"]["Speedup Hand"] < best / 2
    # hand IPCs land in a sensible concurrency band (paper: 1.1-6.5)
    hand_ipcs = [r["IPC Hand"] for r in perf_rows if r["IPC Hand"]]
    assert min(hand_ipcs) > 0.5
    assert max(hand_ipcs) < 8.0
