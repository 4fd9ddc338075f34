"""Table 3 (left half): distributed network overheads as a percentage of
each benchmark's critical path, for all 21 workloads.

Expected shape (the claims we verify, per DESIGN.md): operand-network
terms (hops + contention) are the dominant distributed overhead on most
benchmarks; the control-protocol categories (block completion, commit,
fetch for hand-level code) are individually modest; fanout overhead
appears but stays a minority share.
"""

import pytest

from repro.analysis import analyze_critical_path
from repro.harness import render_table
from repro.harness.runner import run_trips_workload
from repro.workloads.registry import HAND_OPTIMIZED

from .conftest import PERFORMANCE, save

CATEGORIES = ["IFetch", "OPN Hops", "OPN Cont.", "Fanout Ops",
              "Block Complete", "Block Commit", "Other"]


@pytest.fixture(scope="module")
def overhead_rows(table3):
    # each row's critical path is measured at the best available level
    rows = []
    for row in table3:
        name = row["Benchmark"]
        level = "hand" if name in HAND_OPTIMIZED else "tcc"
        rows.append({"Benchmark": name, "Level": level,
                     **{k: v for k, v in row.items()
                        if k != "Benchmark" and k not in PERFORMANCE}})
    return rows


def test_table3_overheads(benchmark, overhead_rows, results_dir):
    # benchmark one representative workload's full pipeline; the module
    # fixture above computed the complete table once
    benchmark.pedantic(
        lambda: analyze_critical_path(
            run_trips_workload("qr", level="hand", trace=True).proc.trace),
        rounds=1, iterations=1)
    text = render_table(overhead_rows,
                        "Table 3 (left): network overheads as % of the "
                        "critical path")
    save(results_dir, "table3_overheads.txt", text)

    for row in overhead_rows:
        total = sum(row[c] for c in CATEGORIES)
        assert abs(total - 100.0) < 0.6, row["Benchmark"]

    def mean(cat):
        return sum(r[cat] for r in overhead_rows) / len(overhead_rows)

    # operand routing is the largest distributed overhead on average
    opn = mean("OPN Hops") + mean("OPN Cont.")
    assert opn > mean("Block Complete") + mean("Block Commit")
    # control protocols are individually modest (paper: typically <10%)
    assert mean("Block Complete") < 15
    assert mean("Block Commit") < 15
    # fanout shows up but is a minority share (paper: up to ~12-25%)
    assert 0 < mean("Fanout Ops") < 30
