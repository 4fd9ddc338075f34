"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation DESIGN.md calls out) and writes its output under
``benchmarks/results/`` so a full ``pytest benchmarks/ --benchmark-only``
run leaves the reproduced evaluation on disk.
"""

import pathlib

import pytest

from repro.harness import table3_rows
from repro.simlab import cache_from_env, workers_from_env

RESULTS = pathlib.Path(__file__).parent / "results"

#: the performance columns of a Table 3 row
PERFORMANCE = ["Speedup TCC", "Speedup Hand", "IPC Alpha", "IPC TCC",
               "IPC Hand"]


@pytest.fixture(scope="session")
def results_dir():
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


@pytest.fixture(scope="session")
def table3():
    """Every Table 3 row from one simlab sweep, shared by both halves of
    the table; SIMLAB_WORKERS / SIMLAB_CACHE opt the sweep into
    parallelism and caching without changing its results."""
    return table3_rows(workers=workers_from_env(), cache=cache_from_env())


def save(results_dir, name: str, text: str) -> None:
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n[saved {path}]")
    print(text)
