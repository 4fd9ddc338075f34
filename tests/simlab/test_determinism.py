"""The acceptance property: a parallel sweep is byte-identical to a
serial one, and a repeated sweep is 100% cache hits with no
re-simulation.  Runs on a subset spanning all three spec kinds and both
code levels; the full-suite version is the benchmarks themselves
(SIMLAB_WORKERS=N SIMLAB_CACHE=dir pytest benchmarks/).
"""

import json

import pytest

from repro.harness.tables import table3_rows, table3_specs
from repro.simlab import ResultCache, RunSpec, run_specs

#: micro (hand+tcc+baseline), serial hand benchmark, and a SPEC proxy
#: with no hand level — the three Table 3 row shapes.
NAMES = ["vadd", "sha", "mcf"]


@pytest.fixture(scope="module")
def serial_rows():
    return table3_rows(NAMES, workers=0)


def test_parallel_table3_matches_serial(serial_rows, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    parallel = table3_rows(NAMES, workers=4, cache=cache)
    assert json.dumps(parallel) == json.dumps(serial_rows)

    # repeat: every job is served from the cache, nothing re-simulates
    misses_before = cache.misses
    again = table3_rows(NAMES, workers=4, cache=cache)
    assert json.dumps(again) == json.dumps(serial_rows)
    assert cache.misses == misses_before
    specs, _ = table3_specs(NAMES)
    assert cache.hits == len(specs)


def test_cached_rows_preserve_column_order(serial_rows, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    table3_rows(NAMES, workers=0, cache=cache)
    cached = table3_rows(NAMES, workers=0, cache=cache)
    assert [list(row) for row in cached] == \
        [list(row) for row in serial_rows]


def test_compare_specs_deterministic_across_modes(tmp_path):
    # the three runs a TRIPS-vs-baseline comparison divides
    specs = [RunSpec.baseline("vadd"), RunSpec.trips("vadd", level="tcc"),
             RunSpec.trips("vadd", level="hand")]
    serial = run_specs(specs, workers=0)
    parallel = run_specs(specs, workers=2)
    assert json.dumps(serial) == json.dumps(parallel)
