"""The benchmark's inputs, pinned here rather than imported from the
harness, so that a change to ``repro.harness.bench`` or
``repro.harness.sbench`` cannot silently move what perfbench measures.

Nothing in this module imports ``repro``: the sampling geometry is kept
as plain ``SamplingConfig`` keyword dicts.
"""

from __future__ import annotations

#: the four workloads, in the order ``python -m perfbench`` runs them
WORKLOADS = ("table3-l2perfect", "table3-nuca", "sampled-roster",
             "fuzz-fleet")

#: the 41-case Table-3 bench matrix: all 25 registry workloads at
#: ``tcc`` (21 Table-3 rows + 4 synth), then the 16 hand-optimized rows
TABLE3_CASES = (
    ("dct8x8", "tcc"), ("matrix", "tcc"), ("sha", "tcc"), ("vadd", "tcc"),
    ("cfar", "tcc"), ("conv", "tcc"), ("ct", "tcc"), ("genalg", "tcc"),
    ("pm", "tcc"), ("qr", "tcc"), ("svd", "tcc"), ("a2time01", "tcc"),
    ("bezier02", "tcc"), ("basefp01", "tcc"), ("rspeed01", "tcc"),
    ("tblook01", "tcc"), ("mcf", "tcc"), ("parser", "tcc"),
    ("bzip2", "tcc"), ("twolf", "tcc"), ("mgrid", "tcc"),
    ("guarded_slots_phi", "tcc"), ("ifconv_block_limit", "tcc"),
    ("srisc_addr_cse", "tcc"), ("wheel_deferred_wake", "tcc"),
    ("dct8x8", "hand"), ("matrix", "hand"), ("sha", "hand"),
    ("vadd", "hand"), ("cfar", "hand"), ("conv", "hand"), ("ct", "hand"),
    ("genalg", "hand"), ("pm", "hand"), ("qr", "hand"), ("svd", "hand"),
    ("a2time01", "hand"), ("bezier02", "hand"), ("basefp01", "hand"),
    ("rspeed01", "hand"), ("tblook01", "hand"),
)
TABLE3_SMOKE = (("vadd", "tcc"), ("sha", "hand"),
                ("wheel_deferred_wake", "tcc"))

#: memory system per Table-3 workload: ``perfect_l2`` for TripsConfig
TABLE3_MEM = {"table3-l2perfect": True, "table3-nuca": False}

#: every case runs at least this many times; a case's host time is its
#: best run, which drops the first run's one-off block decode
TABLE3_MIN_REPEATS = 2


def _geometry(interval: int, windows: int) -> dict:
    return {"interval_blocks": interval, "warmup_blocks": 100,
            "measure_blocks": 150, "clustering": True,
            "phase_windows": windows, "warm_horizon": 2000}


#: the sampling roster: (workload, size, SamplingConfig kwargs).  Phase
#: clustering with bounded warming; ``phase_seed`` comes from ``--seed``.
ROSTER = (
    ("mcf", 512, _geometry(8000, 14)),
    ("dct8x8", 128, _geometry(10000, 14)),
    ("a2time01", 3072, _geometry(12000, 14)),
    ("bezier02", 4096, _geometry(10000, 14)),
    ("basefp01", 4096, _geometry(8000, 20)),
)
ROSTER_SMOKE = (
    ("mcf", 48, {"interval_blocks": 1200, "warmup_blocks": 60,
                 "measure_blocks": 100, "clustering": True,
                 "phase_windows": 12, "warm_horizon": 600}),
)

#: the fuzz fleet: what ``python -m repro.fuzz run --n 100 --workers 1``
#: submits — fuzz seeds 0-99 in shards of the CLI's default 25 seeds —
#: through simlab's worker pool, at least twice, so a slow stretch of
#: the host spoils at most one pass.  One worker, because on the
#: two-core reference host two workers doubled the run-to-run spread of
#: a pass (20% against 9%, ten alternating pairs).  ``--seed`` changes
#: nothing here: the work of a seed range varies by ~11% from one range
#: to the next, and even the shard order moves peak memory by ~5%
FUZZ_SHARDS = 4
FUZZ_SHARD_SEEDS = 25
FUZZ_MIN_PASSES = 2
FUZZ_SMOKE_SHARDS = 2
FUZZ_SMOKE_SHARD_SEEDS = 2
FUZZ_WORKERS = 1
#: simlab's per-job wait budget: a shard takes ~3 s, so only a hung
#: worker reaches it, and simlab then replaces the pool and retries
FUZZ_JOB_TIMEOUT_S = 60.0
FUZZ_ORACLE = {"checks": ("arch", "engines", "asm"),
               "telemetry_every": 4, "nuca_every": 8}


def case_id(name: str, level: str, size: int = 1) -> str:
    """The key a case is pinned and reported under."""
    return f"{name}x{size}@{level}" if size != 1 else f"{name}@{level}"
