"""Sampling benchmark: sampled vs. full simulation on scaled workloads.

``python -m repro.harness sbench`` takes five scaled workloads — ``mcf``
(pointer chasing), ``dct8x8`` (dense loop nests), ``a2time01`` (branchy
control), ``bezier02`` (FP-dense), ``basefp01`` (FP arithmetic mix) — at
sizes where a full cycle-accurate run costs minutes, runs each both
ways, and reports the *realized* sampling error (the sampled estimate
against ground truth) next to the confidence interval the sampler
claimed, plus the effective speedup: full wall-clock over sampled
wall-clock, fast-forward and checkpoint overhead included.

The report is written to ``BENCH_sampling.json`` at the repo root.  The
headline claim it backs: **>=20x effective speedup on every roster case
(geomean >=28x) at <=1% realized cycles/IPC error**.  Phase clustering
(``SamplingConfig.clustering``) plus bounded functional warming
(``warm_horizon``) are what buy those margins: clustering replaced
mcf's 50 stratified windows with ~16 phase-placed ones (its bimodal
cycles-per-block distribution is exactly a two-phase mixture), and the
horizon lets the fast-forwarder run cold everywhere a window will not
sample — in the clustered flow the measurement pass then skips those
cold stretches entirely by teleporting between the profiling pass's
interval-boundary snapshots (byte-identical estimates, see
``FastForwarder.restore_arch``).  Workloads whose windows carry a systematic
warm-state bias the CI cannot see (``rspeed01``, ``parser``,
``tblook01`` — wrong-path-*trained* predictor tables; re-measured under
phase-chosen windows, which do not help: the bias is per-window, not a
placement artifact) stay excluded and documented in the EXPERIMENTS.md
sampling note.

``--smoke`` shrinks the sizes ~10x for CI — the error bounds still hold
there but the speedup shrinks with the coverage ratio, so the smoke
tier records speedups without asserting the 20x target.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..sampling import SamplingConfig
from ..sampling.validate import measure_error
from ..uarch.config import TripsConfig

#: the full-size tier: (workload, size, sampling geometry).  Sizes put
#: every case in the ~300-400k committed-block range (minutes of full
#: detailed simulation).  All cases run phase clustering + bounded
#: warming; the interval is the phase-detection granularity (~30-50
#: intervals per run) and ``phase_windows`` keeps cycle-accurate
#: coverage near 1% with ~12-16 windows each.
FULL_CASES: Tuple[Tuple[str, int, SamplingConfig], ...] = (
    ("mcf", 512, SamplingConfig(interval_blocks=8000, warmup_blocks=100,
                                measure_blocks=150, clustering=True,
                                phase_windows=14, warm_horizon=2000)),
    ("dct8x8", 128, SamplingConfig(interval_blocks=10000, warmup_blocks=100,
                                   measure_blocks=150, clustering=True,
                                   phase_windows=14, warm_horizon=2000)),
    ("a2time01", 3072, SamplingConfig(interval_blocks=12000,
                                      warmup_blocks=100,
                                      measure_blocks=150, clustering=True,
                                      phase_windows=14, warm_horizon=2000)),
    ("bezier02", 4096, SamplingConfig(interval_blocks=10000,
                                      warmup_blocks=100,
                                      measure_blocks=150, clustering=True,
                                      phase_windows=14, warm_horizon=2000)),
    ("basefp01", 4096, SamplingConfig(interval_blocks=8000,
                                      warmup_blocks=100,
                                      measure_blocks=150, clustering=True,
                                      phase_windows=20, warm_horizon=2000)),
)

#: CI tier: ~10x smaller, seconds not minutes.  The last case exercises
#: the clustered + bounded-warming path end to end in CI.
SMOKE_CASES: Tuple[Tuple[str, int, SamplingConfig], ...] = (
    ("mcf", 48, SamplingConfig(interval_blocks=1200, warmup_blocks=60,
                               measure_blocks=100)),
    ("dct8x8", 12, SamplingConfig(interval_blocks=1200, warmup_blocks=60,
                                  measure_blocks=100)),
    ("a2time01", 256, SamplingConfig(interval_blocks=1200, warmup_blocks=60,
                                     measure_blocks=100)),
    ("mcf", 48, SamplingConfig(interval_blocks=1200, warmup_blocks=60,
                               measure_blocks=100, clustering=True,
                               phase_windows=12, warm_horizon=600)),
)

#: headline targets (asserted on the full tier only): *every* roster
#: case must meet both the per-case speedup and the error target, and
#: the geomean effective speedup must clear GEOMEAN_TARGET.
SPEEDUP_TARGET = 20.0
GEOMEAN_TARGET = 28.0
ERROR_TARGET_PCT = 1.0
MIN_PASSING_CASES = 5


def run_sampling_bench(smoke: bool = False,
                       cases: Optional[Sequence] = None,
                       out: Optional[str] = "BENCH_sampling.json",
                       log=None) -> Dict:
    """Run the sampled-vs-full benchmark; returns (and writes) the report."""
    def say(message: str) -> None:
        if log is not None:
            log(message)

    cases = list(cases if cases is not None
                 else (SMOKE_CASES if smoke else FULL_CASES))
    rows: List[Dict] = []
    for name, size, sampling in cases:
        row = measure_error(name, size=size, sampling=sampling)
        rows.append(row)
        mode = (f"{row['phases']}ph" if row["phases"] else "strat")
        say(f"{name}x{size:<5d} {row['blocks']:>7d} blocks  "
            f"{row['windows']:>3d} win/{mode:<5s} "
            f"cov {100 * row['coverage']:.2f}%  "
            f"cycles err {row['cycles_err_pct']:+.2f}% "
            f"(CI ±{100 * row['est_cycles_ci'] / row['full_cycles']:.2f}%)  "
            f"ipc err {row['ipc_err_pct']:+.2f}%  "
            f"speedup x{row['effective_speedup']:.1f} "
            f"({row['full_wall_s']:.1f}s -> {row['sampled_wall_s']:.1f}s)")

    max_cycles_err = max(abs(r["cycles_err_pct"]) for r in rows)
    max_ipc_err = max(abs(r["ipc_err_pct"]) for r in rows)
    geomean_speedup = _geomean([r["effective_speedup"] for r in rows])
    min_speedup = min(r["effective_speedup"] for r in rows)
    for r in rows:
        r["meets_both_targets"] = (
            r["effective_speedup"] >= SPEEDUP_TARGET
            and abs(r["cycles_err_pct"]) <= ERROR_TARGET_PCT
            and abs(r["ipc_err_pct"]) <= ERROR_TARGET_PCT)
    passing = sum(1 for r in rows if r["meets_both_targets"])
    meets = (not smoke and passing >= MIN_PASSING_CASES
             and geomean_speedup >= GEOMEAN_TARGET
             and max_cycles_err <= ERROR_TARGET_PCT
             and max_ipc_err <= ERROR_TARGET_PCT)
    report = {
        "benchmark": "sampled-simulation",
        "suite": "smoke" if smoke else "full",
        **provenance(),
        "cases": len(rows),
        "speedup_target": SPEEDUP_TARGET,
        "geomean_target": GEOMEAN_TARGET,
        "error_target_pct": ERROR_TARGET_PCT,
        "min_passing_cases": MIN_PASSING_CASES,
        "passing_cases": passing,
        "geomean_effective_speedup": round(geomean_speedup, 2),
        "min_effective_speedup": round(min_speedup, 2),
        "max_cycles_err_pct": round(max_cycles_err, 3),
        "max_ipc_err_pct": round(max_ipc_err, 3),
        "meets_targets": meets,
        "results": rows,
    }
    say(f"geomean effective speedup x{geomean_speedup:.1f} over "
        f"{len(rows)} cases (target x{GEOMEAN_TARGET:.0f}); "
        f"worst cycles err {max_cycles_err:.2f}%, "
        f"worst ipc err {max_ipc_err:.2f}%; "
        f"{passing}/{len(rows)} cases meet both targets"
        + ("" if smoke else
           ("   MEETS TARGETS" if meets else "   MISSES TARGETS")))
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        say(f"wrote {out}")
    return report


def _git_rev() -> str:
    """Short commit hash of the working tree, or "unknown"."""
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> Dict:
    """Where and with what a benchmark report was produced — enough to
    judge whether two reports' absolute numbers are comparable."""
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": asdict(TripsConfig()),
    }


def _geomean(values: List[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))
