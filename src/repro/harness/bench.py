"""Simulator-throughput benchmark: fast-path engine vs. the escape hatch.

``python -m repro.harness bench`` runs every Table 3 workload (all 21 at
``tcc``, the 16 non-SPEC ones additionally at ``hand``) under both memory
configurations — ``l2perfect`` (Table 3's flat-latency L2) and ``nuca``
(the detailed OCN + NUCA banks + SDRAM model, the long-wait regime the
fast path targets) — twice per case: once with the fast-path cycle
engine (``TripsConfig.fast_path=True``, the default) and once with the
original full-scan engine (``fast_path=False``).  Throughput is reported
in kilo-simulated-cycles per wall-clock second (kcycles/s).

The two engines are required to be *cycle-for-cycle identical*: every
case compares the full ``ProcStats`` records and the report carries an
``equivalent`` flag that CI fails on.  Only the simulation loop
(``TripsProcessor.run``) is timed; TIR construction and compilation are
shared setup and excluded, so the numbers measure the engine, not the
compiler.

The report is written to ``BENCH_engine.json`` at the repo root (override
with ``--out``); ``--smoke`` selects a three-workload subset for CI.
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

from ..compiler import compile_tir
from ..uarch.config import TripsConfig
from ..uarch.proc import TripsProcessor
from ..workloads import get_workload
from ..workloads.registry import HAND_OPTIMIZED, workload_names

#: quick CI subset: one micro kernel, one hashing loop, one SPEC proxy
SMOKE_WORKLOADS = ("vadd", "sha", "mcf")
#: memory configurations: Table 3's idealized L2 and the detailed NUCA
MEM_MODES = ("l2perfect", "nuca")


def bench_cases(smoke: bool = False,
                workloads: Optional[Sequence[str]] = None
                ) -> List[Tuple[str, str, str]]:
    """(workload, code level, memory mode) — the Table 3 sweep, both
    code levels, both memory systems."""
    if workloads:
        names = list(workloads)
    elif smoke:
        names = list(SMOKE_WORKLOADS)
    else:
        names = workload_names()
    pairs = [(name, "tcc") for name in names]
    pairs += [(name, "hand") for name in names if name in HAND_OPTIMIZED]
    return [(name, level, mem) for name, level in pairs
            for mem in MEM_MODES]


def _timed_run(program, config: TripsConfig,
               repeat: int) -> Tuple[Dict, float]:
    """Best-of-``repeat`` wall time of the simulation loop alone."""
    stats: Optional[Dict] = None
    best = math.inf
    for _ in range(max(1, repeat)):
        proc = TripsProcessor(program, config=config)
        t0 = time.perf_counter()
        run_stats = proc.run()
        elapsed = time.perf_counter() - t0
        record = run_stats.to_dict()
        if stats is None:
            stats = record
        elif record != stats:
            raise AssertionError("nondeterministic ProcStats across repeats")
        best = min(best, elapsed)
    return stats, best


def run_bench(smoke: bool = False, repeat: int = 2,
              workloads: Optional[Sequence[str]] = None,
              out: Optional[str] = "BENCH_engine.json",
              log=None) -> Dict:
    """Run the engine benchmark; returns (and optionally writes) the report."""
    def say(message: str) -> None:
        if log is not None:
            log(message)

    results: List[Dict] = []
    mismatches: List[str] = []
    programs: Dict[Tuple[str, str], object] = {}
    for name, level, mem in bench_cases(smoke, workloads):
        program = programs.get((name, level))
        if program is None:
            program = compile_tir(get_workload(name), level=level).program
            programs[(name, level)] = program
        perfect = mem == "l2perfect"
        fast_cfg = TripsConfig(fast_path=True, perfect_l2=perfect)
        slow_cfg = TripsConfig(fast_path=False, perfect_l2=perfect)
        fast_stats, fast_t = _timed_run(program, fast_cfg, repeat)
        slow_stats, slow_t = _timed_run(program, slow_cfg, repeat)
        equivalent = fast_stats == slow_stats
        if not equivalent:
            mismatches.append(f"{name}@{level}/{mem}")
        cycles = fast_stats["cycles"]
        fast_kcps = cycles / fast_t / 1e3
        slow_kcps = cycles / slow_t / 1e3
        speedup = fast_kcps / slow_kcps
        results.append({
            "workload": name,
            "level": level,
            "mem": mem,
            "cycles": cycles,
            "fast_kcycles_per_s": round(fast_kcps, 2),
            "slow_kcycles_per_s": round(slow_kcps, 2),
            "speedup": round(speedup, 3),
            "equivalent": equivalent,
        })
        say(f"{name:>10s} @ {level:<4s} {mem:<9s} {cycles:>8d} cycles   "
            f"fast {fast_kcps:8.1f} kcyc/s   slow {slow_kcps:8.1f} kcyc/s   "
            f"x{speedup:.2f}" + ("" if equivalent else "   STATS MISMATCH"))

    speedups = [row["speedup"] for row in results]
    geomean = _geomean(speedups)
    by_mem = {mem: _geomean([row["speedup"] for row in results
                             if row["mem"] == mem]) for mem in MEM_MODES}
    report = {
        "benchmark": "engine-throughput",
        "suite": "smoke" if smoke else "table3",
        "repeat": repeat,
        "python": platform.python_version(),
        **provenance(),
        "cases": len(results),
        "equivalent": not mismatches,
        "mismatches": mismatches,
        "geomean_speedup": round(geomean, 3),
        "geomean_speedup_by_mem": {mem: round(value, 3)
                                   for mem, value in by_mem.items()},
        "geomean_fast_kcycles_per_s": round(_geomean(
            [row["fast_kcycles_per_s"] for row in results]), 1),
        "geomean_slow_kcycles_per_s": round(_geomean(
            [row["slow_kcycles_per_s"] for row in results]), 1),
        "results": results,
    }
    say(f"geomean speedup x{geomean:.2f} over {len(results)} cases "
        f"({', '.join(f'{mem} x{value:.2f}' for mem, value in by_mem.items())})"
        + ("" if not mismatches else f"; MISMATCHES: {mismatches}"))
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
