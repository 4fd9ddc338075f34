"""``python -m perfbench pin``: regenerate ``perfbench/pins.json``.

The pins are what the benchmark checks its outputs against:

* ``table3`` — per memory system and case, the sha256 of the full
  ``ProcStats`` record and its cycle count.  They come from the
  full-scan oracle engine (``fast_path=False``), and pinning fails
  unless the production engine produces the identical record.
* ``outputs`` — per case, the sha256 of the TIR interpreter's output
  signature, for every Table-3 and roster case; pinning fails unless the
  cycle simulator's outputs match it.
* ``truth`` — full cycle-accurate cycles and IPC of each roster case,
  the ground truth the sampled estimates are scored against.  The full
  roster takes about a quarter of an hour; where ``BENCH_sampling.json``
  holds the same case, its ``full_cycles`` must agree.

Each section records the git revision it was produced at.  Re-pin only
when a change is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.cases import (ROSTER, ROSTER_SMOKE, TABLE3_CASES,  # noqa: E402
                             case_id)
from perfbench.run import git_rev  # noqa: E402
from perfbench.workloads import (PINS_PATH, import_repro,  # noqa: E402
                                 output_digest, stats_digest)


class PinError(RuntimeError):
    """The engines or the interpreter disagree: nothing is pinned."""


def _say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def pin_table3(rev: str) -> tuple:
    from repro.compiler import compile_tir
    from repro.tir import interpret
    from repro.uarch.config import TripsConfig
    from repro.uarch.proc import TripsProcessor
    from repro.workloads import get_workload

    stats_pins = {"l2perfect": {}, "nuca": {}}
    output_pins = {}
    for name, level in TABLE3_CASES:
        cid = case_id(name, level)
        tir = get_workload(name)
        compiled = compile_tir(tir, level=level)
        golden = output_digest(interpret(tir).output_signature(tir.outputs))
        output_pins[cid] = golden
        for mem, perfect in (("l2perfect", True), ("nuca", False)):
            records = []
            for fast in (False, True):
                proc = TripsProcessor(compiled.program, config=TripsConfig(
                    fast_path=fast, perfect_l2=perfect))
                records.append(proc.run().to_dict())
                got = output_digest(compiled.extract_outputs(proc.regs,
                                                             proc.memory))
                if got != golden:
                    raise PinError(f"{cid}/{mem}: outputs differ from the "
                                   f"interpreter (fast_path={fast})")
            oracle, production = records
            if oracle != production:
                raise PinError(f"{cid}/{mem}: the production engine's "
                               "ProcStats differ from the full-scan oracle")
            stats_pins[mem][cid] = {"procstats_sha256": stats_digest(oracle),
                                    "cycles": oracle["cycles"]}
            _say(f"pinned {cid:28s} {mem:9s} {oracle['cycles']:>8d} cycles")
    return ({mem: {"git_rev": rev, "engine": "fast_path=False",
                   "cases": cases} for mem, cases in stats_pins.items()},
            output_pins)


def pin_truth(rev: str, bench_sampling: Path) -> tuple:
    from repro.compiler import compile_tir
    from repro.tir import interpret
    from repro.uarch.config import TripsConfig
    from repro.uarch.proc import TripsProcessor
    from repro.workloads import get_workload

    reference = {}
    if bench_sampling.exists():
        for row in json.loads(bench_sampling.read_text())["results"]:
            reference[case_id(row["workload"], row["level"], row["size"])] \
                = row["full_cycles"]
    truth, output_pins = {}, {}
    for name, size, _ in ROSTER_SMOKE + ROSTER:
        cid = case_id(name, "tcc", size)
        tir = get_workload(name, size=size)
        compiled = compile_tir(tir, level="tcc")
        golden = output_digest(interpret(tir).output_signature(tir.outputs))
        t0 = time.perf_counter()
        proc = TripsProcessor(compiled.program, config=TripsConfig())
        stats = proc.run()
        wall = time.perf_counter() - t0
        if output_digest(compiled.extract_outputs(proc.regs,
                                                  proc.memory)) != golden:
            raise PinError(f"{cid}: outputs differ from the interpreter")
        if cid in reference and reference[cid] != stats.cycles:
            raise PinError(f"{cid}: {stats.cycles} cycles, but "
                           f"{bench_sampling.name} records {reference[cid]}")
        output_pins[cid] = golden
        truth[cid] = {"cycles": stats.cycles, "ipc": stats.ipc,
                      "blocks": stats.blocks_committed}
        _say(f"pinned {cid:28s} truth {stats.cycles:>9d} cycles "
             f"ipc {stats.ipc:.4f} ({wall:.0f}s)")
    return {"git_rev": rev, "cases": truth}, output_pins


def main(argv=None) -> int:
    argparse.ArgumentParser(
        prog="python -m perfbench pin",
        description="Regenerate perfbench/pins.json (about 20 minutes)."
    ).parse_args(argv)
    import_repro()
    rev = git_rev()
    try:
        table3, outputs = pin_table3(rev)
        truth, roster_outputs = pin_truth(rev, ROOT / "BENCH_sampling.json")
    except PinError as exc:
        _say(f"pin: {exc}")
        return 1
    outputs.update(roster_outputs)
    pins = {"schema": 1, "python": platform.python_version(),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime()),
            "table3": table3,
            "outputs": {"git_rev": rev, "cases": outputs},
            "truth": truth}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    _say(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
