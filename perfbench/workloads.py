"""The four workloads: set-up, timed passes, correctness, metrics.

Each workload is a fixed list of operations — a Table-3 case, a sampled
roster case or a fuzz seed — run in whole passes.  A run keeps starting
passes until ``--seconds`` would be exceeded (never fewer than the
workload's minimum), and each operation's host time is its best pass.
Every operation is checked: Table-3 cases against pinned output and
``ProcStats`` digests, sampled cases against pinned output digests,
fuzz seeds by the differential oracle itself.  A failed check is counted,
never raised, so ``error_rate`` = failed / attempted.

Set-up (imports, TIR construction, compilation, spec construction) is
everything before :meth:`Bench.run`; ``run.py`` times it from outside.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import shutil
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from .cases import (FUZZ_JOB_TIMEOUT_S, FUZZ_MIN_PASSES, FUZZ_ORACLE,
                    FUZZ_SHARD_SEEDS, FUZZ_SHARDS, FUZZ_SMOKE_SHARD_SEEDS,
                    FUZZ_SMOKE_SHARDS, FUZZ_WORKERS, ROSTER, ROSTER_SMOKE,
                    TABLE3_CASES, TABLE3_MEM, TABLE3_MIN_REPEATS,
                    TABLE3_SMOKE, case_id)
from .trace import Tracer, self_by_name, total_by_name

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def output_digest(outputs) -> str:
    """sha256 of an output signature (nested tuples of ints/floats)."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def stats_digest(stats: dict) -> str:
    """sha256 of a ``ProcStats.to_dict()`` record."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(Path(path).read_text())


def import_repro():
    """Import the simulator from this checkout's ``src/`` and nowhere
    else: a benchmark of some other installed copy would be meaningless."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: repro was imported from {where}, "
                         f"not from {SRC}")
    return repro


class Bench:
    """One workload: subclasses fill in set-up, one pass and metrics."""

    min_passes = 1

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path,
                 pins: Optional[dict] = None,
                 tracer: Optional[Tracer] = None):
        """``work`` is a scratch directory the caller removes afterwards;
        ``pins`` defaults to ``pins.json``."""
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = Path(work)
        self.pins = pins
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.pass_walls: List[float] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None \
            else nullcontext()

    def fail(self, op: str, message: str, ops: int = 1) -> None:
        """Count ``ops`` failed operations under one message."""
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(f"{op}: {message}")

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        """Whole passes until the next one would overrun ``seconds``.

        A traced run makes exactly ``min_passes``, so that its per-layer
        counts repeat exactly from run to run."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            self.pass_walls.append(time.perf_counter() - t0)
            if len(self.pass_walls) < self.min_passes:
                continue
            if self.tracer is not None:
                break
            elapsed = time.perf_counter() - start
            if elapsed + statistics.mean(self.pass_walls) > seconds:
                break

    def metrics(self) -> Dict[str, tuple]:
        raise NotImplementedError

    def counts(self) -> dict:
        """Values that must repeat exactly for a given seed."""
        return {}

    def layer_extras(self) -> Dict[str, tuple]:
        """Per-layer metrics this workload measures itself."""
        return {}

    def result(self) -> dict:
        metrics = self.metrics()
        metrics["error_rate"] = (self.failed / self.attempted
                                 if self.attempted else 1.0, "fraction")
        return {
            "workload": self.workload, "seed": self.seed,
            "smoke": self.smoke, "passes": len(self.pass_walls),
            "pass_walls_s": self.pass_walls,
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "counts": self.counts(),
        }


# ----------------------------------------------------------------------
class Table3Bench(Bench):
    """The 41-case bench matrix, full cycle-accurate, one memory system."""

    min_passes = TABLE3_MIN_REPEATS

    def setup(self) -> None:
        repro = import_repro()
        import repro.compiler
        import repro.workloads
        from repro.uarch.config import TripsConfig
        from repro.uarch.proc import TripsProcessor

        self.mem = "l2perfect" if TABLE3_MEM[self.workload] else "nuca"
        self.cases = TABLE3_SMOKE if self.smoke else TABLE3_CASES
        self.config = TripsConfig(perfect_l2=TABLE3_MEM[self.workload])
        self.processor = TripsProcessor
        if self.pins is None:
            self.pins = load_pins()
        tirs: Dict[str, object] = {}
        self.compiled = {}
        for name, level in self.cases:
            if name not in tirs:
                tirs[name] = repro.workloads.get_workload(name)
            self.compiled[(name, level)] = repro.compiler.compile_tir(
                tirs[name], level=level)
        self.best: Dict[str, float] = {}
        self.cycles: Dict[str, int] = {}
        self.digests: Dict[str, str] = {}

    def _check(self, cid: str, stats: dict, outputs) -> Optional[str]:
        stats_pin = self.pins["table3"][self.mem]["cases"].get(cid)
        output_pin = self.pins["outputs"]["cases"].get(cid)
        if stats_pin is None or output_pin is None:
            return "no pin"
        if output_digest(outputs) != output_pin:
            return "outputs differ from the pinned interpreter digest"
        if stats_digest(stats) != stats_pin["procstats_sha256"]:
            return "ProcStats differ from the pin"
        return None

    def run_pass(self) -> None:
        for name, level in self.cases:
            cid = case_id(name, level)
            compiled = self.compiled[(name, level)]
            self.attempted += 1
            with self.span("table3.case"):
                try:
                    proc = self.processor(compiled.program,
                                          config=self.config)
                    t0 = time.perf_counter()
                    stats = proc.run()
                    seconds = time.perf_counter() - t0
                    record = stats.to_dict()
                    problem = self._check(
                        cid, record,
                        compiled.extract_outputs(proc.regs, proc.memory))
                except Exception as exc:  # a crash is a failed op
                    problem = f"raised {exc!r}"
            if problem:
                self.fail(cid, problem)
                continue
            self.best[cid] = min(self.best.get(cid, math.inf), seconds)
            self.cycles[cid] = record["cycles"]
            self.digests[cid] = stats_digest(record)

    def metrics(self) -> Dict[str, tuple]:
        sweep = sum(self.best.values())
        cycles = sum(self.cycles.values())
        return {"sweep_s": (sweep, "s"),
                "kcycles_per_s": (cycles / sweep / 1e3 if sweep else 0.0,
                                  "kcycles/s")}

    def counts(self) -> dict:
        blob = "\n".join(f"{cid} {d}" for cid, d in sorted(
            self.digests.items()))
        return {"cases": len(self.digests),
                "cycles": sum(self.cycles.values()),
                "procstats_sha256": hashlib.sha256(blob.encode()).hexdigest()}

    def result(self) -> dict:
        out = super().result()
        out["cases"] = [{"case": cid, "cycles": self.cycles[cid],
                         "best_s": self.best[cid]} for cid in self.best]
        return out


# ----------------------------------------------------------------------
class SampledBench(Bench):
    """The sampling roster, sampled only, checked against pinned truth."""

    def setup(self) -> None:
        repro = import_repro()
        import repro.compiler
        import repro.workloads
        from repro.sampling.sampler import (SamplingConfig,
                                            run_sampled_program)
        from repro.uarch.config import TripsConfig

        self.run_sampled_program = run_sampled_program
        self.config = TripsConfig()
        if self.pins is None:
            self.pins = load_pins()
        self.cases = []
        for name, size, geometry in (ROSTER_SMOKE if self.smoke else ROSTER):
            tir = repro.workloads.get_workload(name, size=size)
            compiled = repro.compiler.compile_tir(tir, level="tcc")
            sampling = SamplingConfig(**geometry, phase_seed=self.seed + 1)
            self.cases.append((case_id(name, "tcc", size), compiled,
                               sampling))
        self.best: Dict[str, float] = {}
        self.rows: Dict[str, dict] = {}

    def run_pass(self) -> None:
        for cid, compiled, sampling in self.cases:
            self.attempted += 1
            try:
                with self.span("sampling.sampler"):
                    t0 = time.perf_counter()
                    sampled, ff, _ = self.run_sampled_program(
                        compiled.program, config=self.config,
                        sampling=sampling)
                    seconds = time.perf_counter() - t0
                outputs = compiled.extract_outputs(ff.regs, ff.memory)
            except Exception as exc:  # a crash is a failed op
                self.fail(cid, f"raised {exc!r}")
                continue
            truth = self.pins["truth"]["cases"].get(cid)
            if truth is None:
                self.fail(cid, "no pin")
                continue
            if output_digest(outputs) != \
                    self.pins["outputs"]["cases"].get(cid):
                self.fail(cid, "outputs differ from the pinned digest")
                continue
            self.best[cid] = min(self.best.get(cid, math.inf), seconds)
            self.rows[cid] = {
                "case": cid, "blocks": sampled.blocks_total,
                "windows": sampled.windows, "phases": sampled.phases,
                "coverage": sampled.coverage,
                "est_cycles": sampled.cycles_est,
                "est_cycles_ci": sampled.cycles_ci,
                "est_ipc": sampled.ipc_est,
                "truth_cycles": truth["cycles"], "truth_ipc": truth["ipc"],
                "cycles_err_pct":
                    100.0 * (sampled.cycles_est / truth["cycles"] - 1.0),
                "ipc_err_pct": 100.0 * (sampled.ipc_est / truth["ipc"] - 1.0),
                "ci_covers_truth":
                    abs(sampled.cycles_est - truth["cycles"])
                    <= sampled.cycles_ci,
                "fallback_blocks": ff.fallback_blocks,
            }

    def _accuracy(self):
        rows = list(self.rows.values())
        if not rows:
            return 0.0, 0.0
        worst = max(max(abs(r["cycles_err_pct"]), abs(r["ipc_err_pct"]))
                    for r in rows)
        covered = sum(1 for r in rows if r["ci_covers_truth"]) / len(rows)
        return worst, covered

    def metrics(self) -> Dict[str, tuple]:
        sweep = sum(self.best.values())
        blocks = sum(r["blocks"] for r in self.rows.values())
        worst, covered = self._accuracy()
        return {"sweep_s": (sweep, "s"),
                "sampled_kblocks_per_s": (blocks / sweep / 1e3
                                          if sweep else 0.0, "kblocks/s"),
                "sampled_max_err_pct": (worst, "%"),
                "sampled_ci_coverage": (covered, "fraction")}

    def counts(self) -> dict:
        worst, covered = self._accuracy()
        blob = repr(sorted((cid, r["est_cycles"], r["est_cycles_ci"],
                            r["est_ipc"]) for cid, r in self.rows.items()))
        return {"cases": len(self.rows),
                "blocks": sum(r["blocks"] for r in self.rows.values()),
                "windows": sum(r["windows"] for r in self.rows.values()),
                "sampled_max_err_pct": worst,
                "sampled_ci_coverage": covered,
                "estimates_sha256":
                    hashlib.sha256(blob.encode()).hexdigest()}

    def layer_extras(self) -> Dict[str, tuple]:
        rows = list(self.rows.values())
        worst, covered = self._accuracy()
        blocks = sum(r["blocks"] for r in rows)
        measured = sum(r["coverage"] * r["blocks"] for r in rows)
        return {
            "sampling.windows": (sum(r["windows"] for r in rows), "count"),
            "sampling.coverage": (measured / blocks if blocks else 0.0,
                                  "fraction"),
            "sampling.ffwd.fallback_blocks":
                (sum(r["fallback_blocks"] for r in rows), "count"),
            "sampling.max_err_pct": (worst, "%"),
            "sampling.ci_coverage": (covered, "fraction"),
        }

    def result(self) -> dict:
        out = super().result()
        out["cases"] = [dict(row, wall_s=self.best[cid])
                        for cid, row in self.rows.items()]
        return out


# ----------------------------------------------------------------------
def wait_for_pool_exit(limit_s: float = 30.0) -> None:
    """Wait until the worker pool ``run_specs`` left behind has ended.

    ``run_specs`` shuts its pool down without waiting, so its manager
    and queue-feeder threads and its workers outlive the call.  Forking
    the next pool's workers while those threads still run can leave a
    new worker holding a lock no thread will release, and the pass then
    hangs; the old pool's teardown would also share the cores with the
    next timed call.
    """
    deadline = time.monotonic() + limit_s
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(max(0.0, deadline - time.monotonic()))
    for process in multiprocessing.active_children():
        process.join(max(0.0, deadline - time.monotonic()))


class FuzzBench(Bench):
    """Generated programs through simlab: a cold pass into a fresh cache,
    then the same specs again against the now-warm cache.  ``sweep_s``
    is the best cold pass's wall time."""

    min_passes = FUZZ_MIN_PASSES

    def setup(self) -> None:
        import_repro()
        from repro.simlab.cache import ResultCache
        from repro.simlab.executor import SimlabError, run_specs
        from repro.simlab.spec import RunSpec

        self.run_specs = run_specs
        self.result_cache = ResultCache
        self.simlab_error = SimlabError
        shards, per_shard = (FUZZ_SMOKE_SHARDS, FUZZ_SMOKE_SHARD_SEEDS) \
            if self.smoke else (FUZZ_SHARDS, FUZZ_SHARD_SEEDS)
        self.specs = [RunSpec.fuzz(i * per_shard, per_shard,
                                   checks=FUZZ_ORACLE["checks"],
                                   telemetry_every=FUZZ_ORACLE[
                                       "telemetry_every"],
                                   nuca_every=FUZZ_ORACLE["nuca_every"])
                      for i in range(shards)]
        self.seeds = shards * per_shard
        self.cold_walls: List[float] = []
        self.warm_walls: List[float] = []
        self.fleets: list = []
        self.diverging: set = set()

    def _fleet_metrics(self):
        """simlab's metrics and event log for a cold pass, kept only in
        traced runs."""
        if self.tracer is None:
            return None
        from repro.metrics.events import EventLog, FleetMetrics
        path = self.work / f"events-cold-{len(self.fleets)}.jsonl"
        self.fleets.append(FleetMetrics(events=EventLog(path)))
        return self.fleets[-1]

    def run_pass(self) -> None:
        cache_dir = self.work / "fuzz-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.attempted += self.seeds
        try:
            with self.span("simlab.run_specs"):
                t0 = time.perf_counter()
                cold = self.run_specs(self.specs, workers=FUZZ_WORKERS,
                                      cache=self.result_cache(cache_dir),
                                      timeout=FUZZ_JOB_TIMEOUT_S,
                                      metrics=self._fleet_metrics())
                cold_s = time.perf_counter() - t0
            wait_for_pool_exit()
            with self.span("simlab.run_specs"):
                t0 = time.perf_counter()
                warm = self.run_specs(self.specs, workers=FUZZ_WORKERS,
                                      cache=self.result_cache(cache_dir),
                                      timeout=FUZZ_JOB_TIMEOUT_S)
                warm_s = time.perf_counter() - t0
        except self.simlab_error as exc:
            self.fail(f"pass {len(self.cold_walls)}",
                      f"a shard raised: {exc}", ops=self.seeds)
            return
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            wait_for_pool_exit()
        self.cold_walls.append(cold_s)
        self.warm_walls.append(warm_s)
        for spec, first, again in zip(self.specs, cold, warm):
            bad = {d["program"] for d in first["divergences"]}
            self.diverging |= bad
            for program in sorted(bad):
                self.fail(program, "oracle divergence")
            if again != first:
                self.fail(spec.workload, "warm-cache result differs",
                          ops=first["count"] - len(bad))

    def metrics(self) -> Dict[str, tuple]:
        sweep = min(self.cold_walls, default=0.0)
        return {"sweep_s": (sweep, "s"),
                "fuzz_seeds_per_s": (self.seeds / sweep if sweep else 0.0,
                                     "1/s")}

    def counts(self) -> dict:
        return {"seeds": self.seeds, "shards": len(self.specs),
                "diverging_programs": len(self.diverging)}

    def layer_extras(self) -> Dict[str, tuple]:
        """Retries and busy time from the cold passes' metric registries;
        queue waits and sweep spans, which the registry lacks, from their
        event logs.  (Per-job times come from the job spans.)"""
        from repro.metrics.events import read_events
        waits, busy, span, retries = [], 0.0, 0.0, 0
        for fleet in self.fleets:
            retries += int(fleet.retries.total())
            busy += sum(sample["sum"]
                        for _, sample in fleet.job_seconds.samples())
            queued, begin = {}, None
            for event in read_events(fleet.events.path):
                kind = event["event"]
                if kind == "queued":
                    queued[event["key"]] = event["ts"]
                elif kind == "start" and event["key"] in queued:
                    waits.append(event["ts"] - queued.pop(event["key"]))
                elif kind == "sweep_begin":
                    begin = event["ts"]
                elif kind == "sweep_end" and begin is not None:
                    span += event["ts"] - begin
        own = self_by_name(self.tracer.spans, within=("simlab.run_specs",))
        sweeps = total_by_name(self.tracer.spans).get("simlab.run_specs", 0.0)
        cold = sum(self.cold_walls)
        return {
            "simlab.queue_wait_s.p50":
                (statistics.median(waits) if waits else 0.0, "s"),
            "simlab.worker_occupancy":
                (busy / (FUZZ_WORKERS * span) if span else 0.0, "fraction"),
            "simlab.retries": (retries, "count"),
            "simlab.warm_sweep_s": (sum(self.warm_walls), "s"),
            "simlab.warm_to_cold": (sum(self.warm_walls) / cold
                                    if cold else 0.0, "ratio"),
            "simlab.spec_key_share":
                (own.get("simlab.spec_key", 0.0) / sweeps if sweeps else 0.0,
                 "fraction"),
            "simlab.cache_put_share":
                (own.get("simlab.cache_put", 0.0) / sweeps if sweeps else 0.0,
                 "fraction"),
        }


BENCHES = {"table3-l2perfect": Table3Bench, "table3-nuca": Table3Bench,
           "sampled-roster": SampledBench, "fuzz-fleet": FuzzBench}

#: per-layer metrics a workload without that layer reports as zero
ABSENT_LAYER_DEFAULTS = {
    "sampling.windows": (0, "count"),
    "sampling.coverage": (0.0, "fraction"),
    "sampling.ffwd.fallback_blocks": (0, "count"),
    "sampling.max_err_pct": (0.0, "%"),
    "sampling.ci_coverage": (0.0, "fraction"),
    "simlab.worker_occupancy": (0.0, "fraction"),
    "simlab.retries": (0, "count"),
    "simlab.warm_to_cold": (0.0, "ratio"),
    "simlab.spec_key_share": (0.0, "fraction"),
    "simlab.cache_put_share": (0.0, "fraction"),
}
