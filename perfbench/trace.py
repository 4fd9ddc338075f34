"""Spans around calls into the simulator's layers, made from outside.

A traced run wraps the public entry points of each layer by attribute
patching (:class:`Instrumentation`) — nothing under ``src/`` carries a
probe.  Each wrapped call records a span ``[name, start, end, parent]``
in memory (:class:`Tracer`); a layer's *self time* is its span's
duration minus the spans nested directly inside it, so the self times
of one process's span tree sum exactly to its root span.

simlab's worker processes are forked from the traced process after the
patches are installed, so they inherit them.  Each job runs under a
fresh :class:`Tracer` and writes its spans to one JSON file in the job
directory, which :func:`load_jobs` reads back.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence


class Tracer:
    """In-memory spans plus exact counts recorded at layer boundaries."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None]`` in begin order
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        #: one ``(cycles, blocks, seconds)`` per ``TripsProcessor.run``
        self.runs: List[tuple] = []
        #: distinct ``(program name, level)`` pairs handed to compile_tir
        self.programs: set = set()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        return now - span[1]

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def to_dict(self) -> dict:
        return {"pid": os.getpid(), "spans": self.spans,
                "counts": self.counts, "runs": self.runs,
                "programs": len(self.programs)}


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus the durations of its children.

    Spans of one process never overlap except by nesting, so the
    children of a span cover disjoint parts of it.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def self_by_name(spans: Sequence[Sequence],
                 within: Sequence[str] = ()) -> Dict[str, float]:
    """Self time summed per span name; with ``within``, only of spans
    nested in (or named) one of those span names."""
    inside: List[bool] = []
    for name, _, _, parent in spans:
        inside.append(not within or name in within
                      or (parent is not None and inside[parent]))
    totals: Dict[str, float] = {}
    for span, own, keep in zip(spans, self_times(spans), inside):
        if keep:
            totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def total_by_name(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Whole duration (children included) summed per span name."""
    totals: Dict[str, float] = {}
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


# ----------------------------------------------------------------------
class Instrumentation:
    """Attribute patches that time each layer's public functions.

    Use as a context manager; leaving it restores every original.  The
    wrappers record into ``self.tracer``, which a simlab job swaps for a
    fresh tracer while it runs.
    """

    def __init__(self, tracer: Tracer, job_dir: Optional[Path] = None):
        self.tracer = tracer
        self.job_dir = job_dir
        self._undo: List[tuple] = []
        self._jobs = 0

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn, count: Optional[str] = None):
        """Wrap ``fn`` in a span; with ``count``, also count the calls."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            if count is not None:
                tracer.add(count, 1)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)
        return wrapper

    def __enter__(self) -> "Instrumentation":
        import repro.asm
        import repro.baseline.ooo
        import repro.compiler
        import repro.compiler.srisc
        import repro.fuzz.oracle
        import repro.sampling.phases
        import repro.sampling.sampler
        import repro.simlab.executor
        import repro.tir
        import repro.workloads
        from repro.sampling.ffwd import FastForwarder
        from repro.simlab.cache import ResultCache
        from repro.simlab.spec import RunSpec
        from repro.uarch.functional import FunctionalSim
        from repro.uarch.proc import TripsProcessor

        timed = self._timed
        self._patch(repro.workloads, "get_workload",
                    timed("workload.build", repro.workloads.get_workload))
        self._patch(repro.compiler, "compile_tir",
                    self._compile(repro.compiler.compile_tir))
        self._patch(TripsProcessor, "__init__",
                    timed("uarch.init", TripsProcessor.__init__))
        self._patch(TripsProcessor, "run", self._proc_run(TripsProcessor.run))
        # sampling tier
        self._patch(FastForwarder, "run_blocks",
                    self._run_blocks(FastForwarder.run_blocks))
        self._patch(FastForwarder, "restore_arch",
                    timed("sampling.ffwd.restore_arch",
                          FastForwarder.restore_arch))
        self._patch(repro.sampling.sampler, "take_checkpoint",
                    timed("sampling.checkpoint.take",
                          repro.sampling.sampler.take_checkpoint,
                          count="sampling.checkpoint.takes"))
        self._patch(repro.sampling.phases, "plan_phases",
                    self._plan(repro.sampling.phases.plan_phases))
        # the fuzz oracle's stages (imported at call time by the oracle)
        self._patch(repro.fuzz.oracle, "generate",
                    timed("fuzz.generate", repro.fuzz.oracle.generate))
        self._patch(repro.tir, "interpret",
                    timed("tir.interpret", repro.tir.interpret))
        self._patch(FunctionalSim, "run",
                    timed("uarch.functional", FunctionalSim.run))
        self._patch(repro.compiler.srisc, "compile_srisc",
                    timed("baseline.compile",
                          repro.compiler.srisc.compile_srisc))
        self._patch(repro.baseline.ooo, "run_baseline",
                    timed("baseline.run", repro.baseline.ooo.run_baseline))
        self._patch(repro.asm, "assemble",
                    timed("asm.assemble", repro.asm.assemble))
        self._patch(repro.asm, "disassemble",
                    timed("asm.disassemble", repro.asm.disassemble))
        # simlab
        self._patch(repro.simlab.executor, "execute_spec",
                    self._job(repro.simlab.executor.execute_spec))
        self._patch(ResultCache, "put",
                    timed("simlab.cache_put", ResultCache.put))
        self._patch(RunSpec, "key", property(
            timed("simlab.spec_key", RunSpec.key.fget)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers that also count ------------------------------------------
    def _compile(self, fn):
        @functools.wraps(fn)
        def compile_tir(tir, level="tcc", *args, **kwargs):
            tracer = self.tracer
            index = tracer.begin("compiler.compile_tir")
            try:
                return fn(tir, level, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer.add("compiler.compile_tir_calls", 1)
                tracer.programs.add((tir.name, level))
        return compile_tir

    def _proc_run(self, fn):
        @functools.wraps(fn)
        def run(proc, *args, **kwargs):
            tracer = self.tracer
            st = proc.stats
            cycle0, committed0 = proc.cycle, st.blocks_committed
            fetched0, opn0 = st.blocks_fetched, st.opn_messages
            imiss0, deferred0 = st.icache_miss_blocks, st.deferred_loads
            index = tracer.begin("uarch.run")
            try:
                out = fn(proc, *args, **kwargs)
            finally:
                seconds = tracer.end(index)
            cycles = proc.cycle - cycle0
            committed = st.blocks_committed - committed0
            tracer.add("uarch.cycles", cycles)
            tracer.add("uarch.blocks_committed", committed)
            tracer.add("uarch.blocks_fetched", st.blocks_fetched - fetched0)
            tracer.add("uarch.opn_messages", st.opn_messages - opn0)
            tracer.add("mem.icache_miss_blocks",
                       st.icache_miss_blocks - imiss0)
            tracer.add("mem.deferred_loads", st.deferred_loads - deferred0)
            tracer.runs.append((cycles, committed, seconds))
            return out
        return run

    def _run_blocks(self, fn):
        @functools.wraps(fn)
        def run_blocks(ff, n):
            # the profiling pass collects BBVs; the measurement pass
            # toggles ``warm`` around each window's horizon
            name = ("sampling.ffwd.profile" if ff.bbv_interval else
                    "sampling.ffwd.warm" if ff.warm else
                    "sampling.ffwd.cold")
            tracer = self.tracer
            blocks0 = ff.stats.blocks
            index = tracer.begin(name)
            try:
                return fn(ff, n)
            finally:
                tracer.end(index)
                tracer.add(name + "_blocks", ff.stats.blocks - blocks0)
        return run_blocks

    def _plan(self, fn):
        timed = self._timed("sampling.phases.plan", fn)

        @functools.wraps(fn)
        def plan_phases(*args, **kwargs):
            plan = timed(*args, **kwargs)
            self.tracer.add("sampling.phases.k", plan.k)
            return plan
        return plan_phases

    def _job(self, fn):
        @functools.wraps(fn)
        def execute_spec(spec):
            outer = self.tracer
            self.tracer = job = Tracer()
            index = job.begin("simlab.job")
            try:
                return fn(spec)
            finally:
                job.end(index)
                self.tracer = outer
                self._jobs += 1
                if self.job_dir is not None:
                    name = f"job-{os.getpid()}-{self._jobs}.json"
                    (self.job_dir / name).write_text(json.dumps(job.to_dict()))
        return execute_spec


def load_jobs(job_dir: Path) -> List[dict]:
    """Every job record the workers wrote, in a deterministic order."""
    return [json.loads(path.read_text())
            for path in sorted(Path(job_dir).glob("job-*.json"))]


# ----------------------------------------------------------------------
def _percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, 'inclusive' method)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: layer self-time groups reported as shares of the workload's work spans
SHARES = {
    "uarch.share": ("uarch.init", "uarch.run"),
    "compiler.share": ("compiler.compile_tir",),
    "sampling.ffwd.profile_share": ("sampling.ffwd.profile",),
    "sampling.ffwd.warm_share": ("sampling.ffwd.warm",),
    "sampling.ffwd.cold_share": ("sampling.ffwd.cold",),
    "sampling.ffwd.restore_arch_share": ("sampling.ffwd.restore_arch",),
    "sampling.checkpoint.take_share": ("sampling.checkpoint.take",),
    "sampling.phases.plan_share": ("sampling.phases.plan",),
    "fuzz.generate_share": ("fuzz.generate",),
    "tir.interpret_share": ("tir.interpret",),
    "uarch.functional_share": ("uarch.functional",),
    "baseline.run_share": ("baseline.compile", "baseline.run"),
    "asm.roundtrip_share": ("asm.assemble", "asm.disassemble"),
}

#: absolute self seconds of layers only some workloads have
LAYER_SECONDS = {
    "workload.build_s": ("workload.build",),
    "sampling.ffwd.profile_s": ("sampling.ffwd.profile",),
    "sampling.ffwd.warm_s": ("sampling.ffwd.warm",),
    "sampling.ffwd.cold_s": ("sampling.ffwd.cold",),
    "sampling.ffwd.restore_arch_s": ("sampling.ffwd.restore_arch",),
    "sampling.checkpoint.take_s": ("sampling.checkpoint.take",),
    "sampling.phases.plan_s": ("sampling.phases.plan",),
    "sampling.sampler_s": ("sampling.sampler",),
    "fuzz.generate_s": ("fuzz.generate",),
    "tir.interpret_s": ("tir.interpret",),
    "uarch.functional_s": ("uarch.functional",),
    "baseline.run_s": ("baseline.compile", "baseline.run"),
    "asm.roundtrip_s": ("asm.assemble", "asm.disassemble"),
    "simlab.job_glue_s": ("simlab.job",),
    "simlab.spec_key_s": ("simlab.spec_key",),
    "simlab.cache_put_s": ("simlab.cache_put",),
}

#: span names whose whole duration is "the work" a share is taken of
WORK_SPANS = ("table3.case", "sampling.sampler", "simlab.job")

#: perfbench's own spans: their self time is the explicit ``other`` row
OWN_SPANS = ("perfbench", "perfbench.setup", "table3.case")


def wall_rows(spans: Sequence[Sequence]) -> Dict[str, float]:
    """One process's wall time split into span-name self times, with
    perfbench's own spans folded into an explicit ``other`` row.  The
    rows sum to the root span's duration."""
    rows = {"other": 0.0}
    for name, value in self_by_name(spans).items():
        key = "other" if name in OWN_SPANS else name
        rows[key] = rows.get(key, 0.0) + value
    return rows


def _merged(tables) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for table in tables:
        for name, value in table.items():
            out[name] = out.get(name, 0) + value
    return out


def layer_metrics(tracer: Tracer, jobs: Sequence[dict] = ()) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run.

    ``tracer`` holds the benchmark process's spans (one root); ``jobs``
    are the records of simlab jobs that ran in worker processes.  Self
    times are summed over every process; a ``*_share`` metric is the
    layer's self time inside the work spans (Table-3 cases, sampled
    runs or simlab jobs) over their total duration, so set-up and
    waiting are left out.
    """
    processes = [tracer.spans] + [job["spans"] for job in jobs]
    own = _merged(self_by_name(spans) for spans in processes)
    in_work = _merged(self_by_name(spans, WORK_SPANS) for spans in processes)
    whole = _merged(total_by_name(spans) for spans in processes)
    counts = _merged([tracer.counts] + [job["counts"] for job in jobs])
    runs = list(tracer.runs) + [tuple(run) for job in jobs
                                for run in job["runs"]]
    programs = len(tracer.programs) + sum(job["programs"] for job in jobs)

    def seconds(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    root = tracer.spans[0]
    wall = root[2] - root[1]
    other = wall_rows(tracer.spans)["other"]
    work = sum(whole.get(name, 0.0) for name in WORK_SPANS) or 1.0
    run_s = own.get("uarch.run", 0.0)
    committed = counts.get("uarch.blocks_committed", 0)
    fetched = counts.get("uarch.blocks_fetched", 0)
    calls = counts.get("compiler.compile_tir_calls", 0)
    per_cycle = sorted(1e6 * s / c for c, _, s in runs if c)

    m = {
        "traced_wall_s": (wall, "s"),
        "other_s": (other, "s"),
        "compiler.compile_tir_s": (seconds("compiler.compile_tir"), "s"),
        "compiler.compile_tir_calls": (calls, "count"),
        "compiler.programs_per_compile": (programs / calls if calls else 0.0,
                                          "ratio"),
        "uarch.init_s": (seconds("uarch.init"), "s"),
        "uarch.run_s": (run_s, "s"),
        "uarch.us_per_cycle.p50": (_percentile(per_cycle, 50), "us"),
        "uarch.us_per_cycle.p75": (_percentile(per_cycle, 75), "us"),
        "uarch.us_per_block": (1e6 * run_s / committed if committed else 0.0,
                               "us"),
        "uarch.cycles": (counts.get("uarch.cycles", 0), "count"),
        "uarch.blocks_committed": (committed, "count"),
        "uarch.commit_ratio": (committed / fetched if fetched else 0.0,
                               "ratio"),
        "uarch.opn_messages": (counts.get("uarch.opn_messages", 0), "count"),
        "mem.icache_miss_blocks": (counts.get("mem.icache_miss_blocks", 0),
                                   "count"),
        "mem.deferred_loads": (counts.get("mem.deferred_loads", 0), "count"),
    }
    for name, spans in SHARES.items():
        m[name] = (sum(in_work.get(span, 0.0) for span in spans) / work,
                   "fraction")
    for name, spans in LAYER_SECONDS.items():
        if any(span in own for span in spans):
            m[name] = (seconds(*spans), "s")
    profile_s = own.get("sampling.ffwd.profile", 0.0)
    profile_blocks = counts.get("sampling.ffwd.profile_blocks", 0)
    m["sampling.ffwd.profile_kblocks_per_s"] = (
        profile_blocks / profile_s / 1e3 if profile_s else 0.0, "kblocks/s")
    m["sampling.checkpoint.takes"] = (
        counts.get("sampling.checkpoint.takes", 0), "count")
    m["sampling.phases.k"] = (counts.get("sampling.phases.k", 0), "count")
    if jobs:
        m["simlab.job_s.p50"] = (statistics.median(
            job["spans"][0][2] - job["spans"][0][1] for job in jobs), "s")
    return m
