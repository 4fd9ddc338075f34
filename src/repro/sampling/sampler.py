"""The interval-sampling driver: fast-forward, checkpoint, measure.

Two schedulers decide *where* to measure — the stratified stride
(:meth:`SamplingConfig.window_start`) or SimPoint-style phase clustering
(:mod:`~repro.sampling.phases`) — and each produces ``(start, phase,
weight)`` windows for one measurement loop and one aggregator
(:func:`~repro.sampling.stats.aggregate`).

The fast-forwarder is the master timeline — it retires every block of the
program (so architectural outputs and instruction counts are exact) and
carries warm predictor/cache state.  At each sample point it is
checkpointed, and a cycle-accurate :class:`~repro.uarch.proc.TripsProcessor`
is resumed from the checkpoint for ``warmup_blocks`` (stats discarded —
this rebuilds the short-lived state a checkpoint cannot carry: in-flight
blocks, LSQ, dependence predictor, event wheel) followed by
``measure_blocks`` whose deltas become one
:class:`~repro.sampling.stats.WindowSample`.

Telemetry: probes exist only inside window processors — the fast-forward
path has no probe sites at all, so ``telemetry=True`` costs nothing
outside the measurement windows and yields one summary per window.

A program too short for even one window (shorter than ``offset_blocks``
plus one measurement) degenerates to a single full-length window, i.e.
ordinary full simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compiler import compile_tir
from ..serialize import dataclass_from_dict, dataclass_to_dict
from ..tir import TirProgram
from ..uarch.config import PROTOTYPE, TripsConfig
from ..uarch.proc import TripsProcessor
from .checkpoint import ArchCheckpoint, take_checkpoint
from .ffwd import FastForwarder
from .stats import RATE_FIELDS, SampledProcStats, WindowSample, aggregate


@dataclass(frozen=True)
class SamplingConfig:
    """Sample-point geometry, in committed blocks.

    One measurement window of ``measure_blocks`` starts every
    ``interval_blocks`` (the first at ``offset_blocks``), preceded by
    ``warmup_blocks`` of discarded detailed simulation.

    ``warm_horizon`` bounds *functional* warming: ``None`` keeps the
    fast-forwarder's predictor/cache warming on for every block (most
    accurate); a block count H warms only the last H blocks before each
    detailed window, letting the stretches in between run at full
    fast-forward speed.  Tables are never cleared, so bounded warming
    only makes warm state slightly stale, and the detailed warmup still
    runs on top of it.

    ``jitter`` staggers each window start by a deterministic
    pseudo-random offset of up to ``jitter * interval_blocks`` blocks
    (stratified sampling).  Strictly-periodic sample points can alias
    against a program's own period — e.g. 41 windows every 1052 blocks
    over dct8x8's 2630-block macroblock loop land on just 5 distinct
    phases (5*1052 = 2*2630), turning phase structure into bias.  The
    stagger sequence is a fixed LCG, so runs stay reproducible.

    ``clustering=True`` replaces the stratified-stride schedule with
    SimPoint-style phase clustering (:mod:`~repro.sampling.phases`): a
    cold fast-forward profiling pass collects one basic-block vector
    per ``interval_blocks``, k-means (k chosen by a BIC-style score up
    to ``max_phases``) groups the intervals into behavioral phases, and
    ~``phase_windows`` measurement windows are placed on representative
    intervals in proportion to phase population.  Estimates become
    population-weighted (:func:`~repro.sampling.stats.aggregate`) and
    ``jitter``/``offset_blocks`` are ignored.  All randomness comes
    from the fixed LCG seeded by ``phase_seed``, so schedules are
    byte-identical across runs.
    """

    interval_blocks: int = 2000
    warmup_blocks: int = 150
    measure_blocks: int = 300
    offset_blocks: int = 0
    warm_horizon: Optional[int] = None
    jitter: float = 0.25
    clustering: bool = False
    phase_windows: int = 12
    max_phases: int = 8
    phase_seed: int = 1

    def to_dict(self) -> Dict[str, object]:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SamplingConfig":
        """Fields missing from an older record keep their defaults."""
        return dataclass_from_dict(cls, data)

    def validate(self) -> None:
        if self.measure_blocks <= 0 or self.interval_blocks <= 0:
            raise ValueError("interval/measure block counts must be > 0")
        if self.warmup_blocks < 0 or self.offset_blocks < 0:
            raise ValueError("warmup/offset block counts must be >= 0")
        if self.clustering:
            if self.measure_blocks + self.warmup_blocks \
                    > self.interval_blocks:
                raise ValueError("windows overlap: warmup + measure must "
                                 "fit inside one clustering interval "
                                 f"({self.interval_blocks} blocks)")
            if self.phase_windows < 1:
                raise ValueError("phase_windows must be >= 1")
            if self.max_phases < 1:
                raise ValueError("max_phases must be >= 1")
        else:
            min_gap = self.interval_blocks - 2 * int(self.jitter *
                                                     self.interval_blocks)
            if self.measure_blocks + self.warmup_blocks > min_gap:
                raise ValueError("windows overlap: warmup + measure exceeds "
                                 "the worst-case jittered sampling gap "
                                 f"({min_gap} blocks)")
        if self.warm_horizon is not None and self.warm_horizon < 0:
            raise ValueError("warm_horizon must be >= 0 or None")
        if not 0.0 <= self.jitter <= 0.4:
            raise ValueError("jitter must be in [0, 0.4]")

    def window_start(self, k: int) -> int:
        """Measurement-start block index of window ``k`` (jittered)."""
        base = self.offset_blocks + k * self.interval_blocks
        if not self.jitter:
            return base
        # fixed LCG (numerical recipes constants): deterministic stagger
        u = ((k * 1664525 + 1013904223) & 0xFFFFFFFF) / 0x100000000
        span = int(self.jitter * self.interval_blocks)
        return base + int((2 * u - 1.0) * span)


def _counter_snapshot(stats) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in RATE_FIELDS}


def _stride_schedule(sampling: SamplingConfig, ff: FastForwarder):
    """The stratified-stride schedule: window ``k`` at
    ``sampling.window_start(k)``, one stratum of weight 1, yielded lazily
    until the warm measurement pass itself reaches program end."""
    k = 0
    while not ff.halted:
        yield sampling.window_start(k), -1, 1.0
        k += 1


def _phase_schedule(program, config: TripsConfig, sampling: SamplingConfig,
                    max_blocks: int):
    """The phase-clustered schedule (``clustering=True``).

    A cold profiling pass (``warm=False`` + BBV collection) retires every
    block — it is the source of the exact architectural outputs and the
    exact block/instruction totals, and its per-interval BBVs feed
    :func:`~repro.sampling.phases.plan_phases`.  It also snapshots
    architectural state at every interval boundary: a cold stretch
    touches nothing *but* architectural state, so with a ``warm_horizon``
    the measurement pass teleports to the latest snapshot before each
    window's warming horizon
    (:meth:`~repro.sampling.ffwd.FastForwarder.restore_arch`) instead of
    re-executing the stretch — byte-identical estimates, but the
    measurement pass shrinks from O(program) to O(windows * interval).

    Returns ``(windows, restarts, prof, k, phase_weights)``: the plan's
    ``(start, phase, weight)`` windows, the interval-boundary snapshots,
    the completed profiling pass and the plan's phase count and weights.
    """
    from .phases import plan_phases

    prof = FastForwarder(program, config, warm=False,
                         max_blocks=max_blocks,
                         bbv_interval=sampling.interval_blocks)
    restarts: List[ArchCheckpoint] = []
    boundary = sampling.interval_blocks
    while not prof.halted:
        prof.run_blocks(boundary)
        if not prof.halted:
            restarts.append(take_checkpoint(prof))
        boundary += sampling.interval_blocks
    plan = plan_phases(prof.bbv_vectors(), sampling.interval_blocks,
                       total_blocks=prof.stats.blocks,
                       target_windows=sampling.phase_windows,
                       warmup_blocks=sampling.warmup_blocks,
                       measure_blocks=sampling.measure_blocks,
                       seed=sampling.phase_seed,
                       max_phases=sampling.max_phases)
    # a program shorter than two clustering intervals has no phase
    # structure to exploit — schedule nothing, so it takes the
    # full-simulation fallback (exact, single phase) instead of
    # estimating the whole program with one partial window and an
    # unbounded CI
    windows = [(w.start_block, w.phase, w.weight) for w in plan.windows] \
        if plan.n_intervals > 1 else []
    return windows, restarts, prof, plan.k, plan.weights


def run_sampled_program(program, config: TripsConfig = PROTOTYPE,
                        sampling: SamplingConfig = SamplingConfig(),
                        telemetry: bool = False,
                        max_blocks: int = 500_000_000,
                        ) -> Tuple[SampledProcStats, FastForwarder,
                                   List[dict]]:
    """Sample one compiled :class:`~repro.isa.program.Program`.

    Returns the aggregated stats, the (completed) fast-forwarder — whose
    ``regs``/``memory`` hold the exact architectural results — and one
    telemetry summary dict per window when ``telemetry`` is set.

    Either scheduler yields ``(start, phase, weight)`` windows into one
    measurement loop.  The stride schedule is generated lazily off the
    warm measurement pass, which then also provides the exact totals;
    with ``sampling.clustering`` a profiling pass plans the windows up
    front (:func:`_phase_schedule`) and is the fast-forwarder returned.
    """
    sampling.validate()
    config = config or PROTOTYPE
    horizon = sampling.warm_horizon
    ff = FastForwarder(program, config, warm=(horizon is None),
                       max_blocks=max_blocks)
    if sampling.clustering:
        schedule, restarts, exact, k, phase_weights = _phase_schedule(
            program, config, sampling, max_blocks)
    else:
        schedule, restarts, exact, k, phase_weights = (
            _stride_schedule(sampling, ff), [], ff, 0, ())
    windows: List[WindowSample] = []
    summaries: List[dict] = []
    ri = 0                      # next profiling snapshot to consider
    for start, phase, weight in schedule:
        start = max(start, ff.stats.blocks)
        warm_start = max(0, start - sampling.warmup_blocks)
        if horizon is not None:
            # cold up to the horizon, teleporting to the latest snapshot
            # before it when there is one (the stride schedule has none)
            cold_target = max(ff.stats.blocks, warm_start - horizon)
            jump = None
            while ri < len(restarts) and \
                    restarts[ri].blocks <= cold_target:
                jump = restarts[ri]
                ri += 1
            if jump is not None and jump.blocks > ff.stats.blocks:
                ff.restore_arch(jump)
            ff.warm = False
            ff.run_blocks(cold_target)
            ff.warm = True
        ff.run_blocks(warm_start)
        if ff.halted:
            break
        ckpt = take_checkpoint(ff)
        # drop the last window's core before building the next, so
        # memory holds one window's core at a time
        proc = None
        proc = TripsProcessor(program, config, telemetry=telemetry,
                              checkpoint=ckpt)
        warm_target = start - ff.stats.blocks
        if warm_target:
            proc.run(until_blocks=warm_target)
        if proc.halted and proc.stats.blocks_committed <= warm_target:
            continue            # program ended inside the warmup span
        proc.finalize_stats()
        cycles0 = proc.cycle
        insts0 = proc.stats.insts_committed
        reads0 = proc.stats.reads_committed
        counters0 = _counter_snapshot(proc.stats)
        proc.run(until_blocks=warm_target + sampling.measure_blocks)
        proc.finalize_stats()
        measured = proc.stats.blocks_committed - warm_target
        if measured <= 0:
            continue
        counters = {name: getattr(proc.stats, name) - counters0[name]
                    for name in RATE_FIELDS}
        windows.append(WindowSample(
            start_block=start, blocks=measured,
            cycles=proc.cycle - cycles0,
            insts=proc.stats.insts_committed - insts0,
            reads=proc.stats.reads_committed - reads0,
            counters=counters, lsq_peak=proc.stats.lsq_peak,
            phase=phase, weight=weight))
        if proc.tel is not None:
            summaries.append(proc.tel.summary().to_dict())

    if not windows:
        # program too short for one window (or every window fell past
        # program end): one full-length window == exact full simulation,
        # reported as a single phase of weight 1 when clustered
        proc = TripsProcessor(program, config, telemetry=telemetry)
        stats = proc.run()
        windows.append(WindowSample(
            start_block=0, blocks=stats.blocks_committed,
            cycles=stats.cycles, insts=stats.insts_committed,
            reads=stats.reads_committed,
            counters=_counter_snapshot(stats), lsq_peak=stats.lsq_peak,
            phase=0 if k else -1))
        if proc.tel is not None:
            summaries.append(proc.tel.summary().to_dict())
        if k:
            k, phase_weights = 1, [1.0]

    sampled = aggregate(windows, exact.stats.blocks, exact.stats.fired,
                        exact.stats.reads, k=k, phase_weights=phase_weights)
    return sampled, exact, summaries


@dataclass
class SampledRun:
    """One workload's sampled-simulation result."""

    name: str
    level: str
    sampled: SampledProcStats
    fallback_blocks: int = 0
    telemetry_windows: List[dict] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        return self.sampled.cycles_est

    @property
    def ipc(self) -> float:
        return self.sampled.ipc_est


def run_sampled_workload(workload, level: str = "tcc",
                         config: Optional[TripsConfig] = None,
                         sampling: SamplingConfig = SamplingConfig(),
                         telemetry: bool = False,
                         size: int = 1) -> SampledRun:
    """Compile and sample one workload, co-validating architectural
    outputs (from the fast-forwarder, which executes every block) against
    the TIR interpreter's golden results."""
    from ..workloads import get_workload
    if isinstance(workload, TirProgram):
        tir = workload
    else:
        tir = get_workload(workload, size=size)
    compiled = compile_tir(tir, level=level)
    sampled, ff, summaries = run_sampled_program(
        compiled.program, config=config or TripsConfig(),
        sampling=sampling, telemetry=telemetry)
    from ..harness.runner import validate_outputs
    validate_outputs(tir, compiled.extract_outputs(ff.regs, ff.memory),
                     f"{tir.name}@{level}: sampled")
    return SampledRun(name=tir.name, level=level, sampled=sampled,
                      fallback_blocks=ff.fallback_blocks,
                      telemetry_windows=summaries)
