"""Sampled + checkpointed simulation (SMARTS-style).

Four layers:

* :mod:`~repro.sampling.ffwd` — a compiled functional fast-forwarder
  (per-block code generation over the static dataflow graph) that retires
  blocks 10-50x faster than the cycle-accurate engine while optionally
  warming the next-block predictor and cache tag state, and optionally
  collecting per-interval basic-block vectors as a near-free side
  effect;
* :mod:`~repro.sampling.checkpoint` — exact-JSON architectural
  checkpoints taken at block boundaries, restorable into a fresh
  :class:`~repro.uarch.proc.TripsProcessor`;
* :mod:`~repro.sampling.phases` — SimPoint-style phase clustering over
  those BBVs (deterministic k-means, BIC-chosen k), scheduling
  measurement windows on representative intervals in proportion to
  phase population instead of by stratified stride;
* :mod:`~repro.sampling.sampler` / :mod:`~repro.sampling.stats` — the
  sampling driver (one measurement loop fed by either the stride or the
  phase-clustered schedule) and the statistical aggregation (one
  stratified estimator: point estimates with 95% confidence intervals,
  population-weighted when phase-clustered).

Together they let the harness run workloads 100-1000x bigger than full
cycle-accurate simulation allows, at a quantified (typically <1%) error
in cycles/IPC and >=20x effective speedup (BENCH_sampling.json).
"""

from .checkpoint import CHECKPOINT_VERSION, ArchCheckpoint, take_checkpoint
from .ffwd import BlockCompileError, FastForwarder, compile_block
from .phases import PhasePlan, PhaseWindow, kmeans, plan_phases, project_bbvs
from .sampler import (SampledRun, SamplingConfig, run_sampled_program,
                      run_sampled_workload)
from .stats import SampledProcStats, WindowSample, aggregate, t95
from .validate import measure_error, staleness_sweep, warmup_sweep

__all__ = [
    "ArchCheckpoint", "BlockCompileError", "CHECKPOINT_VERSION",
    "FastForwarder", "PhasePlan", "PhaseWindow", "SampledProcStats",
    "SampledRun", "SamplingConfig", "WindowSample", "aggregate",
    "compile_block", "kmeans", "measure_error",
    "plan_phases", "project_bbvs", "run_sampled_program",
    "run_sampled_workload", "staleness_sweep", "take_checkpoint", "t95",
    "warmup_sweep",
]
