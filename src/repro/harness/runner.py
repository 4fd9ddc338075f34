"""Run workloads on the TRIPS core and the baseline, with validation.

Every run co-validates architectural outputs against the TIR interpreter's
golden results before its timing numbers are reported — the reproduction's
equivalent of the paper's RTL-vs-tsim-proc validation discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baseline.ooo import BaselineConfig, BaselineStats, run_baseline
from ..compiler import CompiledProgram, compile_tir, extract_outputs
from ..compiler.srisc import compile_srisc
from ..tir import TirProgram, interpret
from ..uarch.config import TripsConfig
from ..uarch.proc import ProcStats, TripsProcessor
from ..workloads import get_workload


class ValidationError(AssertionError):
    """A simulator produced architecturally-wrong results."""


def validate_outputs(tir: TirProgram, got: tuple, what: str) -> None:
    """Raise :class:`ValidationError` unless ``got`` (an
    :func:`~repro.compiler.extract_outputs` tuple) equals the TIR
    interpreter's golden outputs; ``what`` names the run."""
    if got != interpret(tir).output_signature(tir.outputs):
        raise ValidationError(f"{what} outputs diverge from golden")


@dataclass
class TripsRun:
    name: str
    level: str
    stats: ProcStats
    proc: TripsProcessor
    compiled: CompiledProgram

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


@dataclass
class BaselineRun:
    name: str
    stats: BaselineStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def _resolve(workload, size: int = 1) -> TirProgram:
    if isinstance(workload, TirProgram):
        return workload
    return get_workload(workload, size=size)


def run_trips_workload(workload, level: str = "hand",
                       config: Optional[TripsConfig] = None,
                       trace: bool = False,
                       telemetry: bool = False, size: int = 1) -> TripsRun:
    """Compile and run one workload on tsim-proc.

    With ``telemetry=True`` the recorder is reachable as
    ``run.proc.tel``.  ``size`` scales the input for the workloads in
    :data:`~repro.workloads.registry.SCALABLE`.
    """
    tir = _resolve(workload, size=size)
    compiled = compile_tir(tir, level=level)
    proc = TripsProcessor(compiled.program,
                          config=config or TripsConfig(), trace=trace,
                          telemetry=telemetry)
    stats = proc.run()
    validate_outputs(tir, compiled.extract_outputs(proc.regs, proc.memory),
                     f"{tir.name}@{level}: TRIPS")
    return TripsRun(name=tir.name, level=level, stats=stats, proc=proc,
                    compiled=compiled)


def run_baseline_workload(workload,
                          config: Optional[BaselineConfig] = None
                          ) -> BaselineRun:
    """Compile and run one workload on the conventional OoO baseline."""
    tir = _resolve(workload)
    program = compile_srisc(tir)
    functional, stats = run_baseline(program, config)
    got = extract_outputs(tir, program.var_regs, program.array_addrs,
                          functional.regs, functional.memory)
    validate_outputs(tir, got, f"{tir.name}: baseline")
    return BaselineRun(name=tir.name, stats=stats)
