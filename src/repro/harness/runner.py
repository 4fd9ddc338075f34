"""Run workloads on the TRIPS core and the baseline, with validation.

Every run co-validates architectural outputs against the TIR interpreter's
golden results before its timing numbers are reported — the reproduction's
equivalent of the paper's RTL-vs-tsim-proc validation discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baseline.ooo import BaselineConfig, BaselineStats, OooCore
from ..baseline.srisc import run_functional
from ..compiler import CompiledProgram, compile_tir
from ..compiler.srisc import compile_srisc
from ..tir import TirProgram, interpret
from ..tir.semantics import truncate_load
from ..uarch.config import TripsConfig
from ..uarch.proc import ProcStats, TripsProcessor
from ..workloads import get_workload


class ValidationError(AssertionError):
    """A simulator produced architecturally-wrong results."""


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
                       validate: bool = True,
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
    if validate:
        golden = interpret(tir).output_signature(tir.outputs)
        got = compiled.extract_outputs(proc.regs, proc.memory)
        if got != golden:
            raise ValidationError(
                f"{tir.name}@{level}: TRIPS outputs diverge from golden")
    return TripsRun(name=tir.name, level=level, stats=stats, proc=proc,
                    compiled=compiled)


def run_baseline_workload(workload,
                          config: Optional[BaselineConfig] = None,
                          validate: bool = True) -> BaselineRun:
    """Compile and run one workload on the conventional OoO baseline."""
    tir = _resolve(workload)
    program = compile_srisc(tir)
    functional = run_functional(program)
    if validate:
        golden = interpret(tir).output_signature(tir.outputs)
        parts = []
        for out in tir.outputs:
            if out in tir.arrays:
                arr = tir.arrays[out]
                base = program.array_addrs[out]
                parts.append((out, tuple(
                    truncate_load(
                        functional.memory.read(base + i * arr.elem_size,
                                               arr.elem_size),
                        arr.elem_size, arr.signed)
                    for i in range(len(arr.data)))))
            else:
                parts.append((out, functional.regs[program.var_regs[out]]))
        if tuple(parts) != golden:
            raise ValidationError(
                f"{tir.name}: baseline outputs diverge from golden")
    stats = OooCore(config).run(program, functional)
    return BaselineRun(name=tir.name, stats=stats)
