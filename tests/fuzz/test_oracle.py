"""The oracle computes each artifact once per program, and still compares.

Within one :func:`run_case`, each compile level is compiled once and
run once on the functional simulator (``arch``'s run is ``ffwd``'s
reference), and the ``arch:cycle`` run stands in for the engine tier
with the production configuration.  These tests count the calls, and
inject faults to show
that sharing changes neither which divergences are reported nor their
details: a shared run returns exactly what the checks, each run alone
on a fresh record (the unshared oracle), report.
"""

import pytest

import repro.compiler
import repro.sampling.ffwd
from repro.fuzz.gen import generate
from repro.fuzz.oracle import (check_arch, check_asm, check_engines,
                               check_ffwd, run_case)
from repro.telemetry.recorder import TelemetryRecorder
from repro.uarch.config import PROTOTYPE
from repro.uarch.functional import FunctionalSim
from repro.uarch.proc import TripsProcessor

SEED = 1


class Probe:
    """Counts compile_tir and TripsProcessor.run calls; injects faults.

    ``fail_level`` makes compiles at that level raise; ``production`` is
    ``"crash"`` or ``"perturb"`` for every run of the production engine
    (PROTOTYPE, telemetry off).
    """

    def __init__(self, monkeypatch):
        self.compiles = []
        self.runs = []
        self.fail_level = None
        self.production = None
        real_compile = repro.compiler.compile_tir
        real_run = TripsProcessor.run

        def compile_tir(tir, level="tcc", *args, **kwargs):
            self.compiles.append(level)
            if level == self.fail_level:
                raise RuntimeError(f"injected {level} compile failure")
            return real_compile(tir, level, *args, **kwargs)

        def run(proc, *args, **kwargs):
            self.runs.append(proc.config)
            production = proc.config == PROTOTYPE and proc.tel is None
            if production and self.production == "crash":
                raise RuntimeError("injected production-engine crash")
            stats = real_run(proc, *args, **kwargs)
            if production and self.production == "perturb":
                stats.cycles += 1
            return stats

        monkeypatch.setattr(repro.compiler, "compile_tir", compile_tir)
        monkeypatch.setattr(TripsProcessor, "run", run)


@pytest.fixture
def probe(monkeypatch):
    return Probe(monkeypatch)


def _unshared(prog, nuca=False, telemetry=False):
    """The checks one by one, each building its own record."""
    return (check_arch(prog)
            + check_engines(prog, nuca=nuca, telemetry=telemetry)
            + check_asm(prog) + check_ffwd(prog))


def _stages(divergences):
    return [d.stage for d in divergences]


def test_run_case_compiles_each_level_once_and_shares_the_run(probe):
    assert run_case(generate(SEED)) == []
    assert probe.compiles == ["tcc", "hand"]
    # arch:cycle, then full-scan; the fast tier is shared
    assert len(probe.runs) == 2


@pytest.mark.parametrize("nuca,telemetry",
                         [(False, True), (True, False), (True, True)])
def test_telemetry_and_nuca_tiers_all_simulate(probe, nuca, telemetry):
    assert run_case(generate(SEED), nuca=nuca, telemetry=telemetry) == []
    assert probe.compiles == ["tcc", "hand"]
    assert len(probe.runs) == 3


def test_check_engines_alone_runs_every_tier(probe):
    assert check_engines(generate(SEED)) == []
    assert probe.compiles == ["hand"]
    assert len(probe.runs) == 2
    assert sum(config == PROTOTYPE for config in probe.runs) == 1


def test_compile_failure_reaches_every_stage(probe):
    prog = generate(SEED)
    probe.fail_level = "hand"
    shared = run_case(prog)
    assert _stages(shared) == ["arch:hand:compile", "engines:compile",
                               "asm:hand", "ffwd:hand:compile"]
    assert {d.detail for d in shared} == {
        "raised: RuntimeError: injected hand compile failure"}
    assert probe.compiles == ["tcc", "hand"]
    assert probe.runs == []
    assert shared == _unshared(prog)


def test_production_crash_reaches_arch_and_engines(probe):
    prog = generate(SEED)
    probe.production = "crash"
    shared = run_case(prog)
    assert _stages(shared) == ["arch:cycle", "engines:fast"]
    assert {d.detail for d in shared} == {
        "raised: RuntimeError: injected production-engine crash"}
    assert len(probe.runs) == 2
    assert shared == _unshared(prog)


def test_perturbed_production_stats_still_diverge(probe):
    prog = generate(SEED)
    probe.production = "perturb"
    shared = run_case(prog)
    assert _stages(shared) == ["engines:fast"]
    assert shared[0].detail.startswith(
        "stats diverge from full-scan: cycles: ")
    assert len(probe.runs) == 2
    assert shared == _unshared(prog)


def test_telemetry_summary_divergence_is_reported(monkeypatch):
    """With telemetry on, the engines' summaries are compared too: one
    DT cycle moved between states on the fast engine is a divergence
    although ProcStats agree.  ``fast_forward`` differs on every run
    that skips, and is left out."""
    real_summary = TelemetryRecorder.summary

    def summary(recorder):
        out = real_summary(recorder)
        if recorder.proc.config.fast_path:
            dt = out.tiles["D1"]
            dt["cache_miss"] = dt.get("cache_miss", 0) + 1
            dt["idle"] -= 1
        return out

    prog = generate(SEED)
    assert check_engines(prog, nuca=True, telemetry=True) == []
    monkeypatch.setattr(TelemetryRecorder, "summary", summary)
    got = check_engines(prog, nuca=True, telemetry=True)
    assert _stages(got) == ["engines:fast+nuca+telemetry"]
    assert got[0].detail.startswith(
        "telemetry summary diverges from full-scan: tiles.D1.")


def test_ffwd_takes_arch_s_functional_runs(monkeypatch):
    """The reference functional simulator runs once per level, for
    ``arch`` and ``ffwd`` together."""
    references = []
    real_run = FunctionalSim.run

    def run(sim):
        if type(sim) is FunctionalSim:
            references.append(sim.program)
        return real_run(sim)

    monkeypatch.setattr(FunctionalSim, "run", run)
    assert run_case(generate(SEED)) == []
    assert len(references) == 2


def test_ffwd_reports_interpreter_fallback(monkeypatch):
    """A block the compiler hands to the interpreter still runs exactly,
    but the sampling tier then runs at interpreter speed: a divergence
    on each pass."""
    def refuse(block, addr):
        raise repro.sampling.ffwd.BlockCompileError("refused")

    monkeypatch.setattr(repro.sampling.ffwd, "compile_block", refuse)
    got = check_ffwd(generate(SEED))
    assert _stages(got) == ["ffwd:tcc:cold", "ffwd:tcc:warm",
                            "ffwd:hand:cold", "ffwd:hand:warm"]
    assert all("blocks fell back to the interpreter" in d.detail
               for d in got)
