"""The differential oracle: one program, every independent execution path.

Three check families, each exercising a different seam of the stack:

* ``arch`` — architectural outputs.  The TIR interpreter is golden; the
  block-atomic functional simulator (both compile levels), the SRISC/OOO
  baseline, and the cycle-level TRIPS simulator must match it bit for bit.
* ``engines`` — ProcStats equivalence.  The two cycle engines (the
  full-scan oracle and the fast engine) must produce byte-identical
  statistics, optionally with telemetry enabled and/or the NUCA memory
  system (``perfect_l2=False``).  With telemetry on, their telemetry
  summaries must match too, apart from the fast engine's own
  ``fast_forward`` record.
* ``asm`` — the assembler↔disassembler text round trip must reproduce
  the program's memory image exactly.

Any exception raised by a stage (compile error, simulator deadlock) is
itself a divergence — those are precisely the crashes fuzzing exists to
find.  Results are plain dicts so shards can ship them through simlab.

The checks of one :func:`run_case` share an :class:`Artifacts` record,
so each compile level is compiled once and the production-engine run of
``arch:cycle`` stands in for the engine tier with the same
configuration.  Every comparison still runs, on the same values.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from .gen import GenConfig, generate

#: check families in canonical order.
ALL_CHECKS = ("arch", "engines", "asm")

#: the two cycle-engine tiers under test (overrides on TripsConfig).
ENGINE_TIERS = {
    "full-scan": {"fast_path": False},
    "fast": {"fast_path": True},
}


@dataclass
class Divergence:
    """One disagreement between two execution paths."""

    program: str          # program name (``fuzz_<seed>`` or corpus name)
    stage: str            # e.g. "arch:hand", "engines:fast+nuca"
    detail: str           # human-readable description

    def to_dict(self) -> Dict[str, str]:
        return {"program": self.program, "stage": self.stage,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Divergence":
        return cls(program=data["program"], stage=data["stage"],
                   detail=data["detail"])


def _crash(program, stage, exc) -> Divergence:
    tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return Divergence(program, stage, f"raised: {tb}")


def _unwrap(outcome):
    """A kept outcome's value; a kept exception is raised again."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class Artifacts:
    """What the checks of one program compute once and then share.

    A record lives for one :func:`run_case` call; a check called without
    one builds its own.  Each compile level is compiled once, and
    ``production`` keeps the outcome of ``arch:cycle``'s run: the hand
    program on :data:`~repro.uarch.config.PROTOTYPE` with telemetry off.
    An outcome is the value or the exception computing it raised, so a
    failure reaches every stage that asks for it, with the same detail.
    Nothing outlives the record: TIR programs are mutable.
    """

    def __init__(self, prog):
        self.prog = prog
        self._compiled: Dict[str, object] = {}
        #: ProcStats dict (or exception) of the production-engine run
        self.production: Union[dict, Exception, None] = None

    def compiled(self, level: str):
        """``compile_tir(prog, level)``, computed on first request."""
        from ..compiler import compile_tir

        if level not in self._compiled:
            try:
                self._compiled[level] = compile_tir(self.prog, level=level)
            except Exception as exc:
                self._compiled[level] = exc
        return _unwrap(self._compiled[level])

    def run_production(self):
        """Run the hand program on the production engine, keep the
        outcome in ``production`` and return the finished processor."""
        from ..uarch.config import PROTOTYPE
        from ..uarch.proc import TripsProcessor

        program = self.compiled("hand").program
        try:
            proc = TripsProcessor(program, config=PROTOTYPE)
            self.production = proc.run().to_dict()
        except Exception as exc:
            self.production = exc
            raise
        return proc


# ----------------------------------------------------------------------
# arch: architectural outputs vs the interpreter
# ----------------------------------------------------------------------
def _baseline_outputs(prog):
    from ..baseline.ooo import run_baseline
    from ..compiler.srisc import compile_srisc
    from ..tir.semantics import truncate_load

    sp = compile_srisc(prog)
    functional, _ = run_baseline(sp)
    parts = []
    for out in prog.outputs:
        if out in prog.arrays:
            arr = prog.arrays[out]
            base = sp.array_addrs[out]
            parts.append((out, tuple(
                truncate_load(
                    functional.memory.read(base + i * arr.elem_size,
                                           arr.elem_size),
                    arr.elem_size, arr.signed)
                for i in range(len(arr.data)))))
        else:
            parts.append((out, functional.regs[sp.var_regs[out]]))
    return tuple(parts)


def check_arch(prog, artifacts: Optional[Artifacts] = None) \
        -> List[Divergence]:
    """Interpreter vs tcc/hand functional sims vs baseline vs cycle sim."""
    from ..tir import interpret
    from ..uarch import FunctionalSim

    artifacts = artifacts or Artifacts(prog)
    out: List[Divergence] = []
    golden = interpret(prog).output_signature(prog.outputs)

    compiled = {}
    for level in ("tcc", "hand"):
        stage = f"arch:{level}"
        try:
            compiled[level] = artifacts.compiled(level)
        except Exception as exc:
            out.append(_crash(prog.name, stage + ":compile", exc))
            continue
        try:
            sim = FunctionalSim(compiled[level].program)
            sim.run()
            got = compiled[level].extract_outputs(sim.regs, sim.memory)
        except Exception as exc:
            out.append(_crash(prog.name, stage, exc))
            continue
        if got != golden:
            out.append(Divergence(prog.name, stage,
                                  f"functional sim: {got!r} != {golden!r}"))

    try:
        base = _baseline_outputs(prog)
        if base != golden:
            out.append(Divergence(prog.name, "arch:baseline",
                                  f"baseline: {base!r} != {golden!r}"))
    except Exception as exc:
        out.append(_crash(prog.name, "arch:baseline", exc))

    if "hand" in compiled:
        try:
            proc = artifacts.run_production()
            got = compiled["hand"].extract_outputs(proc.regs, proc.memory)
            if got != golden:
                out.append(Divergence(prog.name, "arch:cycle",
                                      f"cycle sim: {got!r} != {golden!r}"))
        except Exception as exc:
            out.append(_crash(prog.name, "arch:cycle", exc))
    return out


# ----------------------------------------------------------------------
# engines: ProcStats across the two cycle-engine tiers
# ----------------------------------------------------------------------
def _stats_diff(a: dict, b: dict, prefix: str = "") -> List[str]:
    """Paths where two stats dicts disagree (bounded, deterministic)."""
    diffs = []
    for key in sorted(set(a) | set(b)):
        pa, pb = a.get(key), b.get(key)
        path = f"{prefix}{key}"
        if isinstance(pa, dict) and isinstance(pb, dict):
            diffs.extend(_stats_diff(pa, pb, path + "."))
        elif pa != pb:
            diffs.append(f"{path}: {pa!r} != {pb!r}")
        if len(diffs) >= 8:
            break
    return diffs[:8]


def check_engines(prog, nuca: bool = False, telemetry: bool = False,
                  artifacts: Optional[Artifacts] = None) -> List[Divergence]:
    """Both engine tiers must report identical ProcStats and, with
    ``telemetry``, identical telemetry summaries but for ``fast_forward``
    (the record of the stretches only the fast engine skips).

    A tier whose configuration equals the production engine's, with
    telemetry off, takes ``arch:cycle``'s run from ``artifacts`` when
    that check already ran it: the same deterministic simulation.
    """
    from ..uarch.config import PROTOTYPE, TripsConfig
    from ..uarch.proc import TripsProcessor

    artifacts = artifacts or Artifacts(prog)
    suffix = ("+nuca" if nuca else "") + ("+telemetry" if telemetry else "")
    out: List[Divergence] = []
    try:
        program = artifacts.compiled("hand").program
    except Exception as exc:
        return [_crash(prog.name, "engines:compile", exc)]

    stats: Dict[str, dict] = {}
    summaries: Dict[str, dict] = {}
    for tier, overrides in ENGINE_TIERS.items():
        stage = f"engines:{tier}{suffix}"
        config = TripsConfig(**overrides)
        if nuca:
            config = config.with_overrides(perfect_l2=False)
        try:
            if artifacts.production is not None and not telemetry \
                    and config == PROTOTYPE:
                stats[tier] = _unwrap(artifacts.production)
            else:
                proc = TripsProcessor(program, config=config,
                                      telemetry=telemetry)
                stats[tier] = proc.run().to_dict()
                if telemetry:
                    summaries[tier] = proc.tel.summary().to_dict()
                    del summaries[tier]["fast_forward"]
        except Exception as exc:
            out.append(_crash(prog.name, stage, exc))

    for what, records in (("stats diverge", stats),
                          ("telemetry summary diverges", summaries)):
        if "full-scan" in records and "fast" in records:
            diffs = _stats_diff(records["full-scan"], records["fast"])
            if diffs:
                out.append(Divergence(
                    prog.name, f"engines:fast{suffix}",
                    f"{what} from full-scan: " + "; ".join(diffs)))
    return out


# ----------------------------------------------------------------------
# asm: text round trip
# ----------------------------------------------------------------------
def check_asm(prog, artifacts: Optional[Artifacts] = None) \
        -> List[Divergence]:
    """disassemble → assemble must reproduce the exact memory image."""
    from ..asm import assemble, disassemble

    artifacts = artifacts or Artifacts(prog)
    out: List[Divergence] = []
    for level in ("tcc", "hand"):
        stage = f"asm:{level}"
        try:
            original = artifacts.compiled(level).program
            again = assemble(disassemble(original))
        except Exception as exc:
            out.append(_crash(prog.name, stage, exc))
            continue
        img_a, img_b = original.memory_image(), again.memory_image()
        if img_a != img_b:
            bad = sorted(k for k in set(img_a) | set(img_b)
                         if img_a.get(k) != img_b.get(k))
            out.append(Divergence(
                prog.name, stage,
                f"memory image differs at {[hex(k) for k in bad[:4]]}"))
        elif again.entry != original.entry:
            out.append(Divergence(
                prog.name, stage,
                f"entry {again.entry:#x} != {original.entry:#x}"))
        elif again.initial_regs != original.initial_regs:
            out.append(Divergence(prog.name, stage, "initial_regs differ"))
    return out


# ----------------------------------------------------------------------
# case / shard drivers
# ----------------------------------------------------------------------
def run_case(prog, checks=ALL_CHECKS, nuca: bool = False,
             telemetry: bool = False) -> List[Divergence]:
    """All requested checks on one program, sharing one artifact record."""
    artifacts = Artifacts(prog)
    out: List[Divergence] = []
    if "arch" in checks:
        out.extend(check_arch(prog, artifacts=artifacts))
    if "engines" in checks:
        out.extend(check_engines(prog, nuca=nuca, telemetry=telemetry,
                                 artifacts=artifacts))
    if "asm" in checks:
        out.extend(check_asm(prog, artifacts=artifacts))
    return out


def run_shard(config: dict) -> dict:
    """Driver for one campaign shard; ``config`` is a plain-JSON dict.

    Keys: ``start`` (first seed), ``count``, optional ``gen`` (GenConfig
    fields), ``checks``, ``telemetry_every``, ``nuca_every`` (period, 0
    disables; the heavier engine variants are sampled, not run on every
    seed, to keep campaign throughput useful — the sampling period is
    part of the simlab cache key).
    """
    start = int(config["start"])
    count = int(config["count"])
    gen_config = GenConfig.from_dict(config.get("gen", {}))
    checks = tuple(config.get("checks", ALL_CHECKS))
    telemetry_every = int(config.get("telemetry_every", 4))
    nuca_every = int(config.get("nuca_every", 8))

    divergences: List[Divergence] = []
    for seed in range(start, start + count):
        prog = generate(seed, gen_config)
        telemetry = telemetry_every > 0 and seed % telemetry_every == 0
        nuca = nuca_every > 0 and seed % nuca_every == 0
        divergences.extend(run_case(prog, checks=checks, nuca=nuca,
                                    telemetry=telemetry))
    return {
        "start": start,
        "count": count,
        "divergences": [d.to_dict() for d in divergences],
    }
