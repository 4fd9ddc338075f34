"""Pin the compiler's output: every program compiles to the same image.

One sha256 per program family covers, for each program in turn, its
memory image (encoded blocks and data), entry point, initial registers
and labels.  The families are every registry workload at both levels,
the five sampling-roster programs at the sizes perfbench runs them
(``tcc``), and fuzz seeds 0-49 at both levels.  A change to block
formation, placement, slot assignment, encoding or data layout moves a
digest here, whether or not any simulated ``ProcStats`` moves with it.

The digests were recorded before the compiler's placement and encoding
were rewritten for speed, so they also pin that those rewrites change
nothing.
"""

import hashlib

import pytest

from repro.compiler import compile_tir
from repro.fuzz.gen import generate
from repro.workloads import get_workload
from repro.workloads.registry import workload_names

LEVELS = ("tcc", "hand")
#: perfbench's sampling roster: (workload, size), compiled at ``tcc``
ROSTER = (("mcf", 512), ("dct8x8", 128), ("a2time01", 3072),
          ("bezier02", 4096), ("basefp01", 4096))
FUZZ_SEEDS = range(50)


def _feed(h, key: str, program) -> None:
    h.update(key.encode() + b"\0")
    for addr, payload in sorted(program.memory_image().items()):
        h.update(addr.to_bytes(8, "little"))
        h.update(len(payload).to_bytes(8, "little"))
        h.update(payload)
    h.update(program.entry.to_bytes(8, "little"))
    for reg, value in sorted(program.initial_regs.items()):
        h.update(reg.to_bytes(2, "little") + value.to_bytes(8, "little"))
    for label, addr in sorted(program.labels.items()):
        h.update(label.encode() + b"\0" + addr.to_bytes(8, "little"))


def _registry():
    for name in workload_names():
        tir = get_workload(name)
        for level in LEVELS:
            yield f"{name}@{level}", compile_tir(tir, level=level).program


def _roster():
    for name, size in ROSTER:
        tir = get_workload(name, size=size)
        yield f"{name}x{size}@tcc", compile_tir(tir, level="tcc").program


def _fuzz():
    for seed in FUZZ_SEEDS:
        tir = generate(seed)
        for level in LEVELS:
            yield f"seed{seed}@{level}", compile_tir(tir, level=level).program


FAMILIES = {
    "registry": (_registry,
                 "3c7e223d3e31f764f1ee885874d8404662e78dc67e4d85161dfeeb0c99df5ed6"),
    "roster": (_roster,
               "df809a631a54e46f349ed51bc8fed22e1b45d2f9b175b88e2f6660bbacc7ce4d"),
    "fuzz": (_fuzz,
             "93f5f42eb7a285442f42031f8ac1a778dc3c8ae7758798cb9d4a21194200720a"),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compiled_images_are_pinned(family):
    programs, pinned = FAMILIES[family]
    h = hashlib.sha256()
    count = 0
    for key, program in programs():
        _feed(h, key, program)
        count += 1
    assert count > 0
    assert h.hexdigest() == pinned, (
        f"the {family} programs' compiled images changed")
