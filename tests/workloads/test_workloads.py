"""Workload-suite tests.

Every benchmark must (a) validate as TIR, (b) compile at every level, and
(c) produce bit-identical outputs on the functional TRIPS simulator and on
the baseline — the full co-validation matrix.  (tsim-proc co-validation for
the whole suite lives in the slow/benchmark tier; a sample runs here.)
"""

import pytest

from repro.baseline.ooo import run_baseline
from repro.compiler import compile_tir, extract_outputs
from repro.compiler.srisc import compile_srisc
from repro.tir import interpret
from repro.uarch import FunctionalSim
from repro.workloads import ALL_WORKLOADS, SUITES, get_workload, workload_names
from repro.workloads.registry import HAND_OPTIMIZED

NAMES = workload_names()


class TestRegistry:
    def test_suite_size(self):
        # the paper's 21 benchmarks plus the promoted fuzz-corpus synths
        assert len(NAMES) == 21 + len(SUITES["synth"])
        assert len(set(NAMES)) == len(NAMES)
        assert len(SUITES["synth"]) == 4

    def test_suites_cover_all(self):
        assert sorted(n for s in SUITES.values() for n in s) == sorted(NAMES)
        assert set(SUITES) == {"micro", "kernels", "eembc", "spec", "synth"}

    def test_spec_not_hand_optimized(self):
        assert set(SUITES["spec"]) & set(HAND_OPTIMIZED) == set()
        assert set(SUITES["synth"]) & set(HAND_OPTIMIZED) == set()

    def test_synth_provenance(self):
        from repro.workloads.synth import provenance
        for name in SUITES["synth"]:
            info = provenance(name)
            assert info["origin"].startswith("tests/fuzz/corpus/")
            assert info["reason"]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("quake3")

    def test_factories_produce_fresh_programs(self):
        a = get_workload("vadd")
        b = get_workload("vadd")
        assert a is not b


def _golden(prog):
    return interpret(prog).output_signature(prog.outputs)


@pytest.mark.parametrize("name", NAMES)
class TestCoValidation:
    def test_trips_functional_tcc(self, name):
        prog = get_workload(name)
        compiled = compile_tir(prog, level="tcc")
        sim = FunctionalSim(compiled.program)
        sim.run()
        assert compiled.extract_outputs(sim.regs, sim.memory) == _golden(prog)

    def test_trips_functional_hand(self, name):
        prog = get_workload(name)
        compiled = compile_tir(prog, level="hand")
        sim = FunctionalSim(compiled.program)
        sim.run()
        assert compiled.extract_outputs(sim.regs, sim.memory) == _golden(prog)

    def test_baseline(self, name):
        prog = get_workload(name)
        sp = compile_srisc(prog)
        functional, stats = run_baseline(sp)
        assert extract_outputs(prog, sp.var_regs, sp.array_addrs,
                               functional.regs, functional.memory) \
            == _golden(prog)
        assert stats.cycles > 0


class TestCharacter:
    """Each workload must exhibit the microarchitectural character the
    paper's analysis depends on."""

    def test_sha_is_serial(self):
        # sha's dependence chain yields the lowest TRIPS concurrency of
        # the microbenchmarks (the paper's "almost entirely serial" case)
        from repro.compiler import compile_tir
        from repro.uarch.proc import TripsProcessor

        def trips_ipc(name):
            compiled = compile_tir(get_workload(name), level="hand")
            proc = TripsProcessor(compiled.program)
            return proc.run().ipc

        assert trips_ipc("sha") < trips_ipc("vadd")

    def test_vadd_is_memory_heavy(self):
        prog = get_workload("vadd")
        res = interpret(prog)
        mem_ops = res.op_counts.get("load", 0) + res.op_counts.get("store", 0)
        alu_ops = res.op_counts.get("fadd", 0)
        assert mem_ops >= 3 * alu_ops

    def test_mcf_chases_pointers(self):
        # every successor load depends on the previous load's value
        prog = get_workload("mcf")
        res = interpret(prog)
        assert res.op_counts["load"] >= 2 * 3 * 64 - 64

    def test_twolf_is_branchy(self):
        sp = compile_srisc(get_workload("twolf"))
        _, stats = run_baseline(sp)
        assert stats.branches / stats.instructions > 0.05

    def test_cfar_finds_the_planted_targets(self):
        prog = get_workload("cfar")
        res = interpret(prog)
        from repro.tir import bits_to_int
        detections = bits_to_int(res.scalars["detections"])
        assert detections == 3

    def test_sha_digest_nontrivial(self):
        res = interpret(get_workload("sha"))
        assert len(set(res.arrays["digest"])) == 5

    def test_pm_finds_the_planted_shift(self):
        res = interpret(get_workload("pm"))
        from repro.tir import bits_to_int
        assert bits_to_int(res.scalars["bestpos"]) == 7
        assert bits_to_int(res.scalars["bestsad"]) == 0
