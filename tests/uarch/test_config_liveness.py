"""Every config field moves the simulation.

A field that no run can feel still enters every simlab cache key and
every BENCH provenance record, so an ablation over it silently reports
"no effect".  Each ``TripsConfig`` and ``PredictorConfig`` field therefore
has a row here: a small workload, the overrides of its base run, and one
perturbed value whose run must produce different ``ProcStats``.  Each
``BaselineConfig`` field has the same kind of row against
``BaselineStats``.  A field added without a row fails
:func:`test_every_field_has_a_row` or
:func:`test_every_baseline_field_has_a_row`.
"""

import dataclasses
from collections import Counter
from functools import lru_cache

import pytest

from repro.asm import assemble
from repro.baseline.ooo import BaselineConfig, OooCore
from repro.baseline.srisc import run_functional
from repro.compiler import compile_tir
from repro.compiler.srisc import compile_srisc
from repro.uarch.config import PredictorConfig, TripsConfig
from repro.uarch.proc import ProcError, TripsProcessor
from repro.workloads import get_workload

from .test_proc_fetch import CALL_RETURN_LOOP

NUCA = {"perfect_l2": False}

#: field -> (workload, base overrides, perturbed value); a predictor
#: field is named ``predictor.<field>``, and ``callret`` is
#: :data:`CALL_RETURN_LOOP`, the only program that calls and returns
ROWS = {
    "max_blocks_in_flight": ("vadd@hand", {}, 4),
    "speculative_blocks": ("vadd@hand", {}, 0),
    "predict_cycles": ("vadd@hand", {}, 5),
    "dispatch_commands": ("svd@tcc", {}, 2),
    "opn_links_per_hop": ("vadd@hand", {}, 2),
    "opn_router_depth": ("vadd@hand", {}, 1),
    "l1i_bank_kb": ("sha@tcc", {}, 1),
    "l1i_assoc": ("sha@tcc", {"l1i_bank_kb": 1}, 1),
    "l1d_bank_kb": ("vadd@hand", {}, 1),
    "l1d_assoc": ("vadd@hand", {"l1d_bank_kb": 1}, 1),
    "line_bytes": ("vadd@hand", {}, 32),
    "l1_hit_cycles": ("vadd@hand", {}, 3),
    "dep_predictor_bits": ("sha@hand", {}, 2),
    "dep_clear_interval_blocks": ("sha@tcc", NUCA, 5),
    "dep_predictor_enabled": ("sha@tcc", NUCA, False),
    "perfect_l2": ("vadd@hand", {}, False),
    "l2_hit_cycles": ("vadd@hand", {}, 20),
    "dram_cycles": ("sha@tcc", NUCA, 200),
    "predictor.local_bits": ("svd@tcc", {}, 5),
    "predictor.global_bits": ("svd@tcc", {}, 5),
    "predictor.choice_bits": ("svd@tcc", {}, 2),
    "predictor.btb_bits": ("vadd@hand", {}, 32),
    "predictor.ctb_bits": ("callret", {}, 32),
    "predictor.btype_bits": ("callret", {}, 2),
    "predictor.exit_history_len": ("svd@tcc", {}, 1),
    "predictor.kind": ("vadd@hand", {}, "static"),
}

#: ``max_cycles`` is live when exhausting it raises
RAISES = {"max_cycles"}

#: ``fast_path`` picks between two engines whose contract is zero
#: difference, enforced by tests/uarch/test_fast_path.py
EXEMPT = {"fast_path"}

#: BaselineConfig field -> (workload, base overrides, perturbed value)
BASELINE_ROWS = {
    "fetch_width": ("vadd", {}, 8),
    "frontend_depth": ("vadd", {}, 8),
    "rob_entries": ("sha", {}, 160),
    "int_alus": ("dct8x8", {}, 8),
    "fp_units": ("dct8x8", {}, 1),
    "mem_ports": ("vadd", {}, 4),
    "commit_width": ("vadd", {}, 8),
    "mispredict_penalty": ("sha", {}, 14),
    "taken_bubble": ("vadd", {}, 2),
    "l1d_kb": ("vadd", {}, 1),
    "l1d_assoc": ("ct", {"l1d_kb": 1}, 1),
    "line_bytes": ("vadd", {}, 128),
    "l1_hit_cycles": ("vadd", {}, 6),
    "l2_hit_cycles": ("vadd", {}, 24),
    "int_mul_latency": ("dct8x8", {}, 14),
    "int_div_latency": ("a2time01", {}, 40),
    "fp_latency": ("vadd", {}, 8),
    "fp_div_latency": ("qr", {}, 24),
    "local_entries": ("mcf", {}, 512),
    "global_entries": ("mcf", {}, 2048),
    "cluster_penalty": ("vadd", {}, 2),
}


def _config(overrides) -> TripsConfig:
    top = {k: v for k, v in overrides if "." not in k}
    predictor = {k.split(".", 1)[1]: v for k, v in overrides if "." in k}
    return TripsConfig(predictor=PredictorConfig(**predictor), **top)


@lru_cache(maxsize=None)
def _program(workload: str):
    if workload == "callret":
        return assemble(CALL_RETURN_LOOP)
    name, level = workload.split("@")
    return compile_tir(get_workload(name), level=level).program


@lru_cache(maxsize=None)
def _stats(workload: str, overrides: tuple) -> dict:
    proc = TripsProcessor(_program(workload), config=_config(overrides))
    return proc.run().to_dict()


def test_every_field_has_a_row():
    names = {f.name for f in dataclasses.fields(TripsConfig)}
    assert "predictor" in names     # covered field by field below
    names = (names - {"predictor"}) | {
        f"predictor.{f.name}" for f in dataclasses.fields(PredictorConfig)}
    assert names == set(ROWS) | RAISES | EXEMPT


@pytest.mark.parametrize("field", sorted(ROWS))
def test_field_moves_procstats(field):
    workload, base, value = ROWS[field]
    assert field not in base
    before = _stats(workload, tuple(sorted(base.items())))
    after = _stats(workload, tuple(sorted({**base, field: value}.items())))
    assert after != before


@lru_cache(maxsize=None)
def _srisc(workload: str):
    program = compile_srisc(get_workload(workload))
    return program, run_functional(program)


@lru_cache(maxsize=None)
def _baseline_stats(workload: str, overrides: tuple) -> dict:
    program, functional = _srisc(workload)
    config = BaselineConfig(**dict(overrides))
    return OooCore(config).run(program, functional).to_dict()


def test_every_baseline_field_has_a_row():
    names = {f.name for f in dataclasses.fields(BaselineConfig)}
    assert names == set(BASELINE_ROWS)


@pytest.mark.parametrize("field", sorted(BASELINE_ROWS))
def test_baseline_field_moves_stats(field):
    workload, base, value = BASELINE_ROWS[field]
    assert field not in base
    before = _baseline_stats(workload, tuple(sorted(base.items())))
    after = _baseline_stats(
        workload, tuple(sorted({**base, field: value}.items())))
    assert after != before


def test_max_cycles_raises_when_exhausted():
    proc = TripsProcessor(_program("vadd@hand"),
                          config=TripsConfig(max_cycles=100))
    with pytest.raises(ProcError, match="cycle budget 100 exhausted"):
        proc.run()


@pytest.mark.parametrize("predict_cycles", [3, 5])
def test_predict_cycles_reaches_dispatch(predict_cycles):
    # Section 4.1: predict, then one cycle of tag access and one of
    # hit/miss detection before the GDN starts dispatching
    proc = TripsProcessor(_program("vadd@tcc"), telemetry=True,
                          config=TripsConfig(predict_cycles=predict_cycles))
    proc.run()
    gaps = Counter(span.dispatch_start - span.fetch_t
                   for span in proc.tel.blocks.values())
    assert gaps.most_common(1)[0][0] == predict_cycles + 2
