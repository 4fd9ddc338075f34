"""Pinned observability outputs: telemetry summary, Perfetto document and
critical-path row, alone and with tracing and telemetry on together.

The critical-path trace and telemetry read one per-block lifecycle
record (:class:`~repro.uarch.trace.BlockEvent`).  Each digest below is
``sha256(json.dumps(obj, sort_keys=True))[:16]`` of
``proc.tel.summary().to_dict()``, ``build_trace(proc.tel)`` and
``analyze_critical_path(proc.trace).row()``; a change to any of them is
a change to what a user sees, not a refactor.
"""

import hashlib
import json

import pytest

from repro.analysis.critpath import analyze_critical_path
from repro.compiler import compile_tir
from repro.telemetry.perfetto import build_trace
from repro.uarch.config import TripsConfig
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload

#: id -> (workload, level, config overrides,
#:        (summary, Perfetto, critical-path) digests)
CASES = {
    "qr@hand": ("qr", "hand", {},
                ("d28f82bdf8c18e5c", "f3d983028b66556f",
                 "085c876706ea5084")),
    # the full-scan engine skips no cycles, so its summary and Perfetto
    # document lack the fast-forward record; its critical path is equal
    "qr@hand/full-scan": ("qr", "hand", {"fast_path": False},
                          ("eee8c419503f814d", "8891e6a8a4b54fea",
                           "085c876706ea5084")),
    "vadd@hand/nuca": ("vadd", "hand", {"perfect_l2": False},
                       ("02e7e566463393d3", "05630f88d51dd271",
                        "b7c8ddf63c51d3c8")),
    "mcf@tcc": ("mcf", "tcc", {},
                ("fec47c486f8dd6a8", "2d9ae2de527b1833",
                 "733b7a39cea4e0d0")),
    "tblook01@hand": ("tblook01", "hand", {},
                      ("f0f5cde6f4fd5098", "7986069b5cf308d2",
                       "5900d114bc1c1852")),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(case, **kwargs):
    name, level, overrides, _ = CASES[case]
    program = compile_tir(get_workload(name), level=level).program
    proc = TripsProcessor(program, config=TripsConfig(**overrides),
                          **kwargs)
    stats = proc.run()
    return proc, stats


def _telemetry_digests(proc):
    return (_digest(proc.tel.summary().to_dict()),
            _digest(build_trace(proc.tel)))


def _critpath_digest(proc):
    return _digest(analyze_critical_path(proc.trace).row())


@pytest.mark.parametrize("case", CASES)
def test_telemetry_outputs_pinned(case):
    proc, _ = _run(case, telemetry=True)
    assert proc.trace is None
    assert _telemetry_digests(proc) == CASES[case][3][:2]


@pytest.mark.parametrize("case", CASES)
def test_critical_path_row_pinned(case):
    proc, _ = _run(case, trace=True)
    assert proc.tel is None
    assert _critpath_digest(proc) == CASES[case][3][2]


@pytest.mark.parametrize("case", CASES)
def test_trace_and_telemetry_together(case):
    """Both readers of the one record give their pinned outputs, and
    probing changes no ``ProcStats``."""
    proc, stats = _run(case, trace=True, telemetry=True)
    assert proc.tel.blocks is proc.trace.blocks
    assert _telemetry_digests(proc) + (_critpath_digest(proc),) \
        == CASES[case][3]
    _, bare = _run(case)
    assert stats.to_dict() == bare.to_dict()
