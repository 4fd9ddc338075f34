"""Tests for the experiment harness."""

import pytest

from repro.harness import (
    render_table,
    run_baseline_workload,
    run_trips_workload,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.harness import runner
from repro.harness.runner import ValidationError
from repro.tir import Assign, Const, TirProgram, V
from repro.uarch.config import TripsConfig


class TestRunner:
    def test_run_trips_validates(self):
        run = run_trips_workload("vadd", level="hand")
        assert run.cycles > 0
        assert run.ipc > 0
        assert run.stats.blocks_committed > 0

    def test_run_baseline_validates(self):
        run = run_baseline_workload("vadd")
        assert run.cycles > 0

    def test_accepts_tir_program_directly(self):
        prog = TirProgram("tiny", scalars={"x": 0},
                          body=[Assign("x", Const(41) + 1)], outputs=["x"])
        run = run_trips_workload(prog, level="tcc")
        assert run.name == "tiny"

    def test_compare_has_both_levels(self):
        # the paper's speedup: baseline cycles over TRIPS cycles
        alpha = run_baseline_workload("vadd")
        tcc = run_trips_workload("vadd", level="tcc")
        hand = run_trips_workload("vadd", level="hand")
        assert alpha.cycles / tcc.cycles > 0
        assert alpha.cycles / hand.cycles > alpha.cycles / tcc.cycles
        assert alpha.ipc > 0

    def test_trace_flag_collects_events(self):
        run = run_trips_workload("qr", level="hand", trace=True)
        assert run.proc.trace is not None
        assert len(run.proc.trace.blocks) > 0


class TestValidationPaths:
    """A deliberately-corrupted compiled program must fail co-validation.

    Corruption model: shift every output array's extraction address by
    one element after compilation.  The simulation itself is untouched —
    only the architectural outputs the harness extracts diverge from the
    interpreter's golden results, which is exactly the divergence the
    validation discipline exists to catch.
    """

    @staticmethod
    def _shift_addrs(compiled, tir):
        compiled.array_addrs = {
            name: addr + tir.arrays[name].elem_size
            for name, addr in compiled.array_addrs.items()}
        return compiled

    def test_corrupted_trips_program_raises(self, monkeypatch):
        real = runner.compile_tir

        def corrupting(tir, level="tcc", **kwargs):
            return self._shift_addrs(real(tir, level=level, **kwargs), tir)

        monkeypatch.setattr(runner, "compile_tir", corrupting)
        with pytest.raises(ValidationError, match="diverge from golden"):
            run_trips_workload("vadd", level="hand")

    def test_corrupted_trips_program_passes_unvalidated(self, monkeypatch):
        real = runner.compile_tir

        def corrupting(tir, level="tcc", **kwargs):
            return self._shift_addrs(real(tir, level=level, **kwargs), tir)

        monkeypatch.setattr(runner, "compile_tir", corrupting)
        run = run_trips_workload("vadd", level="hand", validate=False)
        assert run.cycles > 0

    def test_corrupted_baseline_program_raises(self, monkeypatch):
        real = runner.compile_srisc

        def corrupting(tir):
            program = real(tir)
            program.array_addrs = {
                name: addr + tir.arrays[name].elem_size
                for name, addr in program.array_addrs.items()}
            return program

        monkeypatch.setattr(runner, "compile_srisc", corrupting)
        with pytest.raises(ValidationError, match="diverge from golden"):
            run_baseline_workload("vadd")

    def test_corrupted_baseline_program_passes_unvalidated(
            self, monkeypatch):
        real = runner.compile_srisc

        def corrupting(tir):
            program = real(tir)
            program.array_addrs = {
                name: addr + tir.arrays[name].elem_size
                for name, addr in program.array_addrs.items()}
            return program

        monkeypatch.setattr(runner, "compile_srisc", corrupting)
        run = run_baseline_workload("vadd", validate=False)
        assert run.cycles > 0


class TestTables:
    def test_table1_shape(self):
        rows = table1_rows()
        assert rows[0]["Tile"] == "GT"
        assert rows[-1]["Tile"] == "Chip Total"

    def test_table2_shape(self):
        rows = table2_rows()
        assert len(rows) == 8

    def test_table3_single_row(self):
        rows = table3_rows(["qr"])
        row = rows[0]
        assert row["Benchmark"] == "qr"
        overhead = sum(row[k] for k in
                       ("IFetch", "OPN Hops", "OPN Cont.", "Fanout Ops",
                        "Block Complete", "Block Commit", "Other"))
        assert abs(overhead - 100.0) < 0.5
        assert row["Speedup Hand"] is not None

    def test_table3_spec_has_no_hand_column(self):
        rows = table3_rows(["mcf"])
        assert rows[0]["Speedup Hand"] is None
        assert rows[0]["IPC Hand"] is None

    def test_render_table(self):
        text = render_table([{"A": 1, "B": None}, {"A": 2.5, "B": "x"}],
                            title="T")
        assert "T" in text and "—" in text and "2.50" in text

    def test_table3_with_ablation_config(self):
        rows = table3_rows(["qr"], config=TripsConfig(speculative_blocks=0),
                           include_performance=False)
        assert "Speedup TCC" not in rows[0]
