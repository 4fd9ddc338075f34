"""Span arithmetic and the layer wrappers."""

import pytest

from perfbench.trace import (Instrumentation, Tracer, layer_metrics,
                             self_by_name, self_times, wall_rows)

#: root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
TREE = [["perfbench", 0.0, 10.0, None], ["uarch.run", 1.0, 4.0, 0],
        ["uarch.init", 2.0, 3.0, 1], ["table3.case", 5.0, 9.0, 0]]


def test_self_times_sum_to_each_parent():
    own = self_times(TREE)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == TREE[0][2] - TREE[0][1]
    # a parent's self time plus its descendants' equals its duration
    assert own[1] + own[2] == TREE[1][2] - TREE[1][1]


def test_rows_fold_perfbench_spans_into_other():
    rows = wall_rows(TREE)
    assert rows == {"other": 7.0, "uarch.run": 2.0, "uarch.init": 1.0}
    assert sum(rows.values()) == pytest.approx(10.0)


def test_tracer_nests_and_rejects_out_of_order_ends():
    tracer = Tracer()
    root = tracer.begin("perfbench")
    with tracer.span("uarch.run"):
        inner = tracer.begin("uarch.init")
        tracer.end(inner)
    tracer.end(root)
    assert [span[3] for span in tracer.spans] == [None, 0, 1]
    own = self_by_name(tracer.spans)
    assert sum(own.values()) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])
    outer, nested = tracer.begin("a"), tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(outer)
    del nested


def test_wrappers_count_at_the_boundary_and_restore_originals():
    from repro.compiler import compile_tir
    from repro.uarch.proc import TripsProcessor
    from repro.workloads import get_workload

    original = TripsProcessor.run
    program = compile_tir(get_workload("vadd"), level="hand").program
    tracer = Tracer()
    root = tracer.begin("perfbench")
    with Instrumentation(tracer):
        assert TripsProcessor.run is not original
        stats = TripsProcessor(program).run()
    tracer.end(root)
    assert TripsProcessor.run is original
    layers = layer_metrics(tracer)
    assert layers["uarch.cycles"] == (stats.cycles, "count")
    assert layers["uarch.blocks_committed"][0] == stats.blocks_committed
    rows = wall_rows(tracer.spans)
    assert set(rows) == {"other", "uarch.init", "uarch.run"}
    assert sum(rows.values()) == pytest.approx(layers["traced_wall_s"][0])
