"""A pin that does not match is a failed operation, not a crash."""

import copy

from perfbench.workloads import Table3Bench, load_pins


def test_wrong_pin_counts_in_error_rate(tmp_path):
    pins = copy.deepcopy(load_pins())
    pins["table3"]["l2perfect"]["cases"]["sha@hand"]["procstats_sha256"] = \
        "0" * 64
    del pins["outputs"]["cases"]["vadd@tcc"]
    bench = Table3Bench("table3-l2perfect", 0, True, tmp_path, pins=pins)
    bench.setup()
    bench.run(seconds=0)
    result = bench.result()
    passes = result["passes"]
    assert passes == 2
    assert result["attempted"] == 3 * passes
    assert result["failed"] == 2 * passes
    assert not result["correct"]
    assert result["metrics"]["error_rate"]["value"] == 2 / 3
    assert any("sha@hand: ProcStats differ" in f for f in result["failures"])
    assert any("vadd@tcc: no pin" in f for f in result["failures"])
    # the case that still matches its pins is measured as usual
    assert [row["case"] for row in result["cases"]] == \
        ["wheel_deferred_wake@tcc"]
