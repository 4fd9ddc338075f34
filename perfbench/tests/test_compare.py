"""compare.py's verdicts on synthetic result sets."""

import json

from perfbench import compare


def _result(sweep, seed=0, cycles=100, error_rate=0.0, trace=False,
            layers=None):
    return {"workload": "table3-nuca", "seed": seed, "smoke": False,
            "trace": trace,
            "metrics": {"sweep_s": {"value": sweep, "unit": "s"},
                        "error_rate": {"value": error_rate,
                                       "unit": "fraction"}},
            "counts": {"cycles": cycles},
            "layers": {name: {"value": value, "unit": "count"}
                       for name, value in (layers or {}).items()}}


def _write(directory, results):
    directory.mkdir()
    for i, result in enumerate(results):
        (directory / f"r{i}.json").write_text(json.dumps(result))
    return directory


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower",
                           0.10, True)[1] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower",
                           0.10, True)[1] == "REGRESSION"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower",
                           0.10, True)[1] == "better"
    noisy = [5.0, 10.0, 15.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10, True)[1] \
        == "unresolved"
    # a noisy set that got worse on every run is still a regression
    slower = [v + 20.0 for v in noisy]
    assert compare.verdict(noisy, slower, "lower", 0.10, True)[1] \
        == "REGRESSION"
    assert compare.verdict(slower, noisy, "higher", 0.10, True)[1] \
        == "REGRESSION"
    # overlapping runs stay unresolved, however far the medians move
    assert compare.verdict(noisy, [v * 2 for v in noisy], "lower", 0.10,
                           True)[1] == "unresolved"
    # absolute bounds: +0.10 percentage points of sampling error allowed
    assert compare.verdict([0.60], [0.65], "lower", 0.10, False)[1] == "ok"
    assert compare.verdict([0.60], [0.75], "lower", 0.10, False)[1] \
        == "REGRESSION"


def test_count_change_and_error_rise_fail(tmp_path, capsys):
    a = _write(tmp_path / "a", [_result(10.0, seed=s) for s in range(3)])
    same = _write(tmp_path / "b", [_result(10.1, seed=s) for s in range(3)])
    assert compare.main([str(a), str(same)]) == 0
    moved = _write(tmp_path / "c", [_result(10.0, seed=0, cycles=101)])
    assert compare.main([str(a), str(moved)]) == 1
    assert "COUNT CHANGED" in capsys.readouterr().out
    errors = _write(tmp_path / "d", [_result(10.0, error_rate=0.1)])
    assert compare.main([str(a), str(errors)]) == 1


def test_host_work_counts_may_move(tmp_path, capsys):
    def traced(calls, cycles=5000):
        result = _result(10.0, trace=True,
                         layers={"compiler.compile_tir_calls": calls,
                                 "uarch.cycles": cycles})
        result["layers"]["uarch.run_s"] = {"value": 1.0, "unit": "s"}
        return result
    a = _write(tmp_path / "a", [_result(10.0), traced(82)])
    fewer = _write(tmp_path / "b", [_result(10.0), traced(41)])
    assert compare.main([str(a), str(fewer)]) == 0
    out = capsys.readouterr().out
    assert "COUNT CHANGED" not in out
    assert "compiler.compile_tir_calls: 82 -> 41 (better)" in out
    # a simulated count is fixed by the work, so it must not move
    moved = _write(tmp_path / "c", [_result(10.0), traced(82, cycles=5001)])
    assert compare.main([str(a), str(moved)]) == 1
    assert "COUNT CHANGED" in capsys.readouterr().out
