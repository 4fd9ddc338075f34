"""``python -m repro.fuzz run`` reports a failed shard instead of crashing."""

import repro.fuzz.oracle
from repro.fuzz.__main__ import main


def test_failed_shard_is_reported_and_exits_1(monkeypatch, capsys):
    def run_shard(config):
        raise RuntimeError("injected shard failure")

    # the executor imports run_shard when a fuzz job starts
    monkeypatch.setattr(repro.fuzz.oracle, "run_shard", run_shard)
    assert main(["run", "--seed", "3", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fuzz:seeds[3:5]" in captured.err
    assert "injected shard failure" in captured.err
    assert "Traceback" not in captured.err
