"""Each workload end to end at a tiny size, against the output contract
that BENCHMARK.json describes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.cases import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace, tmp_path):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                "1", "--trace", str(trace), "--smoke", "--out",
                str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == expected
    values = [m["value"] for m in line["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    results = list(tmp_path.glob(f"{workload}-seed1*.json"))
    assert len(results) == 1
    assert json.loads(results[0].read_text())["correct"] is True
    assert (tmp_path / f"trace-{workload}.json").exists() == bool(trace)
    # the child cleans up its scratch space
    assert not list(tmp_path.glob("work-*"))


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = _run(tmp_path, "--workload", "table3-l2perfect", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
