"""Benchmark-report provenance: enough context to compare reports."""

import json

from repro.harness.sbench import provenance, run_sampling_bench
from repro.sampling import SamplingConfig


def test_provenance_fields():
    info = provenance()
    assert info["host"]
    assert info["platform"]
    assert info["python"].count(".") == 2
    assert info["git_rev"]                 # short hash or "unknown"
    assert info["created_utc"].endswith("Z")
    assert info["config"]["fast_path"] is True


def test_bench_report_carries_provenance(tmp_path):
    out = tmp_path / "sbench.json"
    case = ("mcf", 2, SamplingConfig(interval_blocks=1200, warmup_blocks=60,
                                     measure_blocks=100))
    report = run_sampling_bench(cases=[case], out=str(out))
    on_disk = json.loads(out.read_text())
    assert on_disk == report
    for field in ("host", "platform", "python", "git_rev",
                  "created_utc", "config"):
        assert field in report, field
    assert report["config"] == provenance()["config"]
