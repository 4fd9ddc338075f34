"""Executor semantics: ordering, caching, retry, crash and timeout
recovery.  Fault injection uses the ``selftest`` spec kind, which flips a
flag file on its first attempt so the retry deterministically succeeds.
"""

import multiprocessing
import threading

import pytest

from repro.sampling import SamplingConfig, run_sampled_workload
from repro.simlab import (ResultCache, RunSpec, SimlabError, execute_spec,
                          run_specs)
from repro.simlab.executor import resolve_workers


def _echo_specs(count):
    return [RunSpec.selftest(f"echo:{i}") for i in range(count)]


class TestOrdering:
    def test_serial_results_align_with_specs(self):
        results = run_specs(_echo_specs(5))
        assert [r["value"] for r in results] == [str(i) for i in range(5)]

    def test_parallel_results_align_with_specs(self):
        results = run_specs(_echo_specs(8), workers=4)
        assert [r["value"] for r in results] == [str(i) for i in range(8)]

    def test_parallel_equals_serial(self):
        serial = run_specs(_echo_specs(6), workers=0)
        parallel = run_specs(_echo_specs(6), workers=3)
        assert serial == parallel

    def test_resolve_workers(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(5) == 5
        assert resolve_workers(None) >= 1


class TestTeardown:
    def test_pool_has_ended_when_run_specs_returns(self):
        # a worker or pool thread left running would share the cores with
        # the caller's next call, and a pool forked beside it can hang
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        run_specs([RunSpec.selftest("ok")] * 2, workers=1)
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads


class TestCaching:
    def test_second_sweep_is_pure_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        specs = _echo_specs(4)
        first = run_specs(specs, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        second = run_specs(specs, cache=cache)
        assert second == first
        assert cache.hits == 4 and cache.misses == 4

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        specs = _echo_specs(3)
        first = run_specs(specs, workers=2, cache=cache)
        assert cache.misses == 3
        second = run_specs(specs, workers=0, cache=cache)
        assert second == first
        assert cache.misses == 3      # nothing re-simulated

    def test_progress_log_reports_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        lines = []
        run_specs(_echo_specs(2), cache=cache, log=lines.append)
        assert sum("done" in line for line in lines) == 2
        lines.clear()
        run_specs(_echo_specs(2), cache=cache, log=lines.append)
        assert sum("hit" in line for line in lines) == 2


class TestRetry:
    def test_serial_retries_a_failure_once(self, tmp_path):
        flag = tmp_path / "fail-once.flag"
        results = run_specs([RunSpec.selftest(f"fail-once:{flag}")])
        assert results[0]["retried"] is True

    def test_serial_persistent_failure_raises(self):
        with pytest.raises(SimlabError, match="failed after retry"):
            run_specs([RunSpec.selftest("fail-always")])

    def test_parallel_retries_a_failure_once(self, tmp_path):
        flag = tmp_path / "fail-once.flag"
        results = run_specs([RunSpec.selftest(f"fail-once:{flag}"),
                             RunSpec.selftest("ok")], workers=2)
        assert results[0]["retried"] is True
        assert results[1]["ok"] is True

    def test_parallel_persistent_failure_raises(self):
        with pytest.raises(SimlabError, match="failed after retry"):
            run_specs([RunSpec.selftest("fail-always")], workers=2)

    def test_worker_crash_is_retried(self, tmp_path):
        # first attempt kills the worker process outright
        # (BrokenProcessPool); the pool is rebuilt and the job re-run
        flag = tmp_path / "crash-once.flag"
        results = run_specs([RunSpec.selftest(f"crash-once:{flag}"),
                             RunSpec.selftest("ok")], workers=2)
        assert results[0]["retried"] is True
        assert results[1]["ok"] is True

    def test_hung_job_times_out_and_retries(self, tmp_path):
        # first attempt sleeps forever; the per-job timeout terminates
        # the pool, and the retry (flag now set) completes immediately
        flag = tmp_path / "hang-once.flag"
        results = run_specs([RunSpec.selftest(f"hang-once:{flag}")],
                            workers=1, timeout=2.0)
        assert results[0]["retried"] is True


class TestValidation:
    def test_unknown_kind_rejected(self):
        from repro.simlab import execute_spec
        with pytest.raises(SimlabError, match="unknown spec kind"):
            execute_spec(RunSpec(kind="warp-drive", workload="x"))

    def test_unknown_selftest_mode_rejected(self):
        from repro.simlab import execute_spec
        with pytest.raises(SimlabError, match="unknown selftest mode"):
            execute_spec(RunSpec.selftest("no-such-mode"))


class TestSampledSpec:
    """A ``RunSpec`` with a sampling geometry runs the sampled tier."""

    SAMPLING = SamplingConfig(interval_blocks=800, warmup_blocks=80,
                              measure_blocks=120, clustering=True,
                              phase_windows=10, warm_horizon=400)

    def test_sampled_spec_records_the_sampler_result(self):
        spec = RunSpec.trips("mcf", level="tcc", size=8,
                             sampling=self.SAMPLING)
        assert spec.sampling_config() == self.SAMPLING
        result = execute_spec(spec)
        run = run_sampled_workload("mcf", level="tcc", size=8,
                                   sampling=self.SAMPLING)
        assert result["sampled"] == run.sampled.to_dict()
        assert result["fallback_blocks"] == 0
        assert "stats" not in result and "telemetry_windows" not in result

    def test_sampled_spec_with_telemetry(self):
        spec = RunSpec.trips("mcf", level="tcc", size=8, telemetry=True,
                             sampling=SamplingConfig(interval_blocks=800,
                                                     warmup_blocks=80,
                                                     measure_blocks=120))
        result = execute_spec(spec)
        assert "phases" not in result["sampled"]
        assert len(result["telemetry_windows"]) \
            == result["sampled"]["windows"]
