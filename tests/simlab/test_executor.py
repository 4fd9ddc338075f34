"""Executor semantics: ordering, caching, retry, crash and timeout
recovery.  Fault injection uses the ``selftest`` spec kind, which flips a
flag file on its first attempt so the retry deterministically succeeds.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import suppress
from pathlib import Path

import pytest

import repro

from repro.metrics import FleetMetrics
from repro.metrics.events import read_events
from repro.sampling import SamplingConfig, run_sampled_workload
from repro.simlab import (ResultCache, RunSpec, SimlabError, execute_spec,
                          run_specs)
from repro.simlab.executor import resolve_workers


def _echo_specs(count):
    return [RunSpec.selftest(f"echo:{i}") for i in range(count)]


def _retries(fleet):
    """``(key, cause)`` of every retry event in a sweep's log."""
    return [(event["key"], event["cause"])
            for event in read_events(fleet.events.path)
            if event["event"] == "retry"]


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
        # a worker or thread left running would share the cores with the
        # caller's next call, and a worker forked beside a thread can hang
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        run_specs([RunSpec.selftest("ok")] * 2, workers=1)
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads

    def test_workers_have_ended_when_run_specs_raises(self, tmp_path):
        # the hung job's worker is busy when the failing job aborts the
        # sweep: it is killed, not left sleeping
        children = set(multiprocessing.active_children())
        with pytest.raises(SimlabError, match="failed after retry"):
            run_specs([RunSpec.selftest("fail-always"),
                       RunSpec.selftest(f"hang-once:{tmp_path / 'flag'}")],
                      workers=2)
        assert set(multiprocessing.active_children()) <= children


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
        # first attempt kills its worker process outright; the worker's
        # pipe closes, and that worker is replaced and the job re-run
        flag = tmp_path / "crash-once.flag"
        results = run_specs([RunSpec.selftest(f"crash-once:{flag}"),
                             RunSpec.selftest("ok")], workers=2)
        assert results[0]["retried"] is True
        assert results[1]["ok"] is True

    def test_hung_job_times_out_and_retries(self, tmp_path):
        # first attempt sleeps forever; at the timeout its worker is
        # killed, and the retry (flag now set) completes immediately
        flag = tmp_path / "hang-once.flag"
        results = run_specs([RunSpec.selftest(f"hang-once:{flag}")],
                            workers=1, timeout=2.0)
        assert results[0]["retried"] is True


class TestFaultAttribution:
    """Each worker holds one job, so a fault is charged to the job that
    caused it, and no other job loses its one retry."""

    def test_one_crash_costs_one_retry(self, tmp_path):
        for sweep in range(10):
            crash = RunSpec.selftest(
                f"crash-once:{tmp_path / f'crash-{sweep}.flag'}")
            fleet = FleetMetrics.for_cache_dir(tmp_path / f"sweep-{sweep}")
            results = run_specs(_echo_specs(4) + [crash], workers=2,
                                metrics=fleet)
            assert _retries(fleet) == [(crash.key, "crash")], sweep
            assert results[4]["retried"] is True

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_crash_and_a_failure_both_survive(self, tmp_path, method):
        saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            for sweep in range(3):
                crash = RunSpec.selftest(
                    f"crash-once:{tmp_path / f'crash-{sweep}.flag'}")
                fail = RunSpec.selftest(
                    f"fail-once:{tmp_path / f'fail-{sweep}.flag'}")
                fleet = FleetMetrics.for_cache_dir(tmp_path / f"s{sweep}")
                results = run_specs([crash, fail] + _echo_specs(3),
                                    workers=2, metrics=fleet)
                assert sorted(_retries(fleet)) == sorted(
                    [(crash.key, "crash"), (fail.key, "exception")])
                assert results[0]["retried"] and results[1]["retried"]
                assert [r["value"] for r in results[2:]] == ["0", "1", "2"]
        finally:
            multiprocessing.set_start_method(saved, force=True)

    def test_crash_retry_names_the_exit_status(self, tmp_path):
        crash = RunSpec.selftest(f"crash-once:{tmp_path / 'crash.flag'}")
        lines = []
        run_specs([crash, RunSpec.selftest("ok")], workers=2,
                  log=lines.append)
        retries = [line for line in lines if " retry " in line]
        assert len(retries) == 1
        assert crash.label in retries[0]
        assert "worker exited with code 13" in retries[0]

    def test_no_thread_is_alive_when_a_worker_starts(self, tmp_path,
                                                     monkeypatch):
        # a process forked while another thread runs can inherit a lock
        # that no thread will ever release
        counts = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            counts.append(threading.active_count())
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting_start)
        for sweep in range(5):
            crash = RunSpec.selftest(
                f"crash-once:{tmp_path / f'crash-{sweep}.flag'}")
            run_specs([crash] + _echo_specs(4), workers=2)
        assert counts and counts == [1] * len(counts)

    def test_a_hang_is_charged_to_the_hung_job_only(self, tmp_path):
        hang = RunSpec.selftest(f"hang-once:{tmp_path / 'hang.flag'}")
        fleet = FleetMetrics.for_cache_dir(tmp_path)
        results = run_specs([hang] + _echo_specs(3), workers=2,
                            timeout=2.0, metrics=fleet)
        assert _retries(fleet) == [(hang.key, "timeout")]
        assert results[0]["retried"] is True
        assert [r["value"] for r in results[1:]] == ["0", "1", "2"]

    def test_persistent_failure_carries_the_worker_traceback(self):
        with pytest.raises(SimlabError, match="failed after retry") as info:
            run_specs([RunSpec.selftest("fail-always"),
                       RunSpec.selftest("ok")], workers=2)
        assert "deliberate persistent failure" in str(info.value)
        worker = str(info.value.__cause__)       # the worker's traceback
        assert "Traceback (most recent call last)" in worker
        assert "in _selftest" in worker


_KILLED_SWEEP = """
import multiprocessing
import sys

from repro.metrics import FleetMetrics
from repro.metrics.events import EventLog
from repro.simlab import RunSpec, run_specs

if __name__ == "__main__":
    method, flag, log = sys.argv[1:]
    multiprocessing.set_start_method(method)
    run_specs([RunSpec.selftest("hang-once:" + flag),
               RunSpec.selftest("echo:x")],
              workers=2, metrics=FleetMetrics(events=EventLog(log)))
"""


def _running(pid):
    """Whether ``pid`` still runs (an exited process whose new parent does
    not reap it lingers as a zombie, which counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestOrphanedWorkers:
    """A sweep process killed outright leaves no idle worker behind."""

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_idle_worker_exits_after_the_sweep_is_killed(self, tmp_path,
                                                          method):
        script = tmp_path / "sweep.py"
        script.write_text(_KILLED_SWEEP)
        flag, log = tmp_path / "hang.flag", tmp_path / "events.jsonl"
        hang = RunSpec.selftest(f"hang-once:{flag}")
        echo = RunSpec.selftest("echo:x")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        sweep = subprocess.Popen(
            [sys.executable, str(script), method, str(flag), str(log)],
            env=env)
        starts = {}
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                events = list(read_events(log)) if log.exists() else []
                starts = {e["key"]: e["pid"] for e in events
                          if e["event"] == "start"}
                if len(starts) == 2 and any(
                        e["event"] == "finish" and e["key"] == echo.key
                        for e in events):
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"the sweep never reached its hang: {starts}")
            sweep.kill()
            sweep.wait(timeout=10)
            idle = starts[echo.key]
            gone_by = time.monotonic() + 10
            while _running(idle) and time.monotonic() < gone_by:
                time.sleep(0.05)
            assert not _running(idle), \
                f"idle worker {idle} outlived the killed sweep"
        finally:
            sweep.kill()
            sweep.wait(timeout=10)
            if hang.key in starts:      # the hung worker sleeps on
                with suppress(ProcessLookupError):
                    os.kill(starts[hang.key], signal.SIGKILL)


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
