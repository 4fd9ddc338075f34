"""Executor instrumentation: results never change, counters tell the
truth.  Fault injection reuses the executor's own ``selftest`` specs."""

import pytest

from repro.metrics import FleetMetrics, MetricsRegistry
from repro.metrics.events import check_events, read_events, replay_into
from repro.simlab import ResultCache, RunSpec, SimlabError, run_specs


def _echo_specs(count):
    return [RunSpec.selftest(f"echo:{i}") for i in range(count)]


class TestResultsUnchanged:
    def test_serial_results_identical_with_metrics(self, tmp_path):
        bare = run_specs(_echo_specs(4))
        fleet = FleetMetrics.for_cache_dir(tmp_path)
        observed = run_specs(_echo_specs(4), metrics=fleet)
        assert observed == bare

    def test_parallel_and_cached_results_identical(self, tmp_path):
        bare = run_specs(_echo_specs(3), workers=2)
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        cache = ResultCache(tmp_path / "c")
        first = run_specs(_echo_specs(3), workers=2, cache=cache,
                          metrics=fleet)
        second = run_specs(_echo_specs(3), workers=2, cache=cache,
                           metrics=fleet)
        assert first == bare
        assert second == bare


class TestCounters:
    def test_miss_then_hit_sweeps(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        cache = ResultCache(tmp_path / "c")
        run_specs(_echo_specs(3), cache=cache, metrics=fleet)
        counts = fleet.counts()
        assert counts["done"] == 3 and counts["cache_hits"] == 0
        assert cache.misses == 3
        run_specs(_echo_specs(3), cache=cache, metrics=fleet)
        counts = fleet.counts()
        assert counts["done"] == 3 and counts["cache_hits"] == 3
        assert cache.hits == 3

    def test_job_seconds_histogram_fills(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path)
        run_specs(_echo_specs(2), metrics=fleet)
        assert fleet.job_seconds.snapshot_child(())["count"] == 2

    def test_live_counters_are_the_replay(self, tmp_path):
        # a cold parallel sweep with a worker crash, then a warm one: what
        # the sweep process counted is what `simlab metrics` replays
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        cache = ResultCache(tmp_path / "c")
        specs = _echo_specs(4) + [
            RunSpec.selftest(f"crash-once:{tmp_path / 'crash-once.flag'}")]
        run_specs(specs, workers=2, cache=cache, metrics=fleet)
        run_specs(specs, workers=2, cache=cache, metrics=fleet)
        assert fleet.counts()["crashes"] == 1
        replayed = replay_into(MetricsRegistry(),
                               read_events(fleet.events.path))
        for name in ("simlab_jobs_total", "simlab_job_retries_total",
                     "simlab_sweeps_total"):
            live = fleet.registry.get(name)
            assert live is not None, name
            assert list(live.samples()) \
                == list(replayed.get(name).samples()), name
        live = dict(fleet.registry.get("simlab_job_seconds").samples())
        replay = dict(replayed.get("simlab_job_seconds").samples())
        assert live.keys() == replay.keys()
        for key, snap in live.items():
            assert snap["count"] == replay[key]["count"] == 5
            assert snap["buckets"] == replay[key]["buckets"]
            assert snap["sum"] == pytest.approx(replay[key]["sum"],
                                                abs=1e-9)


class TestEventLog:
    def test_serial_sweep_log_validates(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        cache = ResultCache(tmp_path / "c")
        run_specs(_echo_specs(2), cache=cache, metrics=fleet)
        assert check_events(fleet.events.path) == []
        names = [e["event"] for e in read_events(fleet.events.path)]
        assert names[0] == "sweep_begin" and names[-1] == "sweep_end"
        assert names.count("submit") == 2
        assert names.count("start") == 2
        assert names.count("finish") == 2

    def test_parallel_workers_emit_their_own_events(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path)
        run_specs(_echo_specs(4), workers=2, metrics=fleet)
        assert check_events(fleet.events.path) == []
        events = list(read_events(fleet.events.path))
        parent_pid = next(e["pid"] for e in events
                          if e["event"] == "sweep_begin")
        worker_pids = {e["pid"] for e in events if e["event"] == "start"}
        assert worker_pids and parent_pid not in worker_pids

    def test_metrics_without_event_log_still_counts(self):
        fleet = FleetMetrics()                   # registry only, no log
        run_specs(_echo_specs(2), metrics=fleet)
        assert fleet.counts()["done"] == 2


class TestFaults:
    def test_exception_retry_counted(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        flag = tmp_path / "fail-once.flag"
        run_specs([RunSpec.selftest(f"fail-once:{flag}")], metrics=fleet)
        counts = fleet.counts()
        assert counts["retries"] == 1 and counts["done"] == 1
        assert fleet.retries.value(cause="exception") == 1
        assert check_events(fleet.events.path) == []

    def test_crash_retry_counted(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        flag = tmp_path / "crash-once.flag"
        run_specs([RunSpec.selftest(f"crash-once:{flag}")], workers=1,
                  metrics=fleet)
        assert fleet.counts() == {"done": 1, "cache_hits": 0,
                                  "failed": 0, "retries": 1,
                                  "timeouts": 0, "crashes": 1}
        assert check_events(fleet.events.path) == []

    def test_timeout_retry_counted(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        flag = tmp_path / "hang-once.flag"
        run_specs([RunSpec.selftest(f"hang-once:{flag}")], workers=1,
                  timeout=2.0, metrics=fleet)
        counts = fleet.counts()
        assert counts["timeouts"] == 1 and counts["done"] == 1

    def test_persistent_failure_counted_before_raise(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path / "c")
        with pytest.raises(SimlabError):
            run_specs([RunSpec.selftest("fail-always")], metrics=fleet)
        counts = fleet.counts()
        assert counts["failed"] == 1 and counts["retries"] == 1
        events = [e["event"] for e in read_events(fleet.events.path)]
        assert "fail" in events
        assert events[-1] == "sweep_end"         # emitted even on abort
