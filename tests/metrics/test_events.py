"""The event log: emit/read round trips, schema gate, replay."""

import json
import os

import pytest

from repro.metrics import (
    EventLog,
    FleetMetrics,
    MetricsRegistry,
    default_events_path,
)
from repro.metrics.events import (
    SCHEMA,
    check_events,
    read_events,
    replay_into,
    validate_event,
)


def _write_sweep(log):
    log.emit("sweep_begin", jobs=2, workers=1)
    log.emit("submit", key="k1", label="trips:vadd", kind="trips")
    log.emit("cache_hit", key="k2", label="baseline:vadd")
    log.emit("queued", key="k1")
    log.emit("start", key="k1")
    log.emit("finish", key="k1", elapsed_s=0.25)
    log.emit("sweep_end", jobs=2, done=1, cache_hits=1, retries=0,
             failed=0, elapsed_s=0.3)


class TestEventLog:
    def test_round_trip_and_envelope(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        _write_sweep(log)
        events = list(read_events(log.path))
        assert [e["event"] for e in events] == [
            "sweep_begin", "submit", "cache_hit", "queued", "start",
            "finish", "sweep_end"]
        for event in events:
            assert event["schema"] == SCHEMA
            assert event["pid"] == os.getpid()
            assert isinstance(event["ts"], float)

    def test_unknown_event_rejected(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(ValueError, match="unknown event"):
            log.emit("teleport", key="k")

    def test_read_skips_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path).emit("queued", key="k1")
        EventLog(path).emit("queued", key="k2")
        with open(path, "a") as fh:
            fh.write('{"schema":1,"ts":1.0,"event":"sta')   # mid-write
        keys = [e["key"] for e in read_events(path)]
        assert keys == ["k1", "k2"]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert list(read_events(tmp_path / "nope.jsonl")) == []

    def test_default_path_sits_next_to_cache(self, tmp_path):
        assert default_events_path(tmp_path) \
            == tmp_path / "events.jsonl"


class TestValidation:
    def test_emitted_events_validate(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        _write_sweep(log)
        assert check_events(log.path) == []

    def test_schema_mismatch(self):
        errors = validate_event({"schema": 99, "ts": 1.0, "pid": 1,
                                 "event": "queued", "key": "k"})
        assert any("schema" in e for e in errors)

    def test_missing_required_field(self):
        errors = validate_event({"schema": SCHEMA, "ts": 1.0, "pid": 1,
                                 "event": "finish", "key": "k"})
        assert any("elapsed_s" in e for e in errors)

    def test_bad_retry_cause(self):
        errors = validate_event({"schema": SCHEMA, "ts": 1.0, "pid": 1,
                                 "event": "retry", "key": "k",
                                 "cause": "gremlins"})
        assert any("bad cause" in e for e in errors)

    def test_check_flags_each_bad_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps({"schema": SCHEMA, "ts": 1.0, "pid": 1,
                           "event": "queued", "key": "k"})
        path.write_text(good + "\nnot json\n"
                        + '{"schema":1,"event":"teleport"}\n')
        errors = check_events(path)
        assert any(e.startswith("line 2:") for e in errors)
        assert any(e.startswith("line 3:") for e in errors)
        assert not any(e.startswith("line 1:") for e in errors)

    def test_check_empty_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert check_events(path) == ["event log is empty"]


class TestReplay:
    def test_replay_rebuilds_fleet_counters(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        _write_sweep(log)
        log.emit("retry", key="k1", cause="timeout")
        log.emit("fail", key="k1", error="RuntimeError('x')")
        registry = replay_into(MetricsRegistry(), read_events(log.path))
        jobs = registry.get("simlab_jobs_total")
        assert jobs.value(outcome="done") == 1
        assert jobs.value(outcome="cache_hit") == 1
        assert jobs.value(outcome="failed") == 1
        assert registry.get("simlab_job_retries_total") \
            .value(cause="timeout") == 1
        assert registry.get("simlab_sweeps_total").value() == 1
        seconds = registry.get("simlab_job_seconds").snapshot_child(())
        assert seconds["count"] == 1
        assert seconds["sum"] == pytest.approx(0.25)

    def test_replay_aggregates_across_sweeps(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        _write_sweep(log)
        _write_sweep(log)
        registry = replay_into(MetricsRegistry(), read_events(log.path))
        assert registry.get("simlab_sweeps_total").value() == 2
        assert registry.get("simlab_jobs_total").total() == 4


class TestFleetMetrics:
    def test_counts_reads_back_the_registry(self):
        fleet = FleetMetrics()
        fleet.emit("finish", key="k1", elapsed_s=0.5)
        fleet.emit("cache_hit", key="k2", label="trips:vadd")
        fleet.emit("retry", key="k3", cause="timeout")
        fleet.emit("retry", key="k3", cause="exception")
        counts = fleet.counts()
        assert counts == {"done": 1, "cache_hits": 1, "failed": 0,
                          "retries": 2, "timeouts": 1, "crashes": 0}

    def test_emit_without_log_is_a_no_op(self):
        FleetMetrics().emit("queued", key="k")   # must not raise

    def test_for_cache_dir_wires_the_log(self, tmp_path):
        fleet = FleetMetrics.for_cache_dir(tmp_path)
        assert fleet.events_path == str(tmp_path / "events.jsonl")
        fleet.emit("queued", key="k")
        assert check_events(fleet.events.path) == []
