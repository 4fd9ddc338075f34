"""The watch dashboard: folding events into frames, CLI behaviour."""

import io
import json

from repro.metrics import EventLog
from repro.metrics.events import SCHEMA, read_events
from repro.metrics.watch import frame_state, render_frame, watch


def _sweep_events(tmp_path, finish=True):
    log = EventLog(tmp_path / "events.jsonl")
    log.emit("sweep_begin", jobs=3, workers=2)
    log.emit("cache_hit", key="k0", label="trips:hit")
    log.emit("submit", key="k1", label="trips:one", kind="trips")
    log.emit("submit", key="k2", label="trips:two", kind="trips")
    log.emit("queued", key="k1")
    log.emit("queued", key="k2")
    log.emit("start", key="k1")
    log.emit("finish", key="k1", elapsed_s=0.5)
    log.emit("start", key="k2")
    if finish:
        log.emit("finish", key="k2", elapsed_s=0.7)
        log.emit("sweep_end", jobs=3, done=2, cache_hits=1, retries=0,
                 failed=0, elapsed_s=1.3)
    return log


class TestFrameState:
    def test_finished_sweep(self, tmp_path):
        log = _sweep_events(tmp_path)
        state = frame_state(list(read_events(log.path)))
        assert state["sweep_done"] is True
        assert state["total"] == 3
        assert state["cache_hits"] == 1
        assert state["by_state"] == {"cache_hit": 1, "done": 2}
        assert state["remaining"] == 0
        assert state["sweep_elapsed"] == 1.3
        assert sorted(state["latencies"]) == [0.5, 0.7]
        assert state["running"] == []

    def test_inflight_sweep_shows_busy_worker(self, tmp_path):
        log = _sweep_events(tmp_path, finish=False)
        state = frame_state(list(read_events(log.path)))
        assert state["sweep_done"] is False
        assert state["remaining"] == 1
        assert len(state["running"]) == 1
        assert state["running"][0]["label"] == "trips:two"
        # one finished job is below the minimum ETA sample count
        assert state["eta_s"] is None

    def test_eta_after_two_latency_samples(self, tmp_path):
        log = _sweep_events(tmp_path)
        log.emit("sweep_begin", jobs=4, workers=2)
        log.emit("submit", key="a", label="a", kind="trips")
        log.emit("submit", key="b", label="b", kind="trips")
        log.emit("submit", key="c", label="c", kind="trips")
        log.emit("submit", key="d", label="d", kind="trips")
        log.emit("finish", key="a", elapsed_s=2.0)
        log.emit("finish", key="b", elapsed_s=4.0)
        state = frame_state(list(read_events(log.path)))
        # 2 jobs left x p50 (4.0s, upper median) / 2 workers
        assert state["eta_s"] == 4.0
        assert state["remaining"] == 2

    def test_only_latest_sweep_is_folded(self, tmp_path):
        log = _sweep_events(tmp_path)           # sweep 1: 3 jobs
        log.emit("sweep_begin", jobs=1, workers=1)
        log.emit("cache_hit", key="k1", label="trips:one")
        state = frame_state(list(read_events(log.path)))
        assert state["total"] == 1              # not 3
        assert state["cache_hits"] == 1
        assert state["events"] > state["sweep_events"]

    def test_retry_and_fault_counters(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("sweep_begin", jobs=1, workers=1)
        log.emit("submit", key="k", label="trips:x", kind="trips")
        log.emit("retry", key="k", cause="timeout")
        log.emit("retry", key="k", cause="crash")
        log.emit("fail", key="k", error="RuntimeError('x')")
        state = frame_state(list(read_events(log.path)))
        assert state["retries"] == 2
        assert state["timeouts"] == 1
        assert state["crashes"] == 1
        assert state["failed"] == 1


    def test_a_faulted_worker_is_not_left_running(self, tmp_path):
        # two workers; crash-once dies on pid 11 and its retry runs on a
        # third, fresh worker (pid 13): only the parent (pid 1) logs the
        # crash, so pid 11 never writes a finish of its own
        path = tmp_path / "events.jsonl"
        records = [
            (1, "sweep_begin", {"jobs": 2, "workers": 2}),
            (1, "submit", {"key": "c", "label": "selftest:crash-once",
                           "kind": "selftest"}),
            (1, "submit", {"key": "e", "label": "selftest:echo",
                           "kind": "selftest"}),
            (1, "queued", {"key": "c"}), (1, "queued", {"key": "e"}),
            (11, "start", {"key": "c"}), (12, "start", {"key": "e"}),
            (12, "finish", {"key": "e", "elapsed_s": 0.1}),
            (1, "retry", {"key": "c", "cause": "crash"}),
            (1, "queued", {"key": "c"}),
            (13, "start", {"key": "c"}),
            (13, "finish", {"key": "c", "elapsed_s": 0.1}),
            (1, "sweep_end", {"jobs": 2, "done": 2, "cache_hits": 0,
                              "retries": 1, "failed": 0, "elapsed_s": 0.5}),
        ]
        path.write_text("".join(
            json.dumps({"schema": SCHEMA, "ts": 1000.0 + i, "event": event,
                        "pid": pid, **fields}) + "\n"
            for i, (pid, event, fields) in enumerate(records)))
        state = frame_state(list(read_events(path)))
        assert state["sweep_done"] is True
        assert state["running"] == []
        assert sorted(state["workers"]) == [11, 12, 13]
        out = io.StringIO()
        assert watch(path, once=True, out=out) == 0
        assert "0 running" in out.getvalue()
        assert "1 running" not in out.getvalue()


class TestRender:
    def test_frame_mentions_the_vitals(self, tmp_path):
        log = _sweep_events(tmp_path)
        state = frame_state(list(read_events(log.path)))
        frame = render_frame(state, path=str(log.path))
        assert "sweep done" in frame
        assert "3 total" in frame
        assert "1 cache hits" in frame
        assert "0 retries" in frame
        assert "p50" in frame


class TestWatchCli:
    def test_once_renders_single_frame(self, tmp_path):
        log = _sweep_events(tmp_path)
        out = io.StringIO()
        assert watch(log.path, once=True, out=out) == 0
        assert "simlab watch" in out.getvalue()
        assert "sweep done" in out.getvalue()

    def test_missing_log_is_an_error(self, tmp_path):
        assert watch(tmp_path / "nope.jsonl", once=True) == 1
