"""Exposition and its linter: the renderer must satisfy the checker."""

import json

from repro.metrics import EventLog, MetricsRegistry
from repro.metrics.check import lint_prometheus
from repro.metrics.events import read_events, replay_into
from repro.metrics.expo import render_json, render_prometheus

from .test_events import _write_sweep

_PROVENANCE = {"git_rev": "abc1234", "host": "testhost",
               "python": "3.x", "created_utc": "2026-01-01T00:00:00Z",
               "config": {"ignored": True}}


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("simlab_jobs_total", "jobs by outcome",
                     ("outcome",)).inc(outcome="done")
    registry.gauge("simlab_queue_depth", "queued jobs").set(3)
    h = registry.histogram("simlab_job_seconds", "job wall time",
                           buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(5.0)
    return registry


class TestPrometheus:
    def test_rendered_exposition_lints_clean(self):
        text = render_prometheus(_populated_registry(), _PROVENANCE)
        assert lint_prometheus(text) == []

    def test_empty_registry_lints_clean(self):
        text = render_prometheus(MetricsRegistry(), _PROVENANCE)
        assert lint_prometheus(text) == []

    def test_build_info_carries_provenance(self):
        text = render_prometheus(MetricsRegistry(), _PROVENANCE)
        assert 'simlab_build_info{created_utc="2026-01-01T00:00:00Z",' \
               'git_rev="abc1234",host="testhost",python="3.x"} 1' \
               in text.splitlines()

    def test_zero_sample_metrics_expose_zero(self):
        registry = MetricsRegistry()
        registry.counter("simlab_sweeps_total", "sweeps")
        text = render_prometheus(registry, _PROVENANCE)
        assert "simlab_sweeps_total 0" in text.splitlines()
        assert lint_prometheus(text) == []

    def test_histogram_layout(self):
        text = render_prometheus(_populated_registry(), _PROVENANCE)
        lines = text.splitlines()
        assert 'simlab_job_seconds_bucket{le="0.1"} 1' in lines
        assert 'simlab_job_seconds_bucket{le="1"} 1' in lines
        assert 'simlab_job_seconds_bucket{le="+Inf"} 2' in lines
        assert "simlab_job_seconds_sum 5.05" in lines
        assert "simlab_job_seconds_count 2" in lines

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "odd labels", ("label",)) \
            .inc(label='quote " slash \\ newline \n')
        text = render_prometheus(registry, _PROVENANCE)
        assert lint_prometheus(text) == []
        assert '\\"' in text and "\\n" in text

    def test_deterministic(self):
        a = render_prometheus(_populated_registry(), _PROVENANCE)
        b = render_prometheus(_populated_registry(), _PROVENANCE)
        assert a == b

    def test_replayed_log_renders_pinned_text(self, tmp_path):
        # family order, names, help, labels and buckets of what
        # `simlab metrics --prom` prints for one sweep plus a retry and
        # a failure; any change to the fold or its families shows here
        log = EventLog(tmp_path / "events.jsonl")
        _write_sweep(log)
        log.emit("retry", key="k1", cause="timeout")
        log.emit("fail", key="k1", error="RuntimeError('x')")
        registry = replay_into(MetricsRegistry(), read_events(log.path))
        assert render_prometheus(registry, _PROVENANCE) == _PINNED_REPLAY


_PINNED_REPLAY = """\
# HELP simlab_build_info source tree and host that produced this exposition
# TYPE simlab_build_info gauge
simlab_build_info{created_utc="2026-01-01T00:00:00Z",git_rev="abc1234",\
host="testhost",python="3.x"} 1
# HELP simlab_events_total lifecycle events recorded
# TYPE simlab_events_total counter
simlab_events_total{event="sweep_begin"} 1
simlab_events_total{event="submit"} 1
simlab_events_total{event="cache_hit"} 1
simlab_events_total{event="queued"} 1
simlab_events_total{event="start"} 1
simlab_events_total{event="finish"} 1
simlab_events_total{event="sweep_end"} 1
simlab_events_total{event="retry"} 1
simlab_events_total{event="fail"} 1
# HELP simlab_jobs_total jobs by final outcome
# TYPE simlab_jobs_total counter
simlab_jobs_total{outcome="cache_hit"} 1
simlab_jobs_total{outcome="done"} 1
simlab_jobs_total{outcome="failed"} 1
# HELP simlab_job_retries_total job retries by cause
# TYPE simlab_job_retries_total counter
simlab_job_retries_total{cause="timeout"} 1
# HELP simlab_job_seconds per-attempt job wall time
# TYPE simlab_job_seconds histogram
simlab_job_seconds_bucket{le="0.01"} 0
simlab_job_seconds_bucket{le="0.025"} 0
simlab_job_seconds_bucket{le="0.05"} 0
simlab_job_seconds_bucket{le="0.1"} 0
simlab_job_seconds_bucket{le="0.25"} 1
simlab_job_seconds_bucket{le="0.5"} 1
simlab_job_seconds_bucket{le="1"} 1
simlab_job_seconds_bucket{le="2.5"} 1
simlab_job_seconds_bucket{le="5"} 1
simlab_job_seconds_bucket{le="10"} 1
simlab_job_seconds_bucket{le="30"} 1
simlab_job_seconds_bucket{le="60"} 1
simlab_job_seconds_bucket{le="120"} 1
simlab_job_seconds_bucket{le="300"} 1
simlab_job_seconds_bucket{le="+Inf"} 1
simlab_job_seconds_sum 0.25
simlab_job_seconds_count 1
# HELP simlab_sweeps_total sweeps recorded
# TYPE simlab_sweeps_total counter
simlab_sweeps_total 1
"""


class TestJson:
    def test_snapshot_shape(self):
        doc = render_json(_populated_registry(), _PROVENANCE)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["provenance"]["git_rev"] == "abc1234"
        assert "config" not in doc["provenance"]    # str-valued keys only
        jobs = doc["metrics"]["simlab_jobs_total"]
        assert jobs["type"] == "counter"
        assert jobs["samples"] == [{"labels": {"outcome": "done"},
                                    "value": 1.0}]


class TestLinter:
    def test_counter_must_end_total(self):
        text = ("# HELP jobs jobs\n# TYPE jobs counter\njobs 1\n")
        assert any("_total" in e for e in lint_prometheus(text))

    def test_sample_without_type_flagged(self):
        assert any("no # TYPE" in e for e in lint_prometheus("orphan 1\n"))

    def test_duplicate_sample_flagged(self):
        text = ("# HELP a_total a\n# TYPE a_total counter\n"
                "a_total 1\na_total 2\n")
        assert any("duplicate sample" in e for e in lint_prometheus(text))

    def test_non_cumulative_buckets_flagged(self):
        text = ("# HELP h h\n# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\n'
                'h_bucket{le="+Inf"} 5\nh_sum 1\nh_count 5\n')
        assert any("not cumulative" in e for e in lint_prometheus(text))

    def test_inf_bucket_must_match_count(self):
        text = ("# HELP h h\n# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\n'
                "h_sum 1\nh_count 3\n")
        assert any("+Inf bucket != _count" in e
                   for e in lint_prometheus(text))

    def test_type_without_help_flagged(self):
        text = "# TYPE lonely gauge\nlonely 1\n"
        assert any("without # HELP" in e for e in lint_prometheus(text))

    def test_malformed_labels_flagged(self):
        text = ("# HELP g g\n# TYPE g gauge\n"
                "g{bad-name=\"x\"} 1\n")
        assert any("malformed labels" in e for e in lint_prometheus(text))
