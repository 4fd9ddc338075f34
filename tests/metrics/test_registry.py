"""The metrics registry: counters, gauges, histograms, labels."""

import json

import pytest

from repro.metrics import MetricsRegistry
from repro.metrics.registry import DEFAULT_BUCKETS, MetricsError


class TestCounter:
    def test_inc_and_value(self):
        c = MetricsRegistry().counter("jobs_total", "jobs")
        assert c.value() == 0.0
        c.inc()
        c.inc(3)
        assert c.value() == 4.0

    def test_labels(self):
        c = MetricsRegistry().counter("jobs_total", "jobs", ("outcome",))
        c.inc(outcome="done")
        c.inc(2, outcome="failed")
        assert c.value(outcome="done") == 1.0
        assert c.value(outcome="failed") == 2.0
        assert c.value(outcome="never_seen") == 0.0
        assert c.total() == 3.0

    def test_decrease_rejected(self):
        c = MetricsRegistry().counter("jobs_total")
        with pytest.raises(MetricsError, match="counter decrease"):
            c.inc(-1)

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("jobs_total", "", ("outcome",))
        with pytest.raises(MetricsError, match="got labels"):
            c.inc(cause="oops")
        with pytest.raises(MetricsError, match="got labels"):
            c.inc()


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("cache_entries")
        g.set(7)
        assert g.value() == 7.0
        g.set(0)
        assert g.value() == 0.0


class TestHistogram:
    def test_observe_buckets_cumulatively(self):
        h = MetricsRegistry().histogram("seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        snap = h.snapshot_child(())
        assert snap["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4]]
        assert snap["inf"] == 5 == snap["count"]
        assert snap["sum"] == pytest.approx(56.05)

    def test_boundary_lands_in_its_bucket(self):
        h = MetricsRegistry().histogram("seconds", buckets=(1.0, 2.0))
        h.observe(1.0)                       # le="1.0" includes 1.0
        assert h.snapshot_child(())["buckets"] == [[1.0, 1], [2.0, 1]]

    def test_le_label_reserved(self):
        with pytest.raises(MetricsError, match="reserved"):
            MetricsRegistry().histogram("seconds", labelnames=("le",))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "jobs", ("outcome",))
        again = registry.counter("jobs_total", "jobs", ("outcome",))
        assert first is again

    def test_redeclare_with_other_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total")
        with pytest.raises(MetricsError, match="redeclared"):
            registry.gauge("jobs_total")

    def test_redeclare_with_other_labels_rejected(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "", ("outcome",))
        with pytest.raises(MetricsError, match="redeclared"):
            registry.counter("jobs_total", "", ("cause",))

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError, match="bad metric name"):
            registry.counter("jobs-total")
        with pytest.raises(MetricsError, match="bad label name"):
            registry.counter("jobs_total", "", ("bad-label",))

    def test_snapshot_is_json_native_and_ordered(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "second declared").inc()
        registry.gauge("a", "first by name, second in order").set(2)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap) == ["b_total", "a"]    # registration order
        assert snap["b_total"]["type"] == "counter"
        assert snap["a"]["samples"] == [{"labels": {}, "value": 2.0}]
