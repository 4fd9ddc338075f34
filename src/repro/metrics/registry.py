"""Process-local metrics: counters, gauges, and histograms with labels.

The registry is the one shared substrate of :mod:`repro.metrics` — the
fleet counters a live sweep folds, the event-log replay in
``simlab metrics``, and the Prometheus/JSON exposition in
:mod:`repro.metrics.expo` all read and write the same structures.

Design constraints, in order:

* **Zero overhead when off.**  Nothing in the simulator ever talks to a
  registry directly; instrumented call sites hold an optional metrics
  object and guard with a single ``if metrics is not None`` (the same
  discipline :mod:`repro.telemetry` established for the probe bus).
* **Deterministic exposition.**  Metrics iterate in registration order
  and label sets in first-seen order, so two expositions of the same
  history are byte-identical — snapshots are diffable and pinnable in
  tests.
* **Prometheus-compatible.**  Names, label rules, and the histogram's
  cumulative-bucket layout follow the text-format conventions so
  :func:`repro.metrics.expo.render_prometheus` is a straight dump (and
  :func:`repro.metrics.check.lint_prometheus` can hold it to the spec).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets, tuned for job wall-times in seconds
DEFAULT_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0, 120.0, 300.0)

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(ValueError):
    """A metric was declared or used inconsistently."""


def _label_key(labelnames: Sequence[str], labels: Dict[str, object],
               metric: str) -> LabelKey:
    if set(labels) != set(labelnames):
        raise MetricsError(
            f"{metric}: got labels {sorted(labels)}, "
            f"declared {sorted(labelnames)}")
    return tuple((name, str(labels[name])) for name in labelnames)


class _Metric:
    """Shared bookkeeping: declared name/help/labelnames, one child per
    label set, children kept in first-seen order."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise MetricsError(f"bad metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricsError(f"{name}: bad label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[LabelKey, object] = {}

    def _child(self, labels: Dict[str, object], default):
        key = _label_key(self.labelnames, labels, self.name)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = default()
        return key, child


class Counter(_Metric):
    """Monotonic count; only increments are allowed."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise MetricsError(f"{self.name}: counter decrease ({amount})")
        key, _ = self._child(labels, float)
        self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _label_key(self.labelnames, labels, self.name)
        return float(self._children.get(key, 0.0))

    def total(self) -> float:
        """Sum over every label set (the sweep-summary convenience)."""
        return float(sum(self._children.values()))

    def samples(self) -> Iterable[Tuple[LabelKey, float]]:
        for key, value in self._children.items():
            yield key, float(value)


class Gauge(_Metric):
    """A value set outright (cache entries, cache bytes)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key, _ = self._child(labels, float)
        self._children[key] = float(value)

    def value(self, **labels) -> float:
        key = _label_key(self.labelnames, labels, self.name)
        return float(self._children.get(key, 0.0))

    def samples(self) -> Iterable[Tuple[LabelKey, float]]:
        for key, value in self._children.items():
            yield key, float(value)


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets      # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Observations bucketed by upper bound, Prometheus-style.

    Exposition is cumulative (``le`` buckets plus ``_sum``/``_count``);
    internally the counts are kept per-bucket so ``observe`` is O(log n).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if "le" in labelnames:
            raise MetricsError(f"{name}: 'le' is reserved for buckets")
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricsError(f"{name}: histogram needs buckets")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        _, child = self._child(
            labels, lambda: _HistogramChild(len(self.buckets) + 1))
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        child.counts[lo] += 1
        child.sum += value
        child.count += 1

    def snapshot_child(self, key: LabelKey) -> Dict:
        child = self._children[key]
        cumulative = []
        running = 0
        for n in child.counts:
            running += n
            cumulative.append(running)
        return {"buckets": [[b, c] for b, c
                            in zip(self.buckets, cumulative)],
                "inf": child.count,
                "sum": round(child.sum, 6),
                "count": child.count}

    def samples(self) -> Iterable[Tuple[LabelKey, Dict]]:
        for key in self._children:
            yield key, self.snapshot_child(key)


class MetricsRegistry:
    """Get-or-create home for every metric, in registration order."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _declare(self, cls, name: str, help: str,
                 labelnames: Sequence[str], **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) \
                    or existing.labelnames != tuple(labelnames):
                raise MetricsError(
                    f"{name}: redeclared as {cls.kind} with labels "
                    f"{tuple(labelnames)} (was {existing.kind} "
                    f"{existing.labelnames})")
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, labelnames,
                             buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        return list(self._metrics.values())

    def snapshot(self) -> Dict:
        """JSON-native dump: {name: {type, help, samples: [...]}}.

        Samples carry labels as a plain dict; histogram samples carry the
        cumulative bucket table.  Deterministic for a given history.
        """
        out: Dict = {}
        for metric in self._metrics.values():
            samples = []
            for key, value in metric.samples():
                samples.append({"labels": dict(key), "value": value})
            out[metric.name] = {"type": metric.kind, "help": metric.help,
                                "samples": samples}
        return out
