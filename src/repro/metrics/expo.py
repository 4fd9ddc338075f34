"""Metrics exposition: Prometheus text format and a JSON snapshot.

``python -m repro.simlab metrics`` is the consumer: it rebuilds a
registry from the persisted event log (plus cache-size gauges) and
dumps it here.  Both renderings carry provenance — git revision, host,
creation time — reusing :func:`repro.harness.sbench.provenance`, so a
scraped exposition can always be traced to the source tree that
produced the numbers (the same record ``BENCH_sampling.json`` carries).

The text format follows the Prometheus exposition conventions that
:func:`repro.metrics.check.lint_prometheus` enforces: ``# HELP`` and
``# TYPE`` precede each family, histograms expose cumulative ``le``
buckets plus ``_sum``/``_count``, and sample order is deterministic.
"""

from __future__ import annotations

from typing import Dict, Optional

from .registry import Counter, Gauge, Histogram, MetricsRegistry

#: provenance keys carried as simlab_build_info labels (str-valued only;
#: the full provenance record also has the nested config, JSON-only).
BUILD_INFO_KEYS = ("git_rev", "host", "python", "created_utc")


def _provenance() -> Dict:
    # Imported lazily: repro.harness pulls in the simulator stack, and
    # exposition must stay importable from lightweight tooling.
    from ..harness.sbench import provenance
    return provenance()


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _labels_text(key, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(key) + sorted((extra or {}).items())
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(str(value))}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry,
                      provenance: Optional[Dict] = None) -> str:
    """The registry in Prometheus text exposition format."""
    if provenance is None:
        provenance = _provenance()
    lines = []
    info_labels = {k: str(provenance[k]) for k in BUILD_INFO_KEYS
                   if k in provenance}
    lines.append("# HELP simlab_build_info source tree and host that "
                 "produced this exposition")
    lines.append("# TYPE simlab_build_info gauge")
    lines.append(f"simlab_build_info{_labels_text((), info_labels)} 1")
    for metric in registry.metrics():
        help_text = (metric.help or metric.name).replace("\n", " ")
        lines.append(f"# HELP {metric.name} {help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            samples = list(metric.samples())
            if not samples and not metric.labelnames:
                samples = [((), 0.0)]
            for key, value in samples:
                lines.append(f"{metric.name}{_labels_text(key)} "
                             f"{_format_value(value)}")
        elif isinstance(metric, Histogram):
            samples = list(metric.samples())
            if not samples and not metric.labelnames:
                empty = {"buckets": [[b, 0] for b in metric.buckets],
                         "inf": 0, "sum": 0.0, "count": 0}
                samples = [((), empty)]
            for key, snap in samples:
                for bound, cumulative in snap["buckets"]:
                    le = _labels_text(key, {"le": _format_value(bound)})
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                inf = _labels_text(key, {"le": "+Inf"})
                lines.append(f"{metric.name}_bucket{inf} {snap['inf']}")
                lines.append(f"{metric.name}_sum{_labels_text(key)} "
                             f"{_format_value(snap['sum'])}")
                lines.append(f"{metric.name}_count{_labels_text(key)} "
                             f"{snap['count']}")
    return "\n".join(lines) + "\n"


def render_json(registry: MetricsRegistry,
                provenance: Optional[Dict] = None) -> Dict:
    """The JSON twin: {provenance, metrics} with the full snapshot."""
    if provenance is None:
        provenance = _provenance()
    return {"provenance": {k: provenance[k] for k in BUILD_INFO_KEYS
                           if k in provenance},
            "metrics": registry.snapshot()}
