"""repro.metrics: fleet-level observability for the experiment platform.

PR 4's :mod:`repro.telemetry` answers "where did the cycles go" *inside*
one simulated processor; this package answers the same question about
the platform that runs thousands of those simulations:

* **Registry** (:mod:`repro.metrics.registry`) — process-local
  counters/gauges/histograms with labels; deterministic exposition.
* **Event log** (:mod:`repro.metrics.events`) — append-only JSONL job
  lifecycle spans (submit → queued → start → retry/timeout →
  finish/cache-hit) written next to the simlab result cache, with a
  schema validator and :func:`~repro.metrics.events.fold`, the one rule
  that turns events into fleet counters, live or replayed from disk.
* **Exposition** (:mod:`repro.metrics.expo`) — Prometheus text format
  and a JSON snapshot behind ``python -m repro.simlab metrics``, with
  git/host/time provenance.
* **Dashboards and diffs** — ``simlab watch`` (:mod:`~.watch`) tails
  the event log into a live terminal view; ``harness diff``
  (:mod:`~.diff`) attributes the cycle delta between two cached runs to
  the stall taxonomy, per-tile shifts, and per-link traffic movers.

simlab's executor only emits lifecycle events, each behind one
``if metrics is not None`` guard, so a run without metrics gives the
same results, and the simulator core itself is never touched at all.
"""

from .events import EventLog, FleetMetrics, default_events_path
from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["Counter", "EventLog", "FleetMetrics", "Gauge", "Histogram",
           "MetricsRegistry", "default_events_path"]
