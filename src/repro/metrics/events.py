"""The simlab event log: append-only JSONL job-lifecycle spans.

One line per event, written next to the result cache
(``<cache-dir>/events.jsonl`` by default), so the log survives the
sweep process and ``simlab watch`` / ``simlab metrics`` can observe a
fleet they did not start.  Parent and worker processes append to the
same file; each line is one small ``O_APPEND`` write, which POSIX keeps
atomic, so concurrent writers interleave but never tear.

The lifecycle vocabulary (one sweep's trace, in causal order)::

    sweep_begin                      the sweep declares its job count
      submit      per job            a cache miss enters the queue
      cache_hit   per job            served from the result cache
      queued      per job/attempt    entered the sweep's queue
      start       per job/attempt    a worker began executing (its pid)
      finish      per job            the attempt succeeded (elapsed_s)
      retry       per job/fault      exception | timeout | crash
      fail        per job            second failure — the sweep aborts
    sweep_end                        totals and wall time

Every event carries ``schema``, ``ts`` (unix seconds), ``event``, and
``pid``; per-event required fields are in :data:`EVENT_FIELDS` and
enforced by :func:`validate_event` (the CI schema gate).

:func:`fold` is the one rule that turns a lifecycle event into fleet
counters.  A live sweep folds each event as it happens
(:meth:`FleetMetrics.emit`, plus each finished job's ``finish``), and
:func:`replay_into` folds a recorded log, so ``simlab metrics`` over a
finished log reads what the sweep process counted.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .registry import MetricsRegistry

#: bump when the event layout changes; old logs then fail validation.
SCHEMA = 1

#: default log filename, created next to the simlab result cache.
DEFAULT_EVENTS_NAME = "events.jsonl"

#: event name -> fields required beyond the common envelope.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "sweep_begin": ("jobs", "workers"),
    "submit": ("key", "label", "kind"),
    "cache_hit": ("key", "label"),
    "queued": ("key",),
    "start": ("key",),
    "finish": ("key", "elapsed_s"),
    "retry": ("key", "cause"),
    "fail": ("key", "error"),
    "sweep_end": ("jobs", "done", "cache_hits", "retries", "failed",
                  "elapsed_s"),
}

#: causes a retry event may carry (parallel faults + in-job exceptions).
RETRY_CAUSES = ("exception", "timeout", "crash")


def default_events_path(cache_dir) -> Path:
    """Where a sweep using ``cache_dir`` keeps its event log."""
    return Path(cache_dir) / DEFAULT_EVENTS_NAME


class EventLog:
    """Append-only JSONL writer; safe for many processes, one file."""

    def __init__(self, path):
        self.path = Path(path)

    def emit(self, event: str, **fields) -> None:
        if event not in EVENT_FIELDS:
            raise ValueError(f"unknown event {event!r}")
        record = {"schema": SCHEMA, "ts": round(time.time(), 6),
                  "event": event, "pid": os.getpid(), **fields}
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(line)


def validate_event(record) -> List[str]:
    """Schema errors for one parsed event object ([] = valid)."""
    if not isinstance(record, dict):
        return ["event is not an object"]
    errors = []
    if record.get("schema") != SCHEMA:
        errors.append(f"schema is {record.get('schema')!r}, "
                      f"expected {SCHEMA}")
    name = record.get("event")
    if name not in EVENT_FIELDS:
        errors.append(f"unknown event {name!r}")
        return errors
    if not isinstance(record.get("ts"), (int, float)):
        errors.append("ts missing or not a number")
    if not isinstance(record.get("pid"), int):
        errors.append("pid missing or not an int")
    for field in EVENT_FIELDS[name]:
        if field not in record:
            errors.append(f"{name}: missing field {field!r}")
    if name == "retry" and record.get("cause") not in RETRY_CAUSES:
        errors.append(f"retry: bad cause {record.get('cause')!r}")
    if name == "finish" \
            and not isinstance(record.get("elapsed_s"), (int, float)):
        errors.append("finish: elapsed_s not a number")
    return errors


def read_events(path) -> Iterator[Dict]:
    """Parsed events in file order; unparseable lines are skipped
    (a line being written this instant reads as truncated — that is a
    tailing artifact, not corruption)."""
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


def check_events(path) -> List[str]:
    """Every line must parse and validate; the CI gate over a full log."""
    errors: List[str] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    if not lines:
        errors.append("event log is empty")
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            errors.append(f"line {i}: blank")
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {i}: not JSON ({exc})")
            continue
        errors.extend(f"line {i}: {error}"
                      for error in validate_event(record))
    return errors


def _families(registry: MetricsRegistry):
    """The counters :func:`fold` keeps, declared in exposition order:
    jobs by outcome, retries by cause, per-attempt job seconds, and
    sweeps."""
    return (registry.counter("simlab_jobs_total", "jobs by final outcome",
                             ("outcome",)),
            registry.counter("simlab_job_retries_total",
                             "job retries by cause", ("cause",)),
            registry.histogram("simlab_job_seconds",
                               "per-attempt job wall time"),
            registry.counter("simlab_sweeps_total", "sweeps recorded"))


def fold(registry: MetricsRegistry, record: Dict) -> None:
    """Count one lifecycle event into the fleet counters.

    This is the single definition of how events become counters: the
    live sweep and :func:`replay_into` both go through it.
    """
    jobs, retries, job_seconds, sweeps = _families(registry)
    name = record.get("event")
    if name == "sweep_begin":
        sweeps.inc()
    elif name == "cache_hit":
        jobs.inc(outcome="cache_hit")
    elif name == "finish":
        jobs.inc(outcome="done")
        job_seconds.observe(float(record.get("elapsed_s", 0.0)))
    elif name == "retry":
        cause = record.get("cause")
        if cause in RETRY_CAUSES:
            retries.inc(cause=cause)
    elif name == "fail":
        jobs.inc(outcome="failed")


def replay_into(registry: MetricsRegistry,
                events: Iterable[Dict]) -> MetricsRegistry:
    """Fold a recorded event stream into fleet metrics.

    ``simlab_events_total``, a census of the log's lines by event, is
    counted here only: a live sweep never sees some lines, such as the
    ``start`` a worker writes for an attempt that then raises.
    """
    events_total = registry.counter(
        "simlab_events_total", "lifecycle events recorded", ("event",))
    _families(registry)
    for record in events:
        name = record.get("event")
        if name not in EVENT_FIELDS:
            continue
        events_total.inc(event=name)
        fold(registry, record)
    return registry


class FleetMetrics:
    """A sweep's fleet counters: one registry, an optional event log.

    Passed as ``metrics=`` to :func:`repro.simlab.executor.run_specs`.
    Every event the sweep emits is written to the log (when there is
    one) and folded into the registry by :func:`fold`, the rule
    ``simlab metrics`` replays.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.events = events
        self.jobs, self.retries, self.job_seconds, _ = \
            _families(self.registry)

    @classmethod
    def for_cache_dir(cls, cache_dir) -> "FleetMetrics":
        """The standard wiring: a fresh registry, and the event log next
        to the cache, which every sweep over that cache appends to."""
        return cls(events=EventLog(default_events_path(cache_dir)))

    def emit(self, event: str, **fields) -> None:
        """Write one event to the log, if any, and fold it."""
        if self.events is not None:
            self.events.emit(event, **fields)
        fold(self.registry, {"event": event, **fields})

    @property
    def events_path(self) -> Optional[str]:
        """The log path workers append their own events to."""
        return None if self.events is None else str(self.events.path)

    def counts(self) -> Dict[str, int]:
        """The sweep-summary numbers, read back from the registry."""
        return {
            "done": int(self.jobs.value(outcome="done")),
            "cache_hits": int(self.jobs.value(outcome="cache_hit")),
            "failed": int(self.jobs.value(outcome="failed")),
            "retries": int(self.retries.total()),
            "timeouts": int(self.retries.value(cause="timeout")),
            "crashes": int(self.retries.value(cause="crash")),
        }
