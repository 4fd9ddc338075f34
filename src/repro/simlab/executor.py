"""The simlab executor: fan RunSpecs out across worker processes.

Scheduling contract (the part the paper-reproduction sweeps rely on):

* **Deterministic results.** Every job is a pure function of its spec, so
  ``run_specs(specs, workers=N)`` returns byte-identical results for any
  ``N`` — recorded as jobs finish, returned *in spec order* — and
  ``workers=0`` runs everything serially in-process (the tier-1
  default: no workers, no cache, exactly the old harness behaviour).
* **Caching.** With a :class:`~repro.simlab.cache.ResultCache`, each spec
  is looked up by content hash before simulating and persisted after, so
  a repeated sweep is pure cache hits.
* **Fault tolerance.** The executor owns its workers and gives each one
  job at a time, so a crash (the worker's pipe closes) or a timeout (the
  attempt outlives ``timeout``; the worker is killed) is charged to the
  job that caused it, and only that worker is replaced.  One rule,
  :func:`_fault`, serial or parallel: a job's first failed attempt
  spends its one retry, the second raises :class:`SimlabError` with the
  worker's traceback or exit status.  A sweep that returns has joined
  every worker; one that raises kills its busy ones and joins them all.
* **Observability, off by default.** With a
  :class:`~repro.metrics.events.FleetMetrics` passed as ``metrics=``,
  the executor emits each lifecycle event, which appends it to the
  JSONL event log and folds it into the fleet counters
  (:func:`repro.metrics.events.fold`, the rule ``simlab metrics``
  replays).  Workers write their own ``start``/``finish`` lines, so
  ``simlab watch`` sees true per-worker occupancy; the parent folds a
  job's ``finish`` when its result arrives.  With the default
  ``metrics=None`` nothing is emitted; results are identical either way.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..metrics.events import EventLog, fold
from .cache import ResultCache
from .spec import (
    RunSpec,
    baseline_config_from_dict,
    trips_config_from_dict,
)

Logger = Callable[[str], None]


class SimlabError(RuntimeError):
    """A job failed twice, or a spec is malformed."""


class FailedAttempt(Exception):
    """A failed attempt's traceback or exit status: a SimlabError's cause."""


# ----------------------------------------------------------------------
# Job execution (runs inside worker processes; must stay picklable-by-
# reference, so everything here is module level).

def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one job and return its JSON-serializable result dict."""
    # Imported lazily: repro.harness imports repro.simlab for the sweep
    # plumbing, so a module-level import here would be circular.
    from ..harness.runner import run_baseline_workload, run_trips_workload

    if spec.kind == "trips" and spec.sampling is not None:
        from ..sampling import run_sampled_workload
        run = run_sampled_workload(
            spec.workload, level=spec.level,
            config=trips_config_from_dict(spec.config),
            sampling=spec.sampling_config(), telemetry=spec.telemetry,
            size=spec.size)
        result = {"kind": "trips", "name": run.name, "level": run.level,
                  "sampled": run.sampled.to_dict(),
                  "fallback_blocks": run.fallback_blocks}
        if spec.telemetry:
            result["telemetry_windows"] = run.telemetry_windows
        return result

    if spec.kind == "trips":
        run = run_trips_workload(spec.workload, level=spec.level,
                                 config=trips_config_from_dict(spec.config),
                                 trace=spec.trace,
                                 telemetry=spec.telemetry, size=spec.size)
        result = {"kind": "trips", "name": run.name, "level": run.level,
                  "stats": run.stats.to_dict()}
        if spec.trace:
            from ..analysis import analyze_critical_path
            result["critpath"] = analyze_critical_path(run.proc.trace).row()
        if spec.telemetry:
            # the compact summary — not the raw event stream — is what
            # the cache record carries (JSON-round-trippable by design)
            result["telemetry"] = run.proc.tel.summary().to_dict()
        return result

    if spec.kind == "baseline":
        run = run_baseline_workload(
            spec.workload, config=baseline_config_from_dict(spec.config))
        return {"kind": "baseline", "name": run.name,
                "stats": run.stats.to_dict()}

    if spec.kind == "fuzz":
        from ..fuzz.oracle import run_shard
        return {"kind": "fuzz", **run_shard(spec.config)}

    if spec.kind == "selftest":
        return _selftest(spec.workload)

    raise SimlabError(f"unknown spec kind {spec.kind!r}")


def _selftest(payload: str) -> Dict[str, Any]:
    """Deterministic fault-injection probes for the executor's own tests.

    ``mode[:arg]``: ``ok`` / ``echo:x`` succeed; ``fail-always`` raises;
    ``fail-once:path`` raises (``crash-once:path`` kills the process,
    ``hang-once:path`` sleeps forever) until the flag file exists.
    """
    mode, _, arg = payload.partition(":")
    if mode == "ok":
        return {"kind": "selftest", "ok": True}
    if mode == "echo":
        return {"kind": "selftest", "ok": True, "value": arg}
    if mode == "fail-always":
        raise RuntimeError("simlab selftest: deliberate persistent failure")
    if mode in ("fail-once", "crash-once", "hang-once"):
        flag = Path(arg)
        if flag.exists():
            return {"kind": "selftest", "ok": True, "retried": True}
        flag.write_text("simlab selftest first attempt\n")
        if mode == "crash-once":
            os._exit(13)
        if mode == "hang-once":
            time.sleep(3600)
        raise RuntimeError("simlab selftest: deliberate one-shot failure")
    raise SimlabError(f"unknown selftest mode {mode!r}")


def _attempt(payload: Dict[str, Any], events_path: Optional[str],
             key: str) -> Tuple[str, Any]:
    """One attempt at a job, spec dict in: ``("ok", envelope)`` with the
    result and its wall time, or ``("exception", traceback)``.  A sweep
    with metrics passes ``events_path``: the attempt then logs its own
    ``start`` and, if it succeeds, ``finish`` event, with its pid."""
    events = None
    if events_path is not None:
        events = EventLog(events_path)
        events.emit("start", key=key)
    start = time.perf_counter()
    try:
        result = execute_spec(RunSpec.from_dict(payload))
    except Exception:
        return "exception", traceback.format_exc()
    elapsed = round(time.perf_counter() - start, 4)
    if events is not None:
        events.emit("finish", key=key, elapsed_s=elapsed)
    return "ok", {"result": result, "elapsed_s": elapsed}


def _work(conn, events_path: Optional[str]) -> None:
    """Worker process body: attempt each job the parent sends, until None."""
    for payload, key in iter(conn.recv, None):
        conn.send(_attempt(payload, events_path, key))


# ----------------------------------------------------------------------
def resolve_workers(workers: Optional[int]) -> int:
    """None -> one worker per CPU; ints pass through (0 = serial)."""
    if workers is None:
        return os.cpu_count() or 1
    return workers


def run_specs(specs: Sequence[RunSpec], workers: int = 0,
              cache: Optional[ResultCache] = None,
              timeout: Optional[float] = None,
              log: Optional[Logger] = None,
              metrics=None) -> List[Dict[str, Any]]:
    """Run every spec, returning result dicts aligned with ``specs``.

    ``workers=0`` executes serially in-process; ``workers=N`` fans out
    over N processes; ``workers=None`` uses one per CPU.  ``timeout``
    bounds each attempt's wall time from when its worker is handed the
    job (parallel mode only — a serial job runs to completion).
    ``metrics`` is an optional :class:`~repro.metrics.events.FleetMetrics`;
    results are identical with or without it.
    """
    log = log or (lambda message: None)
    workers = resolve_workers(workers)
    total = len(specs)
    results: List[Optional[Dict[str, Any]]] = [None] * total
    start_t = time.perf_counter()
    if metrics is not None:
        metrics.emit("sweep_begin", jobs=total, workers=workers)

    pending: List[int] = []
    for i, spec in enumerate(specs):
        record = cache.get(spec.key) if cache is not None else None
        if record is not None:
            results[i] = record["result"]
            log(f"[simlab] {i + 1}/{total} hit   {spec.label}")
            if metrics is not None:
                metrics.emit("cache_hit", key=spec.key, label=spec.label)
        else:
            pending.append(i)
            if metrics is not None:
                metrics.emit("submit", key=spec.key, label=spec.label,
                             kind=spec.kind)

    try:
        _run(specs, pending, results, workers, timeout, cache, log, metrics)
        return results
    finally:
        if metrics is not None:
            counts = metrics.counts()
            metrics.emit(
                "sweep_end", jobs=total, done=counts["done"],
                cache_hits=counts["cache_hits"],
                retries=counts["retries"], failed=counts["failed"],
                elapsed_s=round(time.perf_counter() - start_t, 4))


def _record(specs: Sequence[RunSpec], index: int, envelope: Dict[str, Any],
            results: List[Optional[Dict[str, Any]]],
            cache: Optional[ResultCache], log: Logger, metrics=None) -> None:
    spec = specs[index]
    results[index] = envelope["result"]
    if cache is not None:
        cache.put(spec.key, {"spec": spec.to_dict(),
                             "result": envelope["result"],
                             "elapsed_s": envelope["elapsed_s"],
                             "created": time.time()})
    if metrics is not None:
        # the worker has already written this record to the log
        fold(metrics.registry, {"event": "finish", "key": spec.key,
                                "elapsed_s": envelope["elapsed_s"]})
    log(f"[simlab] {index + 1}/{len(specs)} done  {spec.label} "
        f"({envelope['elapsed_s']:.2f}s)")


def _fault(specs: Sequence[RunSpec], index: int, cause: str, detail: str,
           retried: Set[int], log: Logger, metrics=None) -> None:
    """Charge a failed attempt (``cause`` exception, timeout or crash) to
    its job: the first spends the job's one retry, the second raises
    :class:`SimlabError` from ``detail``, the traceback or exit status."""
    spec = specs[index]
    summary = detail.rstrip().splitlines()[-1]
    if index in retried:
        if metrics is not None:
            metrics.emit("fail", key=spec.key, error=summary)
        raise SimlabError(f"{spec.label}: failed after retry ({summary})") \
            from FailedAttempt(detail)
    retried.add(index)
    log(f"[simlab] {index + 1}/{len(specs)} retry {spec.label} ({summary})")
    if metrics is not None:
        metrics.emit("retry", key=spec.key, cause=cause)


class _Worker:
    """A worker process, our end of its pipe, and its job (None: idle)."""

    def __init__(self, events_path: Optional[str]):
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(target=_work,
                                               args=(child, events_path))
        self.process.start()
        child.close()            # the worker's exit now reads as EOF here
        self.job, self.sent = None, 0.0     # job index, when it was sent

    def stop(self) -> None:
        """Tell an idle worker to exit, or kill a busy one; join it."""
        if self.job is None:
            with suppress(OSError):
                self.conn.send(None)
        else:
            self.process.kill()
        self.process.join()
        self.conn.close()


def _run(specs: Sequence[RunSpec], pending: List[int],
         results: List[Optional[Dict[str, Any]]], workers: int,
         timeout: Optional[float], cache: Optional[ResultCache],
         log: Logger, metrics=None) -> None:
    """Run the pending jobs from one queue, in-process at ``workers=0``
    and else on worker processes; record each outcome or charge it."""
    events_path = metrics.events_path if metrics is not None else None
    queue: deque = deque()
    retried: Set[int] = set()

    def enqueue(i: int, retry: bool = False) -> None:
        if metrics is not None:
            metrics.emit("queued", key=specs[i].key)
        if retry:
            queue.appendleft(i)      # fail fast: a retry runs next
        else:
            queue.append(i)

    def settle(i: int, status: str, value: Any) -> None:
        if status == "ok":
            _record(specs, i, value, results, cache, log, metrics)
        else:
            _fault(specs, i, status, value, retried, log, metrics)
            enqueue(i, retry=True)

    for i in pending:
        enqueue(i)
    if workers <= 0:
        while queue:
            i = queue.popleft()
            settle(i, *_attempt(specs[i].to_dict(), events_path,
                                specs[i].key))
        return
    pool: List[_Worker] = []
    try:
        pool.extend(_Worker(events_path)
                    for _ in range(min(workers, len(pending))))
        while True:
            for worker in pool:
                if worker.job is None and queue:
                    worker.job = i = queue.popleft()
                    worker.sent = time.monotonic()
                    worker.conn.send((specs[i].to_dict(), specs[i].key))
            busy = [worker for worker in pool if worker.job is not None]
            if not busy:
                return
            wait_s = None if timeout is None else max(
                0.0, min(w.sent for w in busy) + timeout - time.monotonic())
            ready = multiprocessing.connection.wait([w.conn for w in busy],
                                                    wait_s)
            now = time.monotonic()
            for worker in busy:
                i = worker.job
                if worker.conn in ready:
                    try:
                        status, value = worker.conn.recv()
                        worker.job = None
                    except (EOFError, OSError):
                        worker.process.join()
                        status, value = "crash", "worker exited with " \
                            f"code {worker.process.exitcode}"
                elif timeout is not None and now - worker.sent >= timeout:
                    status, value = "timeout", f"timed out after {timeout:g} s"
                else:
                    continue
                settle(i, status, value)
                if worker.job is not None:   # dead or hung: replace it
                    worker.stop()
                    pool[pool.index(worker)] = _Worker(events_path)
    finally:
        for worker in pool:
            worker.stop()
