"""The simlab executor: fan RunSpecs out across worker processes.

Scheduling contract (the part the paper-reproduction sweeps rely on):

* **Deterministic results.** Every job is a pure function of its spec, so
  ``run_specs(specs, workers=N)`` returns byte-identical results for any
  ``N`` — results come back *in spec order* regardless of completion
  order, and ``workers=0`` runs everything serially in-process (the
  tier-1 default: no pools, no cache, exactly the old harness behaviour).
* **Caching.** With a :class:`~repro.simlab.cache.ResultCache`, each spec
  is looked up by content hash before simulating and persisted after, so
  a repeated sweep is pure cache hits.
* **Fault tolerance.** Each job gets one retry: a worker crash
  (``BrokenProcessPool``), a per-job timeout, or an in-job exception
  resubmits the job once; a second failure raises :class:`SimlabError`.
  A timeout or crash replaces the whole pool (terminating any hung
  worker) and resubmits the jobs that had not finished — their results
  are unaffected, only their wall-clock is.  A sweep that raises
  terminates its pool; one that returns has waited for its workers and
  the pool's threads to end.
* **Observability, off by default.** With a
  :class:`~repro.metrics.events.FleetMetrics` passed as ``metrics=``,
  every lifecycle transition increments fleet counters and appends to
  the JSONL event log (workers emit their own ``start``/``finish``
  lines, so ``simlab watch`` sees true per-worker occupancy).  Every
  site is guarded by ``if metrics is not None``; with the default
  ``metrics=None`` the executor behaves — and its results are —
  byte-identical to the uninstrumented code path.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cache import ResultCache
from .spec import (
    RunSpec,
    baseline_config_from_dict,
    trips_config_from_dict,
)

Logger = Callable[[str], None]


class SimlabError(RuntimeError):
    """A job failed twice, or a spec is malformed."""


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


def _execute_payload(payload: Dict[str, Any],
                     events_path: Optional[str] = None,
                     key: str = "") -> Dict[str, Any]:
    """Worker entry point: spec dict in, timed result envelope out.

    ``events_path`` (set only when the sweep carries metrics) makes the
    worker append its own ``start``/``finish`` lifecycle events — the
    parent only learns of completion when it collects the future, which
    may be long after the fact.  A failed attempt emits no ``finish``;
    the parent's ``retry``/``fail`` events cover it.
    """
    events = None
    if events_path is not None:
        from ..metrics.events import EventLog
        events = EventLog(events_path)
        events.emit("start", key=key)
    start = time.perf_counter()
    result = execute_spec(RunSpec.from_dict(payload))
    elapsed = round(time.perf_counter() - start, 4)
    if events is not None:
        events.emit("finish", key=key, elapsed_s=elapsed)
    return {"result": result, "elapsed_s": elapsed}


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
    over N processes; ``workers=None`` uses one per CPU.  ``timeout`` is
    the per-job wait budget once collection reaches that job (parallel
    mode only — a serial job runs to completion).  ``metrics`` is an
    optional :class:`~repro.metrics.events.FleetMetrics`; results are
    identical with or without it.
    """
    log = log or (lambda message: None)
    workers = resolve_workers(workers)
    total = len(specs)
    results: List[Optional[Dict[str, Any]]] = [None] * total
    start_t = time.perf_counter()
    if metrics is not None:
        metrics.workers.set(max(1, workers))
        metrics.emit("sweep_begin", jobs=total, workers=workers)

    pending: List[int] = []
    for i, spec in enumerate(specs):
        record = cache.get(spec.key) if cache is not None else None
        if record is not None:
            results[i] = record["result"]
            log(f"[simlab] {i + 1}/{total} hit   {spec.label}")
            if metrics is not None:
                metrics.jobs.inc(outcome="cache_hit")
                metrics.emit("cache_hit", key=spec.key, label=spec.label)
        else:
            pending.append(i)
            if metrics is not None:
                metrics.emit("submit", key=spec.key, label=spec.label,
                             kind=spec.kind)
    if metrics is not None:
        metrics.queue_depth.set(len(pending))

    try:
        if not pending:
            return results
        if workers <= 0:
            _run_serial(specs, pending, results, cache, log, total,
                        metrics)
        else:
            _run_parallel(specs, pending, results, workers, timeout,
                          cache, log, total, metrics)
        return results
    finally:
        if metrics is not None:
            counts = metrics.counts()
            metrics.queue_depth.set(0)
            metrics.emit(
                "sweep_end", jobs=total, done=counts["done"],
                cache_hits=counts["cache_hits"],
                retries=counts["retries"], failed=counts["failed"],
                elapsed_s=round(time.perf_counter() - start_t, 4))


def _record(spec: RunSpec, envelope: Dict[str, Any],
            results: List[Optional[Dict[str, Any]]], index: int,
            cache: Optional[ResultCache], log: Logger, total: int,
            metrics=None, remaining: int = 0) -> None:
    results[index] = envelope["result"]
    if cache is not None:
        cache.put(spec.key, {"spec": spec.to_dict(),
                             "result": envelope["result"],
                             "elapsed_s": envelope["elapsed_s"],
                             "created": time.time()})
    if metrics is not None:
        metrics.jobs.inc(outcome="done")
        metrics.job_seconds.observe(envelope["elapsed_s"])
        metrics.queue_depth.set(remaining)
    log(f"[simlab] {index + 1}/{total} done  {spec.label} "
        f"({envelope['elapsed_s']:.2f}s)")


def _retry(metrics, spec: RunSpec, cause: str) -> None:
    if metrics is not None:
        metrics.retries.inc(cause=cause)
        metrics.emit("retry", key=spec.key, cause=cause)


def _fail(metrics, spec: RunSpec, exc: BaseException) -> None:
    if metrics is not None:
        metrics.jobs.inc(outcome="failed")
        metrics.emit("fail", key=spec.key, error=repr(exc))


def _run_serial(specs: Sequence[RunSpec], pending: Sequence[int],
                results: List[Optional[Dict[str, Any]]],
                cache: Optional[ResultCache], log: Logger,
                total: int, metrics=None) -> None:
    events_path = metrics.events_path if metrics is not None else None
    for n, i in enumerate(pending):
        payload = specs[i].to_dict()
        try:
            envelope = _execute_payload(payload, events_path,
                                        specs[i].key)
        except Exception as first:
            log(f"[simlab] {i + 1}/{total} retry {specs[i].label} "
                f"({first!r})")
            _retry(metrics, specs[i], "exception")
            try:
                envelope = _execute_payload(payload, events_path,
                                            specs[i].key)
            except Exception as second:
                _fail(metrics, specs[i], second)
                raise SimlabError(
                    f"{specs[i].label}: failed after retry "
                    f"({second!r})") from second
        _record(specs[i], envelope, results, i, cache, log, total,
                metrics, remaining=len(pending) - n - 1)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and shut it down without waiting."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _replace_pool(pool: ProcessPoolExecutor,
                  workers: int) -> ProcessPoolExecutor:
    """Terminate a broken/hung pool and stand up a fresh one."""
    _abandon_pool(pool)
    return ProcessPoolExecutor(max_workers=workers)


def _run_parallel(specs: Sequence[RunSpec], pending: List[int],
                  results: List[Optional[Dict[str, Any]]], workers: int,
                  timeout: Optional[float], cache: Optional[ResultCache],
                  log: Logger, total: int, metrics=None) -> None:
    payloads = {i: specs[i].to_dict() for i in pending}
    events_path = metrics.events_path if metrics is not None else None
    pool = ProcessPoolExecutor(max_workers=workers)

    def submit(pool, i):
        if metrics is not None:
            metrics.emit("queued", key=specs[i].key)
        return pool.submit(_execute_payload, payloads[i], events_path,
                           specs[i].key)

    try:
        futures = {i: submit(pool, i) for i in pending}
        retried = set()
        position = 0
        # Collect strictly in submission order: determinism costs nothing
        # (every job must finish anyway) and keeps results aligned.
        while position < len(pending):
            i = pending[position]
            try:
                envelope = futures[i].result(timeout=timeout)
            except (FutureTimeoutError, BrokenProcessPool) as exc:
                # The pool itself is unusable (hung worker or crashed
                # process): rebuild it and resubmit every unfinished job.
                # Only the job being collected spends its retry; the
                # others are victims and keep their budget.
                cause = "timeout" if isinstance(exc, FutureTimeoutError) \
                    else "crash"
                if i in retried:
                    _fail(metrics, specs[i], exc)
                    raise SimlabError(f"{specs[i].label}: failed after "
                                      f"retry ({exc!r})") from exc
                retried.add(i)
                log(f"[simlab] {i + 1}/{total} retry {specs[i].label} "
                    f"({type(exc).__name__})")
                _retry(metrics, specs[i], cause)
                pool = _replace_pool(pool, workers)
                for j in pending[position:]:
                    if j == i or not futures[j].done():
                        futures[j] = submit(pool, j)
                continue
            except Exception as exc:
                if i in retried:
                    _fail(metrics, specs[i], exc)
                    raise SimlabError(f"{specs[i].label}: failed after "
                                      f"retry ({exc!r})") from exc
                retried.add(i)
                log(f"[simlab] {i + 1}/{total} retry {specs[i].label} "
                    f"({exc!r})")
                _retry(metrics, specs[i], "exception")
                futures[i] = submit(pool, i)
                continue
            _record(specs[i], envelope, results, i, cache, log, total,
                    metrics, remaining=len(pending) - position - 1)
            position += 1
    except BaseException:
        _abandon_pool(pool)
        raise
    # Every job is done: wait for the workers and the pool's threads to
    # end, so nothing of this pool outlives the call (a pool forked
    # beside a live one can inherit a lock no thread will release).
    pool.shutdown(wait=True)
