"""``simlab watch``: a live terminal dashboard over the event log.

The watcher never talks to the sweep process — it tails the JSONL event
log next to the result cache, folds the lifecycle events into a frame
(per-worker occupancy, queue depth, cache hit rate, retry/timeout
counts, an ETA from finished-job latencies), and redraws.  That makes
it attachable from any shell, after the fact, or from CI:
``--once`` renders a single frame and exits, which is how the
``metrics-smoke`` job asserts a finished sweep's log is coherent.

The frame describes the *latest* sweep in the log (the log itself is
append-only across sweeps; ``simlab metrics`` aggregates all of them).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .events import FleetMetrics, fold, read_events

#: statistically honest minimum before the ETA is shown
_MIN_LATENCY_SAMPLES = 2


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def frame_state(events: List[Dict],
                now: Optional[float] = None) -> Dict:
    """Fold events into the dashboard's view of the latest sweep."""
    begin_index = 0
    for i, record in enumerate(events):
        if record.get("event") == "sweep_begin":
            begin_index = i
    window = events[begin_index:]
    now = now if now is not None else time.time()

    jobs: Dict[str, Dict] = {}       # key -> {state, label, worker, t}
    state = {
        "events": len(events),
        "sweep_events": len(window),
        "jobs_declared": 0,
        "workers_declared": 0,
        "sweep_started": None,
        "sweep_elapsed": None,
        "sweep_done": False,
        "latencies": [],
    }
    fleet = FleetMetrics()
    workers: Dict[int, Dict] = {}    # pid -> {key, label, since, busy}
    for record in window:
        fold(fleet.registry, record)
        name = record.get("event")
        ts = record.get("ts", now)
        key = record.get("key")
        if name == "sweep_begin":
            state["jobs_declared"] = record.get("jobs", 0)
            state["workers_declared"] = record.get("workers", 0)
            state["sweep_started"] = ts
        elif name == "sweep_end":
            state["sweep_done"] = True
            state["sweep_elapsed"] = record.get("elapsed_s")
        elif name == "submit":
            jobs[key] = {"state": "submitted",
                         "label": record.get("label", key), "t": ts}
        elif name == "cache_hit":
            jobs[key] = {"state": "cache_hit",
                         "label": record.get("label", key), "t": ts}
        elif name == "queued":
            job = jobs.setdefault(key, {"label": key})
            job.update(state="queued", t=ts)
        elif name == "start":
            job = jobs.setdefault(key, {"label": key})
            job.update(state="running", t=ts, worker=record.get("pid"))
            workers[record.get("pid")] = {
                "key": key, "label": job["label"], "since": ts,
                "busy": True}
        elif name == "finish":
            job = jobs.setdefault(key, {"label": key})
            job.update(state="done", t=ts)
            state["latencies"].append(
                float(record.get("elapsed_s", 0.0)))
            worker = workers.get(record.get("pid"))
            if worker is not None and worker.get("key") == key:
                worker["busy"] = False
        elif name == "retry":
            job = jobs.setdefault(key, {"label": key})
            job.update(state="retrying", t=ts)
        elif name == "fail":
            job = jobs.setdefault(key, {"label": key})
            job.update(state="failed", t=ts)
    counts = fleet.counts()
    for field in ("cache_hits", "retries", "timeouts", "crashes", "failed"):
        state[field] = counts[field]

    by_state: Dict[str, int] = {}
    for job in jobs.values():
        by_state[job.get("state", "?")] = \
            by_state.get(job.get("state", "?"), 0) + 1
    state["jobs"] = jobs
    state["by_state"] = by_state
    state["workers"] = workers
    state["running"] = [
        {"pid": pid, "label": worker["label"],
         "for_s": max(0.0, now - worker["since"])}
        for pid, worker in sorted(workers.items()) if worker["busy"]]
    done = by_state.get("done", 0)
    total = state["jobs_declared"] or (len(jobs) + state["cache_hits"])
    state["total"] = total
    state["remaining"] = max(
        0, total - state["cache_hits"] - done - state["failed"])
    if state["sweep_started"] is not None \
            and state["sweep_elapsed"] is None:
        state["sweep_elapsed"] = max(0.0, now - state["sweep_started"])

    latencies = state["latencies"]
    if len(latencies) >= _MIN_LATENCY_SAMPLES and state["remaining"]:
        p50 = _percentile(latencies, 0.50)
        lanes = max(1, state["workers_declared"]
                    or max(1, len(workers)))
        state["eta_s"] = state["remaining"] * p50 / lanes
    else:
        state["eta_s"] = None
    return state


def _rate(hits: int, total: int) -> str:
    if not total:
        return "n/a"
    return f"{100.0 * hits / total:.1f}%"


def _dur(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds < 120:
        return f"{seconds:.1f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_frame(state: Dict, path: str = "") -> str:
    """One dashboard frame as plain text."""
    by_state = state["by_state"]
    phase = "done" if state["sweep_done"] else "running"
    lines = [
        f"simlab watch — {path or 'event log'} "
        f"({state['events']} events, sweep {phase} "
        f"{_dur(state['sweep_elapsed'])})"]
    lines.append(
        f"jobs      : {state['total']} total · "
        f"{by_state.get('done', 0)} done · "
        f"{len(state['running'])} running · "
        f"{by_state.get('queued', 0) + by_state.get('submitted', 0)} "
        f"queued · {state['cache_hits']} cache hits")
    lines.append(
        f"cache     : {state['cache_hits']}/{state['total']} hits "
        f"({_rate(state['cache_hits'], state['total'])})")
    lines.append(
        f"faults    : {state['retries']} retries "
        f"({state['timeouts']} timeout, {state['crashes']} crash) · "
        f"{state['failed']} failed")
    busy = len(state["running"])
    lines.append(f"workers   : {len(state['workers'])} seen · "
                 f"{busy} busy")
    for worker in state["running"][:8]:
        lines.append(f"  [{worker['pid']}] busy  "
                     f"{worker['label']:<32s} ({_dur(worker['for_s'])})")
    latencies = state["latencies"]
    if latencies:
        lines.append(
            f"latency   : p50 {_percentile(latencies, 0.50):.2f}s · "
            f"p90 {_percentile(latencies, 0.90):.2f}s "
            f"({len(latencies)} finished)")
    if state["eta_s"] is not None:
        lines.append(f"eta       : ~{_dur(state['eta_s'])} "
                     f"({state['remaining']} jobs left)")
    elif state["remaining"] and not state["sweep_done"]:
        lines.append(f"eta       : warming up "
                     f"({state['remaining']} jobs left)")
    return "\n".join(lines)


def watch(path, interval: float = 2.0, once: bool = False,
          out=None) -> int:
    """Tail the log and redraw; ``once`` renders one frame and returns.

    Returns nonzero when the log does not exist (nothing to watch).
    """
    import sys
    out = out or sys.stdout
    from pathlib import Path
    log_path = Path(path)
    if not log_path.exists():
        print(f"simlab watch: no event log at {log_path} "
              f"(run a sweep with the cache enabled first)",
              file=sys.stderr)
        return 1
    while True:
        events = list(read_events(log_path))
        frame = render_frame(frame_state(events), path=str(log_path))
        if once:
            print(frame, file=out)
            return 0
        # full clear + home, then the frame: flicker-free enough for a
        # dashboard that redraws every couple of seconds
        print("\x1b[2J\x1b[H" + frame, file=out, flush=True)
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
