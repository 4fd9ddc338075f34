"""Chrome/Perfetto trace-event-JSON export of one telemetry run.

Produces the classic trace-event format (``{"traceEvents": [...]}``)
that both ``chrome://tracing`` and https://ui.perfetto.dev load
directly.  Timebase: **1 simulated cycle = 1 microsecond** (the format's
``ts``/``dur`` unit), so the UI's time axis reads directly in cycles.

Track layout:

* pid 1 ("TRIPS core") — one thread per tile (GT, R0-R3, D0-D3,
  E0-E15) carrying that tile's busy/stall state spans (idle is the gap
  between spans); one thread per block-window frame (0-7) carrying
  block lifecycle spans (a parent span per block with dispatch /
  execute / commit-wait / commit child phases); one "engine" thread
  marking fast-forwarded idle stretches.
* pid 2 ("OPN") — a counter track per router with its queue depth.
* pid 3 ("memory") — OCN router queue depths and the NUCA/DRAM
  in-flight request counter (NUCA runs only).
* pid 4 ("windows") — the run chopped into ~100 equal cycle windows,
  each carrying three counter samples: blocks committed and blocks
  flushed per window (block throughput over time) and the average
  number of busy tiles (instantaneous parallelism).  These are the
  coarse "shape of the run" tracks — zoom here first, then drill into
  the per-tile spans.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .recorder import BUSY, IDLE, TelemetryRecorder

_PID_CORE = 1
_PID_OPN = 2
_PID_MEM = 3
_PID_WINDOWS = 4

#: target number of counter samples per run for the windowed tracks
_WINDOW_TARGET = 100

_TID_GT = 0
_TID_RT = 1          # R0..R3 -> 1..4
_TID_DT = 5          # D0..D3 -> 5..8
_TID_ET = 9          # E0..E15 -> 9..24
_TID_FRAME = 32      # frame f -> 32+f
_TID_ENGINE = 48


def _tile_tid(name: str) -> int:
    if name == "GT":
        return _TID_GT
    kind, index = name[0], int(name[1:])
    return {"R": _TID_RT, "D": _TID_DT, "E": _TID_ET}[kind] + index


def _meta(name: str, pid: int, tid: int = 0, kind: str = "thread_name"
          ) -> Dict:
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def _span(name: str, cat: str, ts: int, dur: int, pid: int, tid: int,
          args: Optional[Dict] = None) -> Dict:
    event = {"ph": "X", "name": name, "cat": cat, "ts": ts,
             "dur": max(0, dur), "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def _counter(name: str, ts: int, value: float, pid: int,
             series: str = "value") -> Dict:
    return {"ph": "C", "name": name, "ts": ts, "pid": pid, "tid": 0,
            "args": {series: value}}


def _window_counters(recorder: TelemetryRecorder) -> List[Dict]:
    """pid-4 windowed ProcStats time series (see module docstring).

    The window width is ``ceil(cycles / _WINDOW_TARGET)`` cycles, so
    short runs get one sample per cycle and long runs stay ~100 samples
    per track regardless of length.
    """
    cycles = recorder.cycles
    if cycles <= 0:
        return []
    window = max(1, -(-cycles // _WINDOW_TARGET))
    n = -(-cycles // window)
    committed = [0] * n
    flushed = [0] * n
    for block in recorder.blocks.values():
        if block.outcome == "committed" and block.commit_t >= 0:
            committed[min(block.commit_t // window, n - 1)] += 1
        elif block.outcome == "flushed" and block.flush_t >= 0:
            flushed[min(block.flush_t // window, n - 1)] += 1
    busy = [0] * n              # busy tile-cycles per window
    for timeline in recorder.timelines.values():
        for state, t0, t1 in timeline.runs:
            if state != BUSY:
                continue
            for w in range(t0 // window, min((t1 - 1) // window, n - 1) + 1):
                overlap = min(t1, (w + 1) * window) - max(t0, w * window)
                busy[w] += overlap
    events = [_meta("windows", _PID_WINDOWS, kind="process_name")]
    for i in range(n):
        ts = i * window
        width = min(window, cycles - ts)    # last window may be short
        events.append(_counter("blocks committed / window", ts,
                               committed[i], _PID_WINDOWS, series="blocks"))
        events.append(_counter("blocks flushed / window", ts,
                               flushed[i], _PID_WINDOWS, series="blocks"))
        events.append(_counter("busy tiles (avg)", ts,
                               round(busy[i] / width, 2), _PID_WINDOWS,
                               series="tiles"))
    return events


def build_trace(recorder: TelemetryRecorder) -> Dict:
    """The full trace-event document for one recorded run."""
    events: List[Dict] = [_meta("TRIPS core", _PID_CORE,
                                kind="process_name")]
    # -- tile state tracks ---------------------------------------------
    for name, timeline in recorder.timelines.items():
        tid = _tile_tid(name)
        events.append(_meta(name, _PID_CORE, tid))
        for state, t0, t1 in timeline.runs:
            if state != IDLE:
                events.append(_span(state, "tile", t0, t1 - t0,
                                    _PID_CORE, tid))
    # -- block lifecycle tracks (one per frame) ------------------------
    by_frame: Dict[int, List] = {}
    for span in recorder.blocks.values():
        by_frame.setdefault(span.frame, []).append(span)
    for frame, spans in sorted(by_frame.items()):
        tid = _TID_FRAME + frame
        events.append(_meta(f"frame {frame}", _PID_CORE, tid))
        spans.sort(key=lambda s: s.fetch_t)
        for i, span in enumerate(spans):
            start = span.fetch_t
            end = max(span.end_t(), start + 1)
            if i + 1 < len(spans):
                # a violation flush frees the frame at a (small) future
                # time, so a refetch may reclaim it before the doomed
                # block's nominal end: clamp to keep frame spans disjoint
                end = min(end, spans[i + 1].fetch_t)
            label = f"block {span.addr:#x}" if span.outcome != "flushed" \
                else f"block {span.addr:#x} (flushed: {span.flush_reason})"
            # ``seq`` (program order) is the uid: uids count fetches
            events.append(_span(label, "block", start, end - start,
                                _PID_CORE, tid,
                                args={"uid": span.uid, "seq": span.uid,
                                      "outcome": span.outcome}))
            # phase boundaries are forced monotone (``cur``): a block can
            # e.g. complete before its last dead predicated instruction
            # finishes dispatching, and sibling spans must stay disjoint
            cur = start
            for phase, p0, p1 in (
                    ("dispatch", span.dispatch_start, span.dispatch_done_t),
                    ("execute", span.dispatch_done_t, span.completed_t),
                    ("commit-wait", span.completed_t, span.commit_t),
                    ("commit", span.commit_t, span.ack_t)):
                if p0 < 0 or p1 < 0:
                    continue
                p0, p1 = max(p0, cur), min(p1, end)
                if p1 > p0:
                    events.append(_span(phase, "block-phase", p0, p1 - p0,
                                        _PID_CORE, tid))
                    cur = p1
    # -- fast-forward track --------------------------------------------
    if recorder.skips:
        events.append(_meta("engine", _PID_CORE, _TID_ENGINE))
        for t0, t1 in recorder.skips:
            events.append(_span("fast-forward (idle)", "engine",
                                t0, t1 - t0, _PID_CORE, _TID_ENGINE))
    # -- router queue-depth counters -----------------------------------
    for mesh, pid, label in ((recorder.opn, _PID_OPN, "OPN"),
                             (recorder.ocn, _PID_MEM, "memory")):
        if not mesh.depth:
            continue
        events.append(_meta(label, pid, kind="process_name"))
        for node, series in sorted(mesh.depth.items()):
            name = f"{mesh.name} q {node[0]},{node[1]}"
            for cycle, depth in series:
                events.append(_counter(name, cycle, depth, pid,
                                       series="depth"))
    # -- NUCA/DRAM occupancy counter -----------------------------------
    if recorder.mem.series:
        if not recorder.ocn.depth:
            events.append(_meta("memory", _PID_MEM, kind="process_name"))
        for cycle, count in recorder.mem.series:
            events.append(_counter("NUCA in-flight", cycle, count,
                                   _PID_MEM, series="requests"))
    # -- windowed ProcStats time series ---------------------------------
    events.extend(_window_counters(recorder))
    return {"traceEvents": events}


def export_perfetto(recorder: TelemetryRecorder, path: str) -> Dict:
    """Write the trace to ``path``; returns the document."""
    doc = build_trace(recorder)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc
