"""The telemetry recorder: per-tile cycle accounting, block lifecycle
summaries, micronet utilization, and memory-system occupancy.

Block lifecycles are not recorded here: the processor writes one
:class:`~repro.uarch.trace.BlockEvent` per fetched block, shared with
the critical-path trace, and the recorder reads those records.

Cycle accounting works by classification, not sampling: at the end of
every *stepped* cycle the recorder asks each tile for its state that
cycle (:meth:`~repro.uarch.tiles.ExecTile.tel_state` and friends), and
when the fast-path engine fast-forwards over a provably-quiescent
stretch, :meth:`TelemetryRecorder.account_skip` charges the whole
stretch in at most two run-length entries with the same classifier.
Stepped plus skipped intervals tile the run exactly, so for every
tile::

    busy + sum(stalls) + idle == ProcStats.cycles

The stall taxonomy (Section 5.2's "where the cycles go" argument):

``waiting_operand``
    a reservation station holds a dispatched instruction that still
    misses an operand (ETs), or a register read is buffered against an
    in-flight write of an older block (RTs).
``opn_backpressure``
    the tile has a result/request packet it could not inject into the
    operand network (outbox non-empty after a drain attempt).
``gdn_backlog``
    the GT withheld a fetch because the dispatch pipe is serialized
    behind earlier blocks' GDN streams.
``lsq_full``
    a DT's load/store queue has no free entry.
``cache_miss``
    a DT is waiting on an L1 miss (L2/NUCA/DRAM fill in flight).
``dependence_deferral``
    a DT holds back a load the dependence predictor flagged until all
    prior stores arrive (Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..serialize import dataclass_from_dict, dataclass_to_dict

if TYPE_CHECKING:       # repro.uarch imports this module
    from ..uarch.trace import BlockEvent

# ----------------------------------------------------------------------
# tile-state taxonomy
# ----------------------------------------------------------------------
BUSY = "busy"
IDLE = "idle"
WAITING_OPERAND = "waiting_operand"
OPN_BACKPRESSURE = "opn_backpressure"
GDN_BACKLOG = "gdn_backlog"
LSQ_FULL = "lsq_full"
CACHE_MISS = "cache_miss"
DEP_DEFERRAL = "dependence_deferral"

#: every stall category, in report order
STALL_STATES = (WAITING_OPERAND, OPN_BACKPRESSURE, GDN_BACKLOG,
                LSQ_FULL, CACHE_MISS, DEP_DEFERRAL)
#: every state a tile-cycle can be charged to
STATES = (BUSY,) + STALL_STATES + (IDLE,)


class _Timeline:
    """Run-length-encoded state series for one tile: [state, start, end)."""

    __slots__ = ("runs",)

    def __init__(self):
        self.runs: List[List] = []

    def add(self, state: str, t0: int, t1: int) -> None:
        runs = self.runs
        if runs:
            last = runs[-1]
            if last[2] == t0 and last[0] == state:
                last[2] = t1
                return
        runs.append([state, t0, t1])

    def totals(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for state, t0, t1 in self.runs:
            out[state] = out.get(state, 0) + (t1 - t0)
        return out


def _charge(timeline: _Timeline, state, t0: int, t1: int,
            split: int) -> None:
    """Charge ``[t0, t1)`` to ``state(t)``, which is constant on each side
    of cycle ``split``."""
    if t0 < split < t1:
        timeline.add(state(t0), t0, split)
        t0 = split
    timeline.add(state(t0), t0, t1)


# ----------------------------------------------------------------------
# micronet telemetry (shared by the OPN and the OCN)
# ----------------------------------------------------------------------
class MeshTelemetry:
    """Per-link flit counts and per-router queue-depth series.

    Attached to a :class:`~repro.uarch.mesh.WormholeMesh` via its
    ``telemetry`` attribute; the mesh reports every move (one flit-count
    per traversed link) and every occupancy change.
    """

    __slots__ = ("name", "nodes", "link_flits", "depth", "peak_depth")

    def __init__(self, name: str):
        self.name = name
        self.nodes = 0                      # router count, set at attach
        #: (node, direction) -> flits moved over that output link
        self.link_flits: Dict[Tuple[Tuple[int, int], str], int] = {}
        #: node -> [(cycle, queued packets)] — appended on change only
        self.depth: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self.peak_depth = 0

    def note_link(self, node, direction: str, flits: int) -> None:
        key = (node, direction)
        self.link_flits[key] = self.link_flits.get(key, 0) + flits

    def note_depth(self, node, cycle: int, depth: int) -> None:
        series = self.depth.get(node)
        if series is None:
            series = self.depth[node] = []
        if series and series[-1][0] == cycle:
            series[-1] = (cycle, depth)
        elif not series or series[-1][1] != depth:
            series.append((cycle, depth))
        if depth > self.peak_depth:
            self.peak_depth = depth

    def depth_histogram(self, cycles: int) -> Dict[str, int]:
        """Time-weighted router-cycles at each queue depth."""
        hist: Dict[int, int] = {}
        for series in self.depth.values():
            prev_c, prev_d = 0, 0
            for c, d in series:
                c = min(c, cycles)
                if c > prev_c and prev_d > 0:
                    hist[prev_d] = hist.get(prev_d, 0) + (c - prev_c)
                prev_c, prev_d = c, d
            if prev_d > 0 and cycles > prev_c:
                hist[prev_d] = hist.get(prev_d, 0) + (cycles - prev_c)
        out = {str(d): n for d, n in sorted(hist.items())}
        busy = sum(hist.values())
        total = self.nodes * cycles
        if total > busy:
            out = {"0": total - busy, **out}
        return out

    def summarize(self, cycles: int) -> Dict:
        links = {f"{node[0]},{node[1]}:{direction}": flits
                 for (node, direction), flits
                 in sorted(self.link_flits.items())}
        total_flits = sum(links.values())
        peak_link = max(links.values(), default=0)
        return {
            "links": links,
            "total_link_flits": total_flits,
            "peak_link_flits": peak_link,
            "peak_link_utilization": round(peak_link / cycles, 4)
            if cycles else 0.0,
            "queue_depth_hist": self.depth_histogram(cycles),
            "peak_queue_depth": self.peak_depth,
        }


class SysMemTelemetry:
    """NUCA/DRAM occupancy: in-flight bank/DRAM requests over time."""

    __slots__ = ("series", "last", "peak", "mt_accesses", "dram_accesses")

    def __init__(self):
        self.series: List[Tuple[int, int]] = []   # (cycle, in flight)
        self.last = 0
        self.peak = 0
        self.mt_accesses: Dict[int, int] = {}
        self.dram_accesses = 0

    def note_inflight(self, cycle: int, count: int) -> None:
        if count == self.last:
            return
        series = self.series
        if series and series[-1][0] == cycle:
            series[-1] = (cycle, count)
        else:
            series.append((cycle, count))
        self.last = count
        if count > self.peak:
            self.peak = count

    def note_mt(self, index: int, dram: bool) -> None:
        self.mt_accesses[index] = self.mt_accesses.get(index, 0) + 1
        if dram:
            self.dram_accesses += 1

    def summarize(self, cycles: int) -> Dict:
        integral = 0
        prev_c, prev_d = 0, 0
        for c, d in self.series:
            c = min(c, cycles)
            integral += prev_d * (c - prev_c)
            prev_c, prev_d = c, d
        if cycles > prev_c:
            integral += prev_d * (cycles - prev_c)
        return {
            "bank_accesses": sum(self.mt_accesses.values()),
            "dram_accesses": self.dram_accesses,
            "avg_inflight": round(integral / cycles, 4) if cycles else 0.0,
            "peak_inflight": self.peak,
            "mt_accesses": {str(i): n for i, n
                            in sorted(self.mt_accesses.items())},
        }


# ----------------------------------------------------------------------
# the summary record (what simlab caches)
# ----------------------------------------------------------------------
@dataclass
class TelemetrySummary:
    """Compact, JSON-round-trippable digest of one telemetry run.

    This — not the raw event stream — is what simlab caches alongside
    ``ProcStats``; every field is built from JSON-native types (string
    keys, ints/floats/lists) so ``to_dict`` survives a JSON round trip
    byte-identically.
    """

    cycles: int = 0
    #: tile name -> {state -> cycles}; states sum to ``cycles`` per tile
    tiles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: stall category -> tile-cycles summed over all tiles
    stall_totals: Dict[str, int] = field(default_factory=dict)
    busy_cycles: int = 0
    idle_cycles: int = 0
    blocks: Dict[str, int] = field(default_factory=dict)
    #: mean per-phase latency of committed blocks (cycles)
    block_phases: Dict[str, float] = field(default_factory=dict)
    opn: Dict = field(default_factory=dict)
    ocn: Dict = field(default_factory=dict)
    dram: Dict = field(default_factory=dict)
    fast_forward: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "TelemetrySummary":
        return dataclass_from_dict(cls, data)


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
class TelemetryRecorder:
    """Collects all probe events of one :class:`TripsProcessor` run.

    Created and attached by the processor when it is constructed with
    ``telemetry=True``; tiles reach it as ``proc.tel``.  ``blocks`` is
    the processor's block lifecycle record (``proc.block_events``, the
    same dict as ``proc.trace.blocks`` when tracing).  On the two-core
    chip each core carries its own recorder; the shared memory system's
    OCN/DRAM probes attach to whichever recorder claims them first
    (core 0's, in construction order).

    The recorder does not hold its core: the core passes itself to
    :meth:`record_cycle` and :meth:`account_skip`, and ``cycles`` keeps
    the one figure the summary needs from it, the core's clock after
    the last cycle charged.
    """

    def __init__(self):
        #: cycles charged so far: the core's clock once a run stops
        self.cycles = 0
        self.timelines: Dict[str, _Timeline] = {}
        #: (tile, timeline, drains commits): RTs and DTs do, ETs do not
        self._tile_runs: List[Tuple[object, _Timeline, bool]] = []
        self._gt_tl = _Timeline()
        self.blocks: Dict[int, BlockEvent] = {}
        self.skips: List[Tuple[int, int]] = []
        self.opn = MeshTelemetry("OPN")
        self.ocn = MeshTelemetry("OCN")
        self.mem = SysMemTelemetry()
        self._owns_ocn = False
        self._owns_mem = False

    # -- wiring ---------------------------------------------------------
    def attach(self, proc) -> None:
        self.blocks = proc.block_events
        names_tiles = [(f"E{i}", et, False) for i, et in enumerate(proc.ets)]
        names_tiles += [(f"R{b}", rt, True) for b, rt in enumerate(proc.rts)]
        names_tiles += [(f"D{d}", dt, True) for d, dt in enumerate(proc.dts)]
        self.timelines = {"GT": self._gt_tl}
        self._tile_runs = []
        for name, tile, commits in names_tiles:
            tl = _Timeline()
            self.timelines[name] = tl
            self._tile_runs.append((tile, tl, commits))
        proc.opn.telemetry = self.opn
        self.opn.nodes = proc.opn.rows * proc.opn.cols
        if proc.sysmem is not None:
            if proc.sysmem.ocn.telemetry is None:
                proc.sysmem.ocn.telemetry = self.ocn
                self.ocn.nodes = (proc.sysmem.ocn.rows
                                  * proc.sysmem.ocn.cols)
                self._owns_ocn = True
            if proc.sysmem.telemetry is None:
                proc.sysmem.telemetry = self.mem
                self._owns_mem = True

    # -- per-cycle tile accounting --------------------------------------
    def record_cycle(self, proc, t: int) -> None:
        """Classify every tile's state for ``proc``'s stepped cycle
        ``t``."""
        t1 = t + 1
        for tile, tl, _ in self._tile_runs:
            tl.add(tile.tel_state(t), t, t1)
        self._gt_tl.add(proc.tel_gt_state(t), t, t1)
        self.cycles = t1

    def account_skip(self, proc, t0: int, t1: int) -> None:
        """Charge a fast-forwarded stretch ``[t0, t1)`` with the stepped
        classifier.

        Nothing a tile's state reads changes inside a skip but the cycle
        itself, and each state compares the cycle with one fixed time: an
        RT or DT is busy until ``commit_free_t``, and the GT is in
        ``gdn_backlog`` until the dispatch pipe is within fetch latency.
        So each timeline takes the state of the stretch's first cycle, up
        to that split, and the state of the split's cycle after it."""
        if t1 <= t0:
            return
        self.skips.append((t0, t1))
        for tile, tl, commits in self._tile_runs:
            _charge(tl, tile.tel_state, t0, t1,
                    tile.commit_free_t if commits else t1)
        _charge(self._gt_tl, proc.tel_gt_state, t0, t1,
                proc.dispatch_pipe_free - proc.fetch_latency)
        self.cycles = t1

    # -- summary ---------------------------------------------------------
    def summary(self) -> TelemetrySummary:
        cycles = self.cycles
        tiles = {name: dict(sorted(tl.totals().items()))
                 for name, tl in self.timelines.items()}
        stall_totals = {state: 0 for state in STALL_STATES}
        busy = idle = 0
        for totals in tiles.values():
            for state, n in totals.items():
                if state == BUSY:
                    busy += n
                elif state == IDLE:
                    idle += n
                else:
                    stall_totals[state] += n
        committed = [b for b in self.blocks.values()
                     if b.outcome == "committed"]
        flushed = [b for b in self.blocks.values()
                   if b.outcome == "flushed"]
        blocks = {"committed": len(committed), "flushed": len(flushed)}
        for block in flushed:
            key = f"flushed_{block.flush_reason}"
            blocks[key] = blocks.get(key, 0) + 1
        phases = {}
        full = [s for s in committed
                if s.dispatch_done_t >= 0 and s.completed_t >= 0
                and s.commit_t >= 0 and s.ack_t >= 0]
        if full:
            n = len(full)
            phases = {
                "fetch_to_dispatch": round(sum(
                    s.dispatch_done_t - s.fetch_t for s in full) / n, 2),
                "execute": round(sum(
                    max(0, s.completed_t - s.dispatch_done_t)
                    for s in full) / n, 2),
                "complete_to_commit": round(sum(
                    max(0, s.commit_t - s.completed_t)
                    for s in full) / n, 2),
                "commit_to_ack": round(sum(
                    s.ack_t - s.commit_t for s in full) / n, 2),
                "lifetime": round(sum(
                    s.ack_t - s.fetch_t for s in full) / n, 2),
            }
        return TelemetrySummary(
            cycles=cycles,
            tiles=tiles,
            stall_totals=stall_totals,
            busy_cycles=busy,
            idle_cycles=idle,
            blocks=blocks,
            block_phases=phases,
            opn=self.opn.summarize(cycles),
            ocn=self.ocn.summarize(cycles) if self._owns_ocn else {},
            dram=self.mem.summarize(cycles) if self._owns_mem else {},
            fast_forward={
                "stretches": len(self.skips),
                "cycles": sum(t1 - t0 for t0, t1 in self.skips),
            })
