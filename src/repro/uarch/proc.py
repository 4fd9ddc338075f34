"""tsim-proc: the cycle-level model of one TRIPS processor core.

Organization: the operand network is a cycle-stepped 5x5 wormhole mesh
(:mod:`repro.uarch.mesh`); ETs/RTs/DTs are explicit tile objects
(:mod:`repro.uarch.tiles`); the GT — fetch pipeline, next-block predictor,
block window, completion/flush/commit sequencing — lives here.

Control-network timing convention: the GDN/GCN/GSN/GRN/DSN links connect
nearest neighbours and move one hop per cycle with no contention (the paper
measures their occupancy as insignificant, Section 5.2), so their latencies
are *computed analytically* — e.g. the register-write completion signal
daisy-chains across the RTs toward the GT, so it lands at
``max_b(bank_done[b] + hops(b))`` — rather than stepped link by link.  The
operand and dispatch traffic, where contention matters, is modelled
packet by packet.

Protocol timeline per block (Sections 4.1-4.4):

* **fetch**: predict (3) + tag (1) + hit/miss (1), then 8 pipelined GDN
  dispatch commands; each IT streams 4 instructions/cycle east across its
  row, one hop per cycle.  Peak: a new block every 8 cycles.
* **execute**: dataflow; operands hop the OPN at one cycle per hop with a
  local bypass for same-ET consumers.
* **flush**: GCN wave with a block mask; we apply state changes eagerly and
  drop in-flight packets of flushed blocks by uid (the wave's predictable
  latency guarantees dispatch can never pass it, which eager application
  preserves).
* **commit**: completion (GSN daisy-chains + DSN store counting + one
  branch at the GT), pipelined GCN commit commands, commit acknowledgment
  back over the GSN, then deallocation and refetch into the freed frame.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa import (
    EXIT_ADDRESS,
    NUM_ARCH_REGS,
    Program,
    TripsBlock,
)
from ..mem.backing import BackingStore
from ..serialize import dataclass_from_dict, dataclass_to_dict
from ..telemetry import recorder as _tel
from ..telemetry.recorder import TelemetryRecorder
from .caches import CacheBank
from .config import PROTOTYPE, TripsConfig
from .mesh import WormholeMesh
from .predictor import BT_BRANCH, NextBlockPredictor, Prediction
from .tiles import BranchMsg, DataTile, ExecTile, MemRequest, RegTile
from .trace import BlockEvent, Trace


class ProcError(RuntimeError):
    """Deadlock, budget exhaustion, or an internal invariant failure."""


# ----------------------------------------------------------------------
class DecodedBlock:
    """Pre-decoded block: GDN dispatch plan and lookup tables.

    The GT dispatches a block as one pipelined GDN stream whose timing is
    fixed by the block's layout (Section 4.1), so the whole stream is
    decoded here, once per block address, into ``plan``: one entry per
    arrival cycle, as ``(offset from dispatch_start, write declarations,
    register reads, body instructions, ends dispatch)``, with

    * a write declaration ``(bank, regs)`` for each RT: IT0's command
      lands at ``t_d+1``, and bank b sits 2+b hops east;
    * a register read ``(bank, read slot, read)``: header word j (4 per
      cycle) carries read slot j, then hops to bank ``j // 8``;
    * a body instruction ``(et, slot, inst)``: IT k+1 gets its command at
      ``t_d + 2 + k`` and streams its row's instructions 4 per cycle,
      each one hop east per column.

    Within an entry the items are in stream order — declarations by
    bank, reads by slot, instructions by row then slot — the order in
    which same-cycle events would fire if each item were scheduled on
    its own (``tests/uarch/test_dispatch_plan.py`` checks this).  The
    last entry also ends the block's dispatch.
    """

    def __init__(self, block: TripsBlock, addr: int):
        self.block = block
        self.addr = addr
        self.fallthrough = addr + block.size_bytes
        self.store_mask = block.store_mask
        self.store_lsids = frozenset(
            l for l in range(32) if (self.store_mask >> l) & 1)
        self.write_reg_by_slot = {s: w.reg for s, w in block.writes.items()}
        self.num_reads = len(block.reads)
        # header words + instructions + the four RT declarations
        self.gdn_messages = len(block.reads) + len(block.body) + 4
        regs_by_bank: List[List[int]] = [[] for _ in range(4)]
        for slot, w in sorted(block.writes.items()):
            regs_by_bank[slot // 8].append(w.reg)
        rows: List[List[Tuple[int, object]]] = [[] for _ in range(4)]
        for slot, inst in sorted(block.body.items()):
            rows[(slot % 16) // 4].append((slot, inst))
        # offset -> (declarations, reads, instructions), filled in stream
        # order: all declarations, then reads, then instructions
        groups: Dict[int, Tuple[list, list, list]] = {}
        for bank, regs in enumerate(regs_by_bank):
            groups.setdefault(2 + bank, ([], [], []))[0].append(
                (bank, tuple(regs)))
        for slot, read in sorted(block.reads.items()):
            groups.setdefault(2 + slot // 4 + slot // 8 + 2,
                              ([], [], []))[1].append((slot // 8, slot, read))
        for row, insts in enumerate(rows):
            for n, (slot, inst) in enumerate(insts):
                et = slot % 16
                groups.setdefault(2 + (row + 1) + 1 + n // 4 + (et % 4 + 1),
                                  ([], [], []))[2].append((et, slot, inst))
        #: offset of the last GDN arrival: dispatch is done at t_d + this
        self.dispatch_last = max(groups)
        self.plan = tuple(
            (offset, tuple(decls), tuple(reads), tuple(insts),
             offset == self.dispatch_last)
            for offset, (decls, reads, insts) in sorted(groups.items()))
        # GDN occupancy: each IT streams 4 instructions/cycle, so the
        # dispatch pipe is busy for as long as the fullest IT streams
        # (8 cycles for a maximal 128-instruction block)
        header_words = max([s + 1 for s in block.reads]
                           + [s + 1 for s in block.writes] + [0])
        fullest = max([header_words] + [len(r) for r in rows])
        self.dispatch_cycles = max(2, -(-fullest // 4))


#: id(Program) -> {addr -> DecodedBlock}; evicted when the Program dies
_DECODE_CACHE: Dict[int, Dict[int, "DecodedBlock"]] = {}


def _decode_cache_for(program) -> Dict[int, "DecodedBlock"]:
    key = id(program)
    cache = _DECODE_CACHE.get(key)
    if cache is None:
        cache = _DECODE_CACHE[key] = {}
        # the finalizer fires before the id can be reused, so stale
        # entries can never alias a new Program
        weakref.finalize(program, _DECODE_CACHE.pop, key, None)
    return cache


@dataclass
class BlockInst:
    """One in-flight block."""

    uid: int
    addr: int
    frame: int
    decoded: DecodedBlock
    fetch_t: int
    dispatch_start: int
    dispatch_done: int = -1
    # prediction made for this block's successor
    pred_for_next: Optional[Prediction] = None
    pred_ready_t: int = -1
    lhist_at_predict: int = 0
    resolved_next: Optional[int] = None
    branch_exit: int = -1
    branch_btype: int = BT_BRANCH
    branch_t: int = -1
    branch_key: Optional[Tuple] = None
    # completion tracking
    rt_reports: Dict[int, Tuple[int, Optional[Tuple]]] = field(
        default_factory=dict)                  # bank -> (t, producer key)
    regs_done_t: int = -1
    regs_done_key: Optional[Tuple] = None
    stores_seen: Set[int] = field(default_factory=set)
    last_store_arrival: Optional[Tuple[int, int]] = None
    stores_done_t: int = -1
    stores_done_key: Optional[Tuple] = None
    completed_t: int = -1
    commit_sent_t: int = -1
    ack_t: int = -1
    fired: int = 0
    reads_count: int = 0
    # lifecycle record (set at fetch when tracing or telemetry is on)
    ev: Optional[BlockEvent] = None


@dataclass
class ProcStats:
    cycles: int = 0
    blocks_committed: int = 0
    blocks_flushed: int = 0
    blocks_fetched: int = 0
    insts_committed: int = 0
    reads_committed: int = 0
    flushes_mispredict: int = 0
    flushes_violation: int = 0
    icache_miss_blocks: int = 0
    deferred_loads: int = 0
    lsq_peak: int = 0
    # per-micronetwork message counts (Section 5.2's occupancy argument)
    gdn_messages: int = 0       # dispatched header words + instructions
    gcn_messages: int = 0       # commit + flush commands
    gsn_messages: int = 0       # completion reports + commit acks
    grn_messages: int = 0       # I-cache refill commands
    dsn_messages: int = 0       # store-arrival broadcasts between DTs
    opn_messages: int = 0       # operand/memory/branch packets

    @property
    def ipc(self) -> float:
        return self.insts_committed / self.cycles if self.cycles else 0.0

    def network_traffic(self) -> Dict[str, int]:
        """Estimated bit volume per micronetwork (messages x link bits)."""
        bits = {"GDN": 205, "GCN": 13, "GSN": 6, "GRN": 36, "DSN": 72,
                "OPN": 141}
        counts = {"GDN": self.gdn_messages, "GCN": self.gcn_messages,
                  "GSN": self.gsn_messages, "GRN": self.grn_messages,
                  "DSN": self.dsn_messages, "OPN": self.opn_messages}
        return {net: counts[net] * bits[net] for net in bits}

    # -- JSON round trip (simlab cache records, harness --json) ---------
    def to_dict(self) -> Dict[str, int]:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "ProcStats":
        return dataclass_from_dict(cls, data)


# ----------------------------------------------------------------------
class TripsProcessor:
    """One 16-wide TRIPS core executing one single-threaded program."""

    GT_COORD = (0, 0)

    def __init__(self, program: Program, config: TripsConfig = PROTOTYPE,
                 trace: bool = False, memory: Optional[BackingStore] = None,
                 sysmem=None, sysmem_port_base: int = 0,
                 telemetry: bool = False, checkpoint=None):
        """``memory``/``sysmem`` may be supplied externally to share them
        between the chip's two cores (see :class:`repro.chip.TripsChip`,
        whose ``step`` then drives the core instead of :meth:`step`);
        ``sysmem_port_base`` selects which OCN ports this core's IT/DT
        pairs own (0 for processor 0, 4 for processor 1).
        ``trace=True`` records the :class:`Trace` the critical-path
        analysis walks; ``telemetry=True`` enables the
        :mod:`repro.telemetry` probe layer.  Both read one
        :class:`~repro.uarch.trace.BlockEvent` per fetched block; with
        both off every probe site reduces to one pointer compare.
        ``checkpoint`` resumes from a
        :class:`~repro.sampling.checkpoint.ArchCheckpoint` instead of the
        program entry: registers, memory and warm predictor/cache state
        are overwritten and the first fetch targets the checkpoint PC."""
        program.validate()
        self.program = program
        self.config = config
        self.cycle = 0
        self.memory = memory if memory is not None else BackingStore()
        self.memory.load_image(program.memory_image())
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        for reg, value in program.initial_regs.items():
            self.regs[reg] = value & (2**64 - 1)

        self._fast = config.fast_path
        self.opn = WormholeMesh(5, 5, queue_depth=config.opn_router_depth,
                                lanes=config.opn_links_per_hop,
                                active_set=config.fast_path)
        # detailed NUCA secondary memory (only stepped when L2 is modelled)
        self.sysmem_port_base = sysmem_port_base
        if sysmem is not None:
            self.sysmem = sysmem
        elif config.perfect_l2:
            self.sysmem = None
        else:
            from ..mem.sysmem import SecondaryMemory
            self.sysmem = SecondaryMemory(config=config, backing=self.memory)
        self.ets = [ExecTile(self, i) for i in range(16)]
        self.rts = [RegTile(self, b) for b in range(4)]
        self.dts = [DataTile(self, d) for d in range(4)]
        # coord -> (visit rank, tile kind, tile) in the fixed ET -> RT ->
        # DT -> GT drain order; lets _deliver_packets dispatch straight
        # from the pending set instead of 25 membership probes
        self._deliver_map: Dict[Tuple[int, int], Tuple[int, int, object]] = {}
        for rank, et in enumerate(self.ets):
            self._deliver_map[et.coord] = (rank, 0, et)
        for rank, rt in enumerate(self.rts):
            self._deliver_map[rt.coord] = (16 + rank, 1, rt)
        for rank, dt in enumerate(self.dts):
            self._deliver_map[dt.coord] = (20 + rank, 2, dt)
        self._deliver_map[self.GT_COORD] = (24, 3, None)
        self.icache = [CacheBank(config.l1i_bank_kb * 1024, config.l1i_assoc,
                                 128) for _ in range(5)]
        self.predictor = NextBlockPredictor(config.predictor)

        # per-Program decode cache, shared across processor instances:
        # DecodedBlock is immutable once built (it is already reused by
        # every BlockInst of a run), so re-simulating the same program —
        # perfbench's Table-3 sweep, the fast-path equivalence tests —
        # skips the decode warmup entirely
        self._decoded: Dict[int, DecodedBlock] = _decode_cache_for(program)
        # timed-event calendar: per-cycle buckets of ``(fn, args)`` entries
        # (insertion order == the old (cycle, seq) heap order) plus a heap
        # of distinct due times — an append per event instead of a tuple
        # heap-push, and no closure per event
        self._ev_buckets: Dict[int, List[Tuple]] = {}
        self._ev_times: List[int] = []
        self.trace: Optional[Trace] = Trace() if trace else None

        # block window
        # uids count fetches, so they are also the blocks' program order
        self.window: List[BlockInst] = []       # ordered by uid
        self.window_by_uid: Dict[int, BlockInst] = {}
        self.free_frames = set(range(config.max_blocks_in_flight))
        self.next_uid = 0
        self.store_arrivals: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # window blocks whose branch has not resolved (the speculation
        # depth): +1 at fetch, -1 at resolution or flush
        self.unresolved = 0

        self.dispatch_pipe_free = 0
        # fetch to first dispatch (Section 4.1): next-block prediction,
        # then one cycle of I-cache tag access and one of hit/miss
        self.fetch_latency = config.predict_cycles + 2
        self.frame_freed: Dict[int, Tuple[int, Optional[int]]] = {}
        self.halted = False
        self.halt_uid = -1
        self.stats = ProcStats()
        # bootstrap: first fetch has no prediction; its address is the entry
        self._pending_fetch_addr: Optional[int] = program.entry
        self._pending_fetch_cause: Tuple = ("init",)

        # the block lifecycle records the trace and telemetry share
        # (None = every lifecycle site is a single pointer compare)
        self.block_events: Optional[Dict[int, BlockEvent]] = (
            self.trace.blocks if self.trace is not None
            else {} if telemetry else None)
        # telemetry (None = every probe site is a single pointer compare);
        # the lifecycle sites set _tel_fetch_t/_tel_commit_t with the record
        self.tel: Optional[TelemetryRecorder] = None
        self._tel_fetch_t = -1
        self._tel_commit_t = -1
        if telemetry:
            self.tel = TelemetryRecorder()
            self.tel.attach(self)

        if checkpoint is not None:
            checkpoint.apply(self)

    # ------------------------------------------------------------------
    # helpers used by the tiles
    # ------------------------------------------------------------------
    def schedule(self, at_cycle: int, fn, *args) -> None:
        """Call ``fn(*args)`` in phase A of cycle ``at_cycle`` (at the
        earliest the next cycle); same-cycle calls run in the order they
        were scheduled."""
        floor = self.cycle + 1
        if at_cycle < floor:
            at_cycle = floor
        bucket = self._ev_buckets.get(at_cycle)
        if bucket is None:
            self._ev_buckets[at_cycle] = [(fn, args)]
            heapq.heappush(self._ev_times, at_cycle)
        else:
            bucket.append((fn, args))

    def older_blocks(self, uid: int):
        """In-flight blocks older than ``uid``, youngest first."""
        for block in reversed(self.window):
            if block.uid < uid:
                yield block

    def decoded_at(self, addr: int) -> DecodedBlock:
        decoded = self._decoded.get(addr)
        if decoded is None:
            decoded = DecodedBlock(self.program.block_at(addr), addr)
            self._decoded[addr] = decoded
        return decoded

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until_blocks: Optional[int] = None) -> ProcStats:
        """Run to HALT, or — for the sampling driver — until
        ``stats.blocks_committed`` reaches ``until_blocks`` (the partial
        stats returned are a consistent commit-boundary reading; call
        again to continue)."""
        cfg = self.config
        fast = cfg.fast_path
        cores = (self,)
        while not self.halted:
            if until_blocks is not None \
                    and self.stats.blocks_committed >= until_blocks:
                break
            if self.cycle >= cfg.max_cycles:
                raise ProcError(
                    f"cycle budget {cfg.max_cycles} exhausted "
                    f"(pc window: {[hex(b.addr) for b in self.window]})")
            self.step()
            # cheap pre-gate: with operands in router queues the core can
            # never be quiescent, so skip the full next_work_t() scan.
            # Once the commit count is reached the call returns after this
            # step, as the full-scan engine does: a skip here would run
            # ahead into cycles the next call should start from.
            if fast and not self.halted and self.opn.is_idle() and (
                    until_blocks is None
                    or self.stats.blocks_committed < until_blocks):
                skip_idle(cores, self.sysmem)
        return self.finalize_stats()

    # ------------------------------------------------------------------
    # fast path: idle-cycle fast-forward
    # ------------------------------------------------------------------
    def next_work_t(self) -> Optional[int]:
        """Earliest cycle >= ``self.cycle`` at which this core can do work.

        Returns ``self.cycle`` when any component is busy right now, a
        future cycle when all activity is pinned to known times (event
        heap, predictor latency, block completion), or None when no work
        can ever arise without external input (a memory response, or
        deadlock).  The estimate may be early (waking to a no-op cycle
        is harmless) but is never late: every skipped cycle is provably a
        no-op for all tiles, the OPN and the GT.  The memory system's
        own wakeups are :func:`skip_idle`'s to add.
        """
        t = self.cycle
        events = self._ev_times
        if events and events[0] <= t:
            return t        # a timed event is due this very cycle
        if not self.opn.is_idle():
            return t
        # Issuable instructions, queued register reads and unsent packets
        # are per-cycle work.  Stations still missing operands and reads
        # waiting on an in-flight write are not: they wake only on an OPN
        # delivery or a timed event, and neither happens inside a skip.
        for et in self.ets:
            if et.candidates or et.outbox:
                return t
        for rt in self.rts:
            if rt.read_requests or rt.outbox:
                return t
        times = []
        # deferred loads wake at the cycle their gating stores are all
        # within DSN reach
        for dt in self.dts:
            work = dt.next_work_t(t)
            if work is not None:
                if work <= t:
                    return t
                times.append(work)
        if events:
            times.append(events[0])
        gt = self._gt_next_work_t(t)
        if gt is not None:
            times.append(gt)
        if not times:
            return None
        return max(t, min(times))

    def _gt_next_work_t(self, t: int) -> Optional[int]:
        """Earliest cycle the GT could commit or fetch, barring new events.

        Mirrors the time-dependent gates of :meth:`_try_commit` (a block
        commits once ``t`` reaches its ``completed_t``) and
        :meth:`_try_fetch` (prediction latency and the GDN-backlog
        window), whose inputs only change through timed events or packet
        deliveries — both absent during a skipped stretch.
        """
        times = []
        # pipelined commit: the first block without a commit command sent
        # gates all younger ones
        for block in self.window:
            if block.commit_sent_t >= 0:
                continue
            if block.completed_t >= 0:
                times.append(block.completed_t)
            break
        if self.free_frames:
            addr_t = None
            if self._pending_fetch_addr is not None:
                addr_t = t
            elif self.window:
                tail = self.window[-1]
                if tail.resolved_next is not None:
                    if tail.resolved_next != EXIT_ADDRESS:
                        addr_t = t
                elif tail.pred_for_next is not None:
                    target = tail.pred_for_next.target
                    if target != EXIT_ADDRESS \
                            and target in self.program.blocks \
                            and self.unresolved \
                            <= self.config.speculative_blocks:
                        addr_t = max(t, tail.pred_ready_t)
            if addr_t is not None:
                backlog_clear = self.dispatch_pipe_free - self.fetch_latency
                times.append(max(addr_t, backlog_clear))
        if not times:
            return None
        return max(t, min(times))

    def finalize_stats(self) -> ProcStats:
        """Fold end-of-run tile state into the stats record."""
        self.stats.cycles = self.cycle
        self.stats.opn_messages = self.opn.stats.injected
        self.stats.lsq_peak = max(
            (dt.lsq.peak_occupancy for dt in self.dts), default=0)
        self.stats.deferred_loads = sum(dt.deferred_count
                                        for dt in self.dts)
        return self.stats

    def step(self) -> None:
        """One cycle of a lone core, which steps the memory system it
        holds.  :meth:`repro.chip.TripsChip.step` runs the same sequence
        over its cores and their shared memory system."""
        self.step_core()
        if self.sysmem is not None:
            self.sysmem.step()
        self.end_cycle()

    def step_core(self) -> None:
        """Phases A–D of the current cycle, up to the OPN's advance."""
        t = self.cycle
        # phase A: timed events (completions, dispatch arrivals, commits).
        # An executing event can only schedule at cycle+1 or later, so the
        # bucket under iteration is never appended to mid-drain.
        times = self._ev_times
        if times and times[0] <= t:
            buckets = self._ev_buckets
            heappop = heapq.heappop
            while times and times[0] <= t:
                for fn, args in buckets.pop(heappop(times)):
                    fn(*args)
        # phase B: operand network deliveries
        if not self._fast or self.opn.delivery_pending:
            self._deliver_packets(t)
        # phase C: tile work (fast path: skip tiles with provably nothing
        # to do this cycle — their tick() is a no-op by inspection)
        if self._fast:
            for rt in self.rts:
                if rt.read_requests or rt.outbox:
                    rt.tick(t)
            for et in self.ets:
                if et.candidates or et.outbox:
                    et.tick(t)
            for dt in self.dts:
                if dt.requests or dt.deferred or dt.outbox:
                    dt.tick(t)
        else:
            for rt in self.rts:
                rt.tick(t)
            for et in self.ets:
                et.tick(t)
            for dt in self.dts:
                dt.tick(t)
        self._try_fetch(t)
        self._try_commit(t)
        # phase D: network advance (the memory system steps after every
        # core has, before any core ends its cycle)
        self.opn.step()

    def end_cycle(self) -> None:
        """Take this core's memory responses, classify the cycle for
        telemetry, and advance the clock."""
        if self.sysmem is not None:
            self.poll_sysmem()
        if self.tel is not None:
            self.tel.record_cycle(self.cycle)
        self.cycle += 1

    def poll_sysmem(self) -> None:
        """Collect OCN responses for this core's ports."""
        if not self.sysmem.has_responses():
            return
        for dt in self.dts:
            for fn, args in self.sysmem.take_responses(
                    self.sysmem_port_base + dt.index):
                fn(*args)

    def _deliver_packets(self, t: int) -> None:
        if self._fast:
            # Dispatch straight from the pending set (rather than 25
            # membership probes) — sorting by the precomputed rank keeps
            # the ET -> RT -> DT -> GT visit order the same as always.
            pending = self.opn.delivery_pending
            if not pending:
                return
            take = self.opn.take_delivered
            dmap = self._deliver_map
            if len(pending) == 1:
                visits = (dmap[next(iter(pending))],)
            else:
                visits = sorted(dmap[coord] for coord in pending)
            for _rank, kind, tile in visits:
                if kind == 0:
                    for pkt in take(tile.coord):
                        tile.deliver_operand(pkt.payload, t, pkt.hops,
                                             pkt.qcycles)
                elif kind == 1:
                    for pkt in take(tile.coord):
                        tile.deliver_write(pkt.payload, t)
                elif kind == 2:
                    for pkt in take(tile.coord):
                        tile.deliver_request(pkt.payload, pkt.hops,
                                             pkt.qcycles, t)
                else:
                    for pkt in take(self.GT_COORD):
                        self._on_branch(pkt.payload, t)
            return
        # escape hatch: the original engine's unconditional coordinate scan
        for et in self.ets:
            for pkt in self.opn.take_delivered(et.coord):
                msg = pkt.payload
                et.deliver_operand(msg, t, pkt.hops, pkt.queue_cycles)
        for rt in self.rts:
            for pkt in self.opn.take_delivered(rt.coord):
                rt.deliver_write(pkt.payload, t)
        for dt in self.dts:
            for pkt in self.opn.take_delivered(dt.coord):
                dt.deliver_request(pkt.payload, pkt.hops, pkt.queue_cycles, t)
        for pkt in self.opn.take_delivered(self.GT_COORD):
            self._on_branch(pkt.payload, t)

    # ------------------------------------------------------------------
    # GT: fetch
    # ------------------------------------------------------------------
    def tel_gt_state(self, t: int) -> str:
        """Telemetry classification of the GT for cycle ``t``: busy when
        it fetched or committed, ``gdn_backlog`` while :meth:`_try_fetch`
        withholds a free frame from the backlogged dispatch pipe."""
        if self._tel_fetch_t == t or self._tel_commit_t == t:
            return _tel.BUSY
        if self.free_frames \
                and self.dispatch_pipe_free > t + self.fetch_latency:
            return _tel.GDN_BACKLOG
        return _tel.IDLE

    def _next_fetch_target(self, t: int) -> Optional[Tuple[int, Tuple]]:
        """(address, trace-cause) of the next block to fetch, if known.

        The cause tuple's last element is the cycle the address became
        known, which the critical-path walker compares against frame
        availability to decide whether fetch was prediction-bound (IFetch)
        or window-bound (Block Commit).
        """
        if self._pending_fetch_addr is not None:
            return self._pending_fetch_addr, self._pending_fetch_cause
        if not self.window:
            return None
        tail = self.window[-1]
        if tail.resolved_next is not None:
            if tail.resolved_next == EXIT_ADDRESS:
                return None
            return tail.resolved_next, ("resolved", tail.uid, tail.branch_t)
        if tail.pred_for_next is not None and t >= tail.pred_ready_t:
            target = tail.pred_for_next.target
            if target == EXIT_ADDRESS:
                return None                     # predicted program end
            if self.unresolved > self.config.speculative_blocks:
                return None                     # speculation depth limit
            return target, ("pred", tail.uid, tail.pred_ready_t)
        return None

    def _try_fetch(self, t: int) -> None:
        if not self.free_frames:
            return
        # Don't claim a window slot while the dispatch pipe is backlogged:
        # a frame parked behind the GDN does no work and just shrinks the
        # effective in-flight window.
        if self.dispatch_pipe_free > t + self.fetch_latency:
            return
        nxt = self._next_fetch_target(t)
        if nxt is None:
            return
        addr, cause = nxt
        if addr not in self.program.blocks:
            # A wild predicted target: treat as unpredictable; wait for
            # branch resolution (hardware would fetch garbage and flush).
            if cause[0] == "pred":
                return
            raise ProcError(f"fetch from invalid address {addr:#x}")
        decoded = self.decoded_at(addr)
        frame = min(self.free_frames)
        self.free_frames.discard(frame)
        self._pending_fetch_addr = None
        # was this fetch waiting on the frame (window full -> commit-bound)
        # or on the address (prediction / resolution -> fetch-bound)?
        # pop: each freed-frame record is consulted exactly once, by the
        # fetch that reclaims the frame, so the dict stays bounded by the
        # number of currently-free frames instead of accumulating forever
        frame_info = self.frame_freed.pop(frame, None)
        addr_known_t = cause[-1] if isinstance(cause[-1], int) else 0
        if frame_info is not None and frame_info[0] > addr_known_t:
            cause = ("frame", frame_info[1], frame_info[0])

        uid = self.next_uid
        self.next_uid += 1

        # I-cache: every chunk's IT bank must hold its line.
        miss_its = [k for k in range(1 + decoded.block.num_body_chunks)
                    if not self.icache[k].lookup(addr)]
        dispatch_start = max(t + self.fetch_latency, self.dispatch_pipe_free)
        if miss_its:
            self.stats.icache_miss_blocks += 1
            self.stats.grn_messages += len(miss_its)
            fill_done = 0
            for k in miss_its:
                # GRN broadcast (1 + k hops) + line fetch + GSN chain north
                fill = t + 1 + k + self.config.l2_hit_cycles
                self.icache[k].fill(addr)
                fill_done = max(fill_done, fill + k + 1)
            dispatch_start = max(dispatch_start, fill_done)
        self.dispatch_pipe_free = dispatch_start + min(
            self.config.dispatch_commands, decoded.dispatch_cycles)

        block = BlockInst(uid=uid, addr=addr, frame=frame,
                          decoded=decoded, fetch_t=t,
                          dispatch_start=dispatch_start)
        self.window.append(block)
        self.window_by_uid[uid] = block
        self.unresolved += 1
        self.stats.blocks_fetched += 1

        # prediction for this block's successor overlaps its dispatch
        bi = (addr >> 7)
        block.lhist_at_predict = self.predictor.lht[
            bi % self.predictor.n_lht]
        block.pred_for_next = self.predictor.predict(addr,
                                                     decoded.fallthrough)
        block.pred_ready_t = t + self.config.predict_cycles

        self._schedule_dispatch(block)
        events = self.block_events
        if events is not None:
            block.ev = events[uid] = BlockEvent(
                uid=uid, addr=addr, frame=frame, cause=cause,
                fetch_t=t, dispatch_start=dispatch_start)
            self._tel_fetch_t = t

    def _schedule_dispatch(self, block: BlockInst) -> None:
        """GDN streaming: one timed event per arrival cycle of the block's
        dispatch plan (see :class:`DecodedBlock`)."""
        t_d = block.dispatch_start
        decoded = block.decoded
        self.stats.gdn_messages += decoded.gdn_messages
        block.reads_count = decoded.num_reads
        block.dispatch_done = t_d + decoded.dispatch_last
        for group in decoded.plan:
            self.schedule(t_d + group[0], self._dispatch_group, block, group)

    def _dispatch_group(self, block: BlockInst, group: Tuple) -> None:
        """Deliver one cycle's GDN arrivals of ``block``."""
        _offset, decls, reads, insts, done = group
        t = self.cycle
        uid = block.uid
        # reads are queued even for a flushed block: the RT drops them at
        # its read port, where they still take their port cycle
        live = uid in self.window_by_uid
        if live:
            for bank, regs in decls:
                self.rts[bank].declare_writes(uid, regs, t)
        for bank, slot, read in reads:
            self.rts[bank].dispatch_read(uid, slot, read, t)
        if live and insts:
            release = ("dispatch", t)
            ets = self.ets
            for et, slot, inst in insts:
                ets[et].dispatch_inst(uid, slot, inst, t, release)
        if done:
            self._dispatch_done(block)

    def _dispatch_done(self, block: BlockInst) -> None:
        if block.uid not in self.window_by_uid:
            return
        ev = block.ev
        if ev is not None:
            ev.dispatch_done_t = self.cycle
        # blocks with no stores: the DTs learn the (empty) store mask from
        # the dispatched header and can signal store completion immediately
        self._check_stores_done(block)

    # ------------------------------------------------------------------
    # GT: completion detection (protocol phase 1)
    # ------------------------------------------------------------------
    def rt_reports_writes_done(self, bank: int, block_uid: int, t: int,
                               producer_key=None) -> None:
        block = self.window_by_uid.get(block_uid)
        if block is None:
            return
        self.stats.gsn_messages += 1
        block.rt_reports[bank] = (t, producer_key)
        if len(block.rt_reports) == 4:
            # GSN daisy-chain toward the GT: bank b is b+1 hops out
            done_t, key = max(
                ((rt + b + 1, k) for b, (rt, k) in block.rt_reports.items()),
                key=lambda p: p[0])
            block.regs_done_t = done_t
            block.regs_done_key = key
            self._check_complete(block)

    def note_store_arrival(self, msg: MemRequest, src_dt: int, t: int) -> None:
        self.stats.dsn_messages += 3     # broadcast to the other three DTs
        self.store_arrivals[(msg.block_uid, msg.lsid)] = (t, src_dt)
        block = self.window_by_uid.get(msg.block_uid)
        if block is None:
            return
        block.stores_seen.add(msg.lsid)
        block.stores_done_key = msg.producer_key
        block.last_store_arrival = (t, src_dt)
        self._check_stores_done(block)

    def _check_stores_done(self, block: BlockInst) -> None:
        if block.stores_done_t >= 0:
            return
        if block.stores_seen >= block.decoded.store_lsids:
            if block.last_store_arrival is None:
                # no stores: DT0 signals once the dispatched mask is known
                block.stores_done_t = block.dispatch_start + 3 + 1
            else:
                t, src = block.last_store_arrival
                # DSN to DT0 (src hops) + GSN to the GT (1 hop)
                block.stores_done_t = t + src + 1
            self._check_complete(block)

    def _on_branch(self, msg: BranchMsg, t: int) -> None:
        block = self.window_by_uid.get(msg.block_uid)
        if block is None:
            return
        if block.resolved_next is not None:
            raise ProcError(f"block {block.addr:#x} fired two branches")
        block.resolved_next = msg.target
        self.unresolved -= 1
        block.branch_exit = msg.exit_no
        block.branch_btype = msg.btype
        block.branch_t = t
        block.branch_key = msg.producer_key
        # mispredict detection: did we fetch (or will we fetch) the wrong
        # successor?
        predicted = block.pred_for_next.target if block.pred_for_next else None
        younger = [b for b in self.window if b.uid > block.uid]
        if younger and younger[0].addr != msg.target:
            self._flush_after(block, msg.target, "mispredict", t)
        elif not younger and predicted is not None and predicted != msg.target:
            # prediction not yet consumed: repair history silently
            self.predictor.restore(block.pred_for_next.checkpoint)
            self.predictor.note_actual((block.addr >> 7), msg.exit_no)
        self._check_complete(block)

    def _check_complete(self, block: BlockInst) -> None:
        if block.completed_t >= 0 or block.uid not in self.window_by_uid:
            return
        if block.regs_done_t < 0 or block.stores_done_t < 0 \
                or block.branch_t < 0:
            return
        parts = [(block.regs_done_t, ("regs", block.regs_done_key)),
                 (block.stores_done_t, ("stores", block.stores_done_key)),
                 (block.branch_t, ("branch", block.branch_key))]
        block.completed_t, reason = max(parts, key=lambda p: p[0])
        block.completed_t = max(block.completed_t, self.cycle)
        ev = block.ev
        if ev is not None:
            ev.completed_t = block.completed_t
            ev.complete_reason = reason

    # ------------------------------------------------------------------
    # GT: commit (protocol phases 2 and 3)
    # ------------------------------------------------------------------
    def _try_commit(self, t: int) -> None:
        # Pipelined commit (Section 4.4): a commit command may be sent for
        # a block as soon as commands for all older blocks have been sent —
        # the loop walks oldest-first and stops at the first non-committable.
        for block in self.window:
            if block.commit_sent_t >= 0:
                continue
            if block.completed_t < 0 or t < block.completed_t:
                break
            block.commit_sent_t = t
            self._send_commit(block, t)

    def _send_commit(self, block: BlockInst, t: int) -> None:
        self.stats.gcn_messages += 1
        self.stats.gsn_messages += 8     # per-tile commit acknowledgments
        # GCN wave: RT bank b at b+1 hops, DT d at d+1 hops.  Each tile
        # commits its architectural state (one write per port per cycle),
        # then the commit-completion daisy-chain returns over the GSN.
        rt_ack = 0
        for bank, rt in enumerate(self.rts):
            arrive = t + bank + 1
            done = rt.commit_block(block.uid, arrive)
            rt_ack = max(rt_ack, done + bank + 1)
        dt_ack = 0
        for d, dt in enumerate(self.dts):
            arrive = t + d + 1
            done = dt.commit_block(block.uid, arrive)
            dt_ack = max(dt_ack, done + d + 1)
        block.ack_t = max(rt_ack, dt_ack)
        # the commit command also flushes the block's leftover speculative
        # state in the ETs (un-issued predicated-path instructions); its
        # candidates and unsent packets can only be on ETs holding its
        # stations
        uid = block.uid
        uids = (uid,)
        for et in self.ets:
            if uid in et.stations:
                et.flush(uids)
        for lsid in block.decoded.store_lsids:
            self.store_arrivals.pop((uid, lsid), None)
        ev = block.ev
        if ev is not None:
            ev.commit_t = t
            ev.ack_t = block.ack_t
            ev.outcome = "committed"
            self._tel_commit_t = t
        self.schedule(block.ack_t, self._deallocate, block)

    def _deallocate(self, block: BlockInst) -> None:
        if block.uid not in self.window_by_uid:
            return
        del self.window_by_uid[block.uid]
        # deallocation is almost always of the window head; remove by
        # index instead of rebuilding the whole list
        window = self.window
        if window and window[0] is block:
            del window[0]
        else:
            for i, b in enumerate(window):  # rare out-of-order ack
                if b is block:
                    del window[i]
                    break
        self.free_frames.add(block.frame)
        self.frame_freed[block.frame] = (self.cycle, block.uid)
        for rt in self.rts:
            rt.deallocate(block.uid)
        self.stats.blocks_committed += 1
        self.stats.insts_committed += block.fired
        self.stats.reads_committed += block.reads_count
        # predictor training with the architectural outcome
        self.predictor.train(
            block.addr, block.branch_exit, block.resolved_next,
            block.branch_btype,
            block.pred_for_next.exit_no if block.pred_for_next else 0,
            block.pred_for_next.target if block.pred_for_next else 0,
            block.lhist_at_predict)
        if block.resolved_next == EXIT_ADDRESS:
            self.halted = True
            self.halt_uid = block.uid
            if self.trace is not None:
                self.trace.final_block_uid = block.uid
        elif not window and self._pending_fetch_addr is None \
                and block.resolved_next is not None:
            # The tail deallocated before its successor could be fetched
            # (possible when a flush serialized the GDN pipe just as the
            # last survivor committed): pin the resolved target or the PC
            # leaves the window with the block and fetch deadlocks.
            self._pending_fetch_addr = block.resolved_next
            self._pending_fetch_cause = ("resolved", block.uid,
                                         block.branch_t)

    # ------------------------------------------------------------------
    # flush protocol
    # ------------------------------------------------------------------
    def request_violation_flush(self, uid: int, dt_index: int, t: int) -> None:
        """A DT detected a load-ordering violation in block ``uid``."""
        victim = self.window_by_uid.get(uid)
        if victim is None:
            return
        self.stats.flushes_violation += 1
        # GSN notification from the DT to the GT costs dt_index+1 hops;
        # we apply eagerly and charge the latency on the refetch.
        self._flush_from(victim, victim.addr, "violation", t + dt_index + 1)

    def _flush_after(self, block: BlockInst, correct_target: int,
                     reason: str, t: int) -> None:
        """Flush every block younger than ``block``; refetch the target."""
        self.stats.flushes_mispredict += 1
        doomed = [b for b in self.window if b.uid > block.uid]
        self._do_flush(block, doomed, correct_target, reason, t)

    def _flush_from(self, victim: BlockInst, refetch: int, reason: str,
                    t: int) -> None:
        # The surviving tail is the block just before the victim in the
        # window; uids are never reused, so after an earlier flush it need
        # not be uid ``victim.uid - 1``.  The victim's own address is only an
        # authoritative refetch target when nothing older survives (the
        # victim was the non-speculative head).  Otherwise the surviving
        # tail's branch resolution decides: the victim may have been a
        # wrong-path block whose "address" must not override the
        # predecessor's eventual resolution.
        i = self.window.index(victim)
        tail = self.window[i - 1] if i else None
        self._do_flush(tail, self.window[i:],
                       refetch if tail is None else None, reason, t)

    def _do_flush(self, keep_tail: Optional[BlockInst],
                  doomed: List[BlockInst], new_target: Optional[int],
                  reason: str, t: int) -> None:
        """Flush ``doomed``; ``new_target`` pins the next fetch address
        (None = let the surviving tail's prediction/resolution drive it)."""
        if not doomed and new_target == EXIT_ADDRESS:
            return
        self.stats.gcn_messages += 1     # the flush wave
        uids = {b.uid for b in doomed}
        # predictor repair: restore the oldest disturbed checkpoint, then
        # push the architecturally-correct exit of the resolving block
        restore_from = keep_tail if keep_tail is not None else None
        if restore_from is not None and restore_from.pred_for_next:
            self.predictor.restore(restore_from.pred_for_next.checkpoint)
            if restore_from.branch_exit >= 0:
                self.predictor.note_actual(restore_from.addr >> 7,
                                           restore_from.branch_exit)
        for block in doomed:
            if block.resolved_next is None:
                self.unresolved -= 1
            self.window_by_uid.pop(block.uid, None)
            self.free_frames.add(block.frame)
            self.frame_freed[block.frame] = (t, None)
            self.stats.blocks_flushed += 1
            ev = block.ev
            if ev is not None:
                ev.outcome = "flushed"
                ev.flush_reason = reason
                ev.flush_t = t
        if doomed:
            # the doomed set is always a contiguous suffix of the
            # (uid-ordered) window: truncate in place
            del self.window[len(self.window) - len(doomed):]
        for et in self.ets:
            et.flush(uids)
        for rt in self.rts:
            rt.flush(uids)
        for dt in self.dts:
            dt.flush(uids)
        for key in [k for k in self.store_arrivals if k[0] in uids]:
            del self.store_arrivals[key]
        resolver_key = keep_tail.branch_key if keep_tail is not None else None
        if new_target is None or new_target == EXIT_ADDRESS:
            self._pending_fetch_addr = None
        else:
            self._pending_fetch_addr = new_target
            self._pending_fetch_cause = (f"flush_{reason}", resolver_key, t)
        # the flush wave and refetch cannot overlap the doomed dispatches:
        # the GDN pipe is serialized behind the flush point
        self.dispatch_pipe_free = max(self.dispatch_pipe_free, t + 1)

    # ------------------------------------------------------------------
    # DT support: memory ordering
    # ------------------------------------------------------------------
    def prior_stores_arrived(self, key: Tuple[int, int], dt_index: int,
                             t: int) -> bool:
        """Have all program-order-earlier stores reached the LSQs, as
        visible from DT ``dt_index`` through the DSN, by cycle ``t``?"""
        wake = self.deferred_wake_t(key, dt_index)
        return wake is not None and wake <= t

    def deferred_wake_t(self, key: Tuple[int, int],
                        dt_index: int) -> Optional[int]:
        """Earliest cycle by which every program-order-earlier store of
        the uncommitted window has reached DT ``dt_index`` through the
        DSN, or None while one has not yet arrived anywhere (its eventual
        delivery wakes the mesh, so the fast engine needs no estimate
        for it)."""
        uid = key[0]
        wake = 0
        for block in self.window:
            if block.uid > uid:
                break
            if block.commit_sent_t >= 0:
                continue
            for s_lsid in block.decoded.store_lsids:
                if (block.uid, s_lsid) >= key:
                    continue
                arrival = self.store_arrivals.get((block.uid, s_lsid))
                if arrival is None:
                    return None
                arr_t, src = arrival
                need = arr_t + abs(src - dt_index)
                if need > wake:
                    wake = need
        return wake


def skip_idle(cores, sysmem) -> int:
    """Jump ``cores`` and ``sysmem`` (None on the flat-latency L2) over a
    stretch none of them can act in.

    The one idle skip of both run loops: a lone core passes itself and
    the memory system it holds; :class:`repro.chip.TripsChip` passes its
    live cores, which share one clock, and the shared memory system.  The
    target is the earliest cycle any of them can do work
    (:meth:`TripsProcessor.next_work_t`,
    :meth:`~repro.mem.sysmem.SecondaryMemory.next_work_t`), clamped to
    the cycle budget: when none ever can, the clock burns straight to the
    budget, as stepping would.  The skipped cycles still count — stats
    read ``cycle``, so a 10,000-cycle DRAM wait reports 10,000 cycles
    whether they were stepped or skipped — and telemetry charges them
    with the stepped classifier.  Returns the cycle reached.
    """
    t = cores[0].cycle
    target = cores[0].config.max_cycles
    for core in cores:
        work = core.next_work_t()
        if work is not None:
            if work <= t:
                return t
            target = min(target, work)
    if sysmem is not None:
        work = sysmem.next_work_t()
        if work is not None:
            if work <= t:
                return t
            target = min(target, work)
    if target <= t:
        return t
    for core in cores:
        if core.tel is not None:
            core.tel.account_skip(t, target)
        core.cycle = target
        core.opn.fast_forward(target)
    if sysmem is not None:
        sysmem.fast_forward(target)
    return target
