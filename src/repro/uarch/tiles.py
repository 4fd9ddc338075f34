"""Execution, register and data tiles of the detailed model (Figure 4).

Each tile class owns exactly the state its silicon counterpart holds and
talks to the rest of the core only through messages (OPN packets) and the
analytically-timed control networks managed by
:class:`repro.uarch.proc.TripsProcessor` (see that module's docstring for
the timing conventions).

A tile holds no reference to its core: the core owns its tiles, and every
call that needs the core — a tick, a delivery, a dispatch, a commit, a
timed event or a memory response — takes it as its first argument
``proc``.  So a finished core is freed by reference counting alone.  A
timed event or memory response takes its own arguments as one tuple
(see :meth:`~repro.uarch.proc.TripsProcessor.schedule`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Dict, List, Optional, Tuple

from ..isa import MAX_MEM_OPS, Opcode, OperandKind
from ..isa.opcodes import (COMPLETE_ALU, COMPLETE_BRANCH, COMPLETE_LOAD,
                           COMPLETE_NULL, COMPLETE_STORE)
from ..telemetry import recorder as _tel
from ..tir.semantics import truncate_load
from .lsq import DependencePredictor, LoadStoreQueue
from .mesh import Packet
from .predictor import BT_BRANCH, BT_CALL, BT_RETURN

MASK64 = (1 << 64) - 1

# Enum class attributes are slow to look up; the hot paths use these.
_LEFT, _RIGHT, _WRITE = OperandKind.LEFT, OperandKind.RIGHT, OperandKind.WRITE
_HALT, _BRO, _CALLO, _RET = Opcode.HALT, Opcode.BRO, Opcode.CALLO, Opcode.RET


# ----------------------------------------------------------------------
# Tile layout on the 5x5 operand network: GT at (0, 0), RT bank b at
# (0, 1+b), DT d at (1+d, 0), ET i at (1+i//4, 1+i%4).
# ----------------------------------------------------------------------
def et_coord(et: int) -> Tuple[int, int]:
    return (1 + et // 4, 1 + et % 4)


def rt_coord(bank: int) -> Tuple[int, int]:
    return (0, 1 + bank)


#: DT owning each 64-byte line interleave slot (``(address >> 6) % 4``)
DT_COORDS = tuple((1 + d, 0) for d in range(4))


def _route_to(kind: OperandKind, slot: int) -> Tuple:
    if kind is _WRITE:
        return (rt_coord(slot // 8), ("W", slot), kind)
    return (et_coord(slot % 16), slot, kind)


#: Where an operand for each of the 416 possible targets goes, indexed by
#: the target's nine-bit encoding (``kind.type_bits | slot``): the
#: destination tile's coordinate, the ``OperandMsg.target`` (body slot or
#: ``("W", write slot)``) and the operand kind.  Body slot s lives on ET
#: s % 16, write slot w on RT w // 8.  ET results, RT reads and DT load
#: replies all route through this one table.
ROUTES = tuple(_route_to(kind, slot) for kind in OperandKind
               for slot in range(32 if kind is _WRITE else 128))


# ----------------------------------------------------------------------
# Messages carried as OPN packet payloads
# ----------------------------------------------------------------------
@dataclass(slots=True)
class OperandMsg:
    """A 64-bit operand (or null token) headed for one target."""

    block_uid: int
    target: object                 # body slot int, or ("W", write slot)
    kind: OperandKind
    value: int
    is_null: bool
    producer_key: Tuple
    send_t: int


@dataclass(slots=True)
class MemRequest:
    block_uid: int
    lsid: int
    is_store: bool
    address: Optional[int]         # None for nullified stores
    size: int
    data: int
    is_null: bool
    signed: bool
    targets: Tuple                 # load reply destinations
    producer_key: Tuple
    send_t: int


@dataclass(slots=True)
class BranchMsg:
    block_uid: int
    exit_no: int
    target: int
    btype: int
    producer_key: Tuple
    send_t: int


# ----------------------------------------------------------------------
# Execution tile
# ----------------------------------------------------------------------
class _Station:
    """One reservation station: an instruction plus its operand buffer."""

    __slots__ = ("inst", "left", "right", "pred", "left_null",
                 "right_null", "fired", "dead", "dispatch_t", "release",
                 "ready_t", "waiting")

    def __init__(self):
        self.inst = None
        self.left = None
        self.right = None
        self.pred = None
        self.left_null = False
        self.right_null = False
        self.fired = False
        self.dead = False
        self.dispatch_t = -1
        self.release = ("dispatch", -1)
        self.ready_t = -1
        self.waiting = False       # telemetry: dispatched but not ready


class ExecTile:
    """One of the 16 ETs: single-issue pipeline + 64 reservation stations.

    A station is issue-ready once its instruction and every operand it
    needs (left, right, predicate) have arrived; the two arrival sites,
    :meth:`dispatch_inst` and :meth:`deliver_operand`, test that inline.
    """

    def __init__(self, index: int):
        self.index = index
        self.coord = et_coord(index)
        # block uid -> {slot -> _Station}: two-level so a block's stations
        # vanish in O(1) at commit/flush instead of an O(stations) sweep
        self.stations: Dict[int, Dict[object, _Station]] = {}
        # issue-ready stations as (uid, slot, station): issue selection is
        # one min() over the set — the (uid, slot) prefix is the
        # age-ordered priority and is unique, so the station itself is
        # never compared.  A station is a member from the arrival that
        # made it ready (ready_t >= 0) until it issues (fired or dead) or
        # its block's stations are dropped, so every member's station is
        # live and ready.
        self.candidates: set = set()
        self.div_busy_until = 0
        self.outbox: deque = deque()
        # telemetry (maintained only when the core's tel is not None)
        self._tel_waiting = 0      # dispatched stations missing operands
        self._tel_issue_t = -1     # cycle of the most recent issue

    # -- state arrival --------------------------------------------------
    def dispatch_inst(self, proc, block_uid: int, slot: int, inst,
                      t: int, release: Tuple) -> None:
        """Place a GDN-delivered instruction in its station.  The caller
        (the processor's dispatch group) has checked the block is live;
        ``release`` is the group's shared ``("dispatch", t)``."""
        per_block = self.stations.get(block_uid)
        if per_block is None:
            per_block = self.stations[block_uid] = {}
        station = per_block.get(slot)
        if station is None:
            station = per_block[slot] = _Station()
        station.inst = inst
        station.dispatch_t = t
        # a station has neither fired nor died before its instruction
        # arrives, so only the operands decide readiness
        need = inst.opcode.num_operands
        if (need and station.left is None) \
                or (need > 1 and station.right is None) \
                or (inst.pred is not None and station.pred is None):
            if proc.tel is not None:
                station.waiting = True
                self._tel_waiting += 1
            return
        station.release = release
        station.ready_t = t
        self.candidates.add((block_uid, slot, station))

    def deliver_operand(self, proc, msg: OperandMsg, t: int,
                        hops: int = 0, queue: int = 0, local: bool = False) -> None:
        block_uid = msg.block_uid
        if block_uid not in proc.window_by_uid:
            return                       # stale packet from a flushed block
        slot = msg.target
        per_block = self.stations.get(block_uid)
        if per_block is None:
            per_block = self.stations[block_uid] = {}
        station = per_block.get(slot)
        if station is None:
            station = per_block[slot] = _Station()
        kind = msg.kind
        if kind is _LEFT:
            station.left = msg.value
            station.left_null = msg.is_null
        elif kind is _RIGHT:
            station.right = msg.value
            station.right_null = msg.is_null
        else:
            station.pred = (msg.value, msg.is_null)
        inst = station.inst
        if inst is None or station.fired or station.dead:
            return
        need = inst.opcode.num_operands
        if (need and station.left is None) \
                or (need > 1 and station.right is None) \
                or (inst.pred is not None and station.pred is None):
            return
        if station.waiting:
            station.waiting = False
            self._tel_waiting -= 1
        # the last-arriving requirement, which the critical-path analyzer
        # walks backwards along
        station.release = ("local", msg.producer_key, t) if local else \
            ("operand", msg.producer_key, msg.send_t, hops, queue, t)
        station.ready_t = t
        self.candidates.add((block_uid, slot, station))

    # -- issue ------------------------------------------------------------
    def tick(self, proc, t: int) -> None:
        if self.outbox:
            self._drain_outbox(proc.opn)
        candidates = self.candidates
        if not candidates:
            return
        best = min(candidates)
        station = best[2]
        if self.div_busy_until > t and not station.inst.opcode.pipelined:
            # rare structural hazard: the oldest candidate is a divide
            # waiting on the busy divider (the one unpipelined unit);
            # issue the next-oldest non-divide instead (the original
            # scan's behaviour)
            best = None
            for cand in sorted(candidates):
                if not cand[2].inst.opcode.pipelined:
                    continue
                best = cand
                break
            if best is None:
                return
            station = best[2]
        candidates.discard(best)
        key = best[:2]
        inst = station.inst
        # Predicate check at issue: mismatch kills the instruction.
        if inst.pred is not None:
            pvalue, pnull = station.pred
            if pnull or bool(pvalue & 1) != inst.pred:
                station.dead = True
                return
        station.fired = True
        if proc.tel is not None:
            self._tel_issue_t = t
        block = proc.window_by_uid.get(key[0])
        if block is not None:
            block.fired += 1
        op = inst.opcode
        latency = op.latency
        if not op.pipelined:
            self.div_busy_until = t + latency
        if proc.trace is not None:
            ev = proc.trace.inst(key, op.mnemonic)
            ev.et = self.index
            ev.dispatch_t = station.dispatch_t
            ev.ready_t = station.ready_t
            ev.issue_t = t
            ev.complete_t = t + latency
            ev.release = station.release
        # every latency is at least one cycle, so the completion goes
        # straight onto a future bucket of the processor's calendar
        # (tests/uarch/test_dispatch_plan.py pins the bound)
        done = t + latency
        bucket = proc.ev_buckets.get(done)
        if bucket is None:
            proc.ev_buckets[done] = [(self._complete, (key, station))]
            heappush(proc.ev_times, done)
        else:
            bucket.append((self._complete, (key, station)))

    # -- completion / result routing ---------------------------------------
    def _complete(self, proc, issued: Tuple) -> None:
        """Deliver an issued instruction's result (``issued`` is its
        ``(key, station)``): its value to every target — a consumer on
        this ET through the local bypass, usable for issue in the next
        cycle, the rest over the OPN — or its memory request to a DT, or
        its exit to the GT."""
        key, station = issued
        block = proc.window_by_uid.get(key[0])
        if block is None:
            return
        t = proc.cycle
        inst = station.inst
        op = inst.opcode
        completion = op.completion
        targets = inst.targets
        branch = None
        if completion == COMPLETE_ALU:
            if station.left_null or station.right_null:
                value, is_null = 0, True
            else:
                value = op.alu(inst, station.left, station.right)
                is_null = False
        elif completion == COMPLETE_NULL:
            value, is_null = 0, True
        elif completion == COMPLETE_BRANCH:
            branch = self._branch_msg(block, key, station, t)
            if op is _CALLO:
                # the call's one target receives the return address
                value, is_null = block.decoded.fallthrough & MASK64, False
            else:
                targets = ()
        elif completion == COMPLETE_LOAD and station.left_null:
            # A nullified load produces null tokens for its consumers
            # directly; it never reaches the DT (and loads are not
            # block outputs, so nothing waits on it).
            value, is_null = 0, True
        else:
            self._send_memory(proc.opn, key, station, t)
            return
        coord = self.coord
        outbox = self.outbox
        opn = proc.opn
        for target in targets:
            dest, slot, kind = ROUTES[target.kind.type_bits | target.slot]
            msg = OperandMsg(key[0], slot, kind, value, is_null, key, t)
            if dest == coord:
                self.deliver_operand(proc, msg, t, local=True)
                continue
            packet = Packet(coord, dest, msg)
            if outbox:
                outbox.append(packet)
                self._drain_outbox(opn)
            elif not opn.inject(coord, packet):
                outbox.append(packet)
        if branch is not None:
            self._send(opn, Packet(coord, proc.GT_COORD, branch))

    def _send_memory(self, opn, key, station: _Station, t: int) -> None:
        inst = station.inst
        op = inst.opcode
        if op.completion == COMPLETE_STORE:
            is_null = station.left_null or station.right_null
            address = None if is_null else \
                (station.left + inst.imm) & MASK64
            msg = MemRequest(key[0], inst.lsid, True, address,
                             op.access_size,
                             0 if is_null else station.right, is_null,
                             False, (), key, t)
        else:
            address = (station.left + inst.imm) & MASK64
            msg = MemRequest(key[0], inst.lsid, False, address,
                             op.access_size, 0, False, op.sign_extends,
                             tuple(inst.targets), key, t)
        # nullified stores report to DT0
        dest = DT_COORDS[0 if address is None else (address >> 6) % 4]
        self._send(opn, Packet(self.coord, dest, msg))

    @staticmethod
    def _branch_msg(block, key, station: _Station, t: int) -> BranchMsg:
        inst = station.inst
        op = inst.opcode
        if op is _HALT:
            target, btype = 0, BT_BRANCH
        elif op is _BRO:
            target, btype = (block.addr + inst.offset) & MASK64, BT_BRANCH
        elif op is _CALLO:
            target, btype = (block.addr + inst.offset) & MASK64, BT_CALL
        else:  # BR / RET
            target = station.left & MASK64
            btype = BT_RETURN if op is _RET else BT_BRANCH
        return BranchMsg(key[0], inst.exit_no, target, btype, key, t)

    def _send(self, opn, packet: Packet) -> None:
        if self.outbox:
            self.outbox.append(packet)
            self._drain_outbox(opn)
        elif not opn.inject(self.coord, packet):
            self.outbox.append(packet)

    def _drain_outbox(self, opn) -> None:
        while self.outbox:
            if not opn.inject(self.coord, self.outbox[0]):
                return
            self.outbox.popleft()

    # -- flush -------------------------------------------------------------
    def flush(self, uids) -> None:
        """Drop the blocks' stations, candidates and unsent packets (a
        flush, or the commit command's cleanup of one block); the
        candidates are found through the blocks' own stations."""
        stations = self.stations
        candidates = self.candidates
        for uid in uids:
            per_block = stations.pop(uid, None)
            if not per_block or not (candidates or self._tel_waiting):
                continue
            for slot, station in per_block.items():
                if station.waiting:
                    self._tel_waiting -= 1
                if station.ready_t >= 0 and not station.fired \
                        and not station.dead:
                    candidates.discard((uid, slot, station))
        if self.outbox:
            self.outbox = deque(p for p in self.outbox
                                if p.payload.block_uid not in uids)

    # -- telemetry ---------------------------------------------------------
    def tel_state(self, t: int) -> str:
        """This tile's state for cycle ``t`` (called after the tick)."""
        if self._tel_issue_t == t:
            return _tel.BUSY
        if self.outbox:
            return _tel.OPN_BACKPRESSURE
        if self.candidates:
            return _tel.BUSY        # ready instructions backed up at issue
        if self._tel_waiting:
            return _tel.WAITING_OPERAND
        return _tel.IDLE


# ----------------------------------------------------------------------
# Register tile
# ----------------------------------------------------------------------
class _WriteEntry:
    __slots__ = ("reg", "arrived", "value", "is_null", "producer_key",
                 "arrive_t")

    def __init__(self, reg: int):
        self.reg = reg
        self.arrived = False
        self.value = 0
        self.is_null = False
        self.producer_key = None
        self.arrive_t = -1


class RegTile:
    """One of the 4 RTs: a register bank + read and write queues."""

    def __init__(self, bank: int):
        self.bank = bank
        self.coord = rt_coord(bank)
        # block uid -> {reg -> _WriteEntry}
        self.write_queues: Dict[int, Dict[int, _WriteEntry]] = {}
        # reads waiting for an in-flight write: (block_uid, reg, read)
        self.waiting_reads: List[Tuple[int, object]] = []
        self.read_requests: deque = deque()
        self.outbox: deque = deque()
        self.expected_writes: Dict[int, int] = {}   # uid -> remaining count
        self.commit_free_t = 0
        self.forwards = 0
        self.file_reads = 0
        self._tel_active_t = -1    # telemetry: last cycle a read was served

    # -- dispatch ---------------------------------------------------------
    def declare_writes(self, proc, block_uid: int, regs, t: int) -> None:
        """Open the write queue of a live block (the caller checks); a
        bank the block writes nothing in reports done at once."""
        if not regs:
            proc.rt_reports_writes_done(self.bank, block_uid, t)
            return
        self.write_queues[block_uid] = {reg: _WriteEntry(reg) for reg in regs}
        self.expected_writes[block_uid] = len(regs)

    def dispatch_read(self, block_uid: int, read_slot: int, read, t: int) -> None:
        self.read_requests.append((block_uid, read_slot, read, t))

    # -- write value arrival ----------------------------------------------
    def deliver_write(self, proc, msg: OperandMsg, t: int) -> None:
        block = proc.window_by_uid.get(msg.block_uid)
        if block is None:
            return
        wslot = msg.target[1]
        reg = block.decoded.write_reg_by_slot[wslot]
        entry = self.write_queues[msg.block_uid][reg]
        if entry.arrived:
            raise RuntimeError(
                f"write slot {wslot} of block {msg.block_uid} written twice")
        entry.arrived = True
        entry.value = msg.value
        entry.is_null = msg.is_null
        entry.producer_key = msg.producer_key
        entry.arrive_t = t
        remaining = self.expected_writes[msg.block_uid] - 1
        self.expected_writes[msg.block_uid] = remaining
        if remaining == 0:
            proc.rt_reports_writes_done(self.bank, msg.block_uid, t,
                                        msg.producer_key)
        self._wake_waiting(proc, t)

    def _wake_waiting(self, proc, t: int) -> None:
        # A woken read may target a write slot on this same RT, delivering
        # locally and re-entering this method; moving the list out first
        # gives each waiting entry exactly one owner.
        pending, self.waiting_reads = self.waiting_reads, []
        for item in pending:
            if not self._try_read(proc, item, t):
                self.waiting_reads.append(item)

    # -- read processing -----------------------------------------------------
    def tick(self, proc, t: int) -> None:
        if self.outbox:
            self._drain_outbox(proc.opn)
        # two read ports per bank (Section 3.3)
        for _ in range(2):
            if not self.read_requests:
                break
            if proc.tel is not None:
                self._tel_active_t = t
            item = self.read_requests.popleft()
            if not self._try_read(proc, item, t):
                self.waiting_reads.append(item)

    def _try_read(self, proc, item, t: int) -> bool:
        block_uid, read_slot, read, dispatch_t = item
        block = proc.window_by_uid.get(block_uid)
        if block is None:
            return True
        # search write queues of older in-flight blocks, youngest first
        # (the window is in uid order)
        window = proc.window
        reg = read.reg
        for i in range(window.index(block) - 1, -1, -1):
            queue = self.write_queues.get(window[i].uid)
            if not queue or reg not in queue:
                continue
            entry = queue[reg]
            if not entry.arrived:
                return False                       # buffered until it lands
            if entry.is_null:
                continue                           # nullified: keep looking
            if entry.arrive_t <= dispatch_t:
                # the value was already waiting: the read was bound by its
                # own GDN arrival, not by the producing instruction
                release = ("dispatch", dispatch_t)
            else:
                release = ("regfwd", entry.producer_key, t, entry.arrive_t)
            self._emit_read_value(proc, block_uid, read_slot, read,
                                  entry.value, release, t)
            self.forwards += 1
            return True
        value = proc.regs[reg]
        self.file_reads += 1
        self._emit_read_value(proc, block_uid, read_slot, read, value,
                              ("dispatch", dispatch_t), t)
        return True

    def _emit_read_value(self, proc, block_uid, read_slot, read, value,
                         release, t) -> None:
        key = (block_uid, ("R", read_slot))
        if proc.trace is not None:
            ev = proc.trace.inst(key, "read")
            ev.dispatch_t = ev.dispatch_t if ev.dispatch_t >= 0 else t
            ev.issue_t = t
            ev.complete_t = t
            ev.release = release
        for target in read.targets:
            dest, slot, kind = ROUTES[target.kind.type_bits | target.slot]
            msg = OperandMsg(block_uid, slot, kind, value, False, key, t)
            if dest == self.coord:
                self.deliver_write(proc, msg, t)
                continue
            self.outbox.append(Packet(self.coord, dest, msg))
        self._drain_outbox(proc.opn)

    def _drain_outbox(self, opn) -> None:
        while self.outbox:
            if not opn.inject(self.coord, self.outbox[0]):
                return
            self.outbox.popleft()

    # -- commit / flush --------------------------------------------------------
    def commit_block(self, proc, block_uid: int, arrive_t: int) -> int:
        """Write the block's register values; returns the finish time."""
        writes = 0
        queue = self.write_queues.get(block_uid)
        if queue:
            regs = proc.regs
            for entry in queue.values():
                if entry.arrived and not entry.is_null:
                    regs[entry.reg] = entry.value
                    writes += 1
        start = arrive_t if arrive_t > self.commit_free_t \
            else self.commit_free_t
        done = start + (writes or 1)                # one write port
        self.commit_free_t = done
        return done

    def deallocate(self, block_uid: int) -> None:
        self.write_queues.pop(block_uid, None)
        self.expected_writes.pop(block_uid, None)

    def flush(self, proc, uids) -> None:
        for uid in uids:
            self.write_queues.pop(uid, None)
            self.expected_writes.pop(uid, None)
        if self.waiting_reads:
            self.waiting_reads = [w for w in self.waiting_reads
                                  if w[0] not in uids]
        if self.read_requests:
            self.read_requests = deque(r for r in self.read_requests
                                       if r[0] not in uids)
        if self.outbox:
            self.outbox = deque(p for p in self.outbox
                                if p.payload.block_uid not in uids)
        # reads of surviving blocks that waited on a flushed block's write
        # must retry (they will now see deeper state or the register file)
        self._wake_waiting(proc, proc.cycle)

    # -- telemetry ---------------------------------------------------------
    def tel_state(self, t: int) -> str:
        if self._tel_active_t == t or self.commit_free_t > t:
            return _tel.BUSY        # serving reads or draining commit writes
        if self.outbox:
            return _tel.OPN_BACKPRESSURE
        if self.read_requests:
            return _tel.BUSY        # reads backed up on the two ports
        if self.waiting_reads:
            return _tel.WAITING_OPERAND
        return _tel.IDLE


# ----------------------------------------------------------------------
# Data tile
# ----------------------------------------------------------------------
class DataTile:
    """One of the 4 DTs: L1D bank + LSQ copy + dependence predictor."""

    def __init__(self, cfg, index: int):
        self.index = index
        self.coord = DT_COORDS[index]
        from .caches import CacheBank
        self.cache = CacheBank(cfg.l1d_bank_kb * 1024, cfg.l1d_assoc,
                               cfg.line_bytes)
        # sized to the window: 8 blocks x 32 memory ops = 256 entries
        self.lsq = LoadStoreQueue(cfg.max_blocks_in_flight * MAX_MEM_OPS)
        self.deppred = DependencePredictor(
            cfg.dep_predictor_bits, cfg.dep_clear_interval_blocks,
            cfg.dep_predictor_enabled)
        self.requests: deque = deque()
        self.deferred: List[MemRequest] = []
        self.outbox: deque = deque()
        self.commit_free_t = 0
        self.loads = 0
        self.stores = 0
        self.deferred_count = 0
        # telemetry (maintained only when the core's tel is not None)
        self._tel_active_t = -1    # last cycle a request was processed
        self._tel_pending_loads = 0   # cache misses awaiting their reply

    def next_work_t(self, proc, t: int) -> Optional[int]:
        """The earliest cycle this DT can act.

        ``t`` while requests or outbox packets demand per-cycle service;
        with only deferred loads pending, the earliest cycle a deferral's
        gating stores could all be within DSN reach (store arrival time
        plus inter-DT hop distance — the ``prior_stores_arrived`` gate).
        A deferral whose gating store has not even arrived yet contributes
        no wakeup: the store's own delivery re-opens the mesh, and if it
        never comes the slow path's retries would be no-ops too.
        """
        if self.requests or self.outbox:
            return t
        if not self.deferred:
            return None
        live = proc.window_by_uid
        wake = None
        for msg, _hops, _queue in self.deferred:
            if msg.block_uid not in live:
                return t       # stale entry: the next tick drops it
            work = proc.deferred_wake_t((msg.block_uid, msg.lsid),
                                        self.index)
            if work is None:
                continue       # gated on a store still in flight
            if work < t:
                # cycle ``t`` has not been stepped yet (the run loop asks
                # after advancing ``cycle``), so a gate that opened in the
                # past is serviceable at ``t`` itself — never ``t + 1``
                work = t
            if wake is None or work < wake:
                wake = work
        return wake

    # -- arrivals ---------------------------------------------------------
    def deliver_request(self, proc, msg: MemRequest, hops: int, queue: int,
                        t: int) -> None:
        if msg.block_uid not in proc.window_by_uid:
            return
        self.requests.append((msg, hops, queue, t))

    # -- main per-cycle work -------------------------------------------------
    def tick(self, proc, t: int) -> None:
        if self.outbox:
            self._drain_outbox(proc.opn)
        # the LSQ accepts one load or store per cycle (Section 3.5);
        # oldest program order first, so speculative younger blocks'
        # traffic cannot starve the block the window is waiting on
        requests = self.requests
        if requests:
            best = 0
            first = requests[0][0]
            best_key = (first.block_uid, first.lsid)
            for i in range(1, len(requests)):
                other = requests[i][0]
                if (other.block_uid, other.lsid) < best_key:
                    best, best_key = i, (other.block_uid, other.lsid)
            msg, hops, queue, arrive_t = requests[best]
            del requests[best]
            if proc.tel is not None:
                self._tel_active_t = t
            if msg.block_uid in proc.window_by_uid:
                if msg.is_store:
                    self._process_store(proc, msg, t)
                else:
                    self._process_load(proc, msg, hops, queue, arrive_t, t)
        self._retry_deferred(proc, t)

    def _process_store(self, proc, msg: MemRequest, t: int) -> None:
        self.stores += 1
        key = (msg.block_uid, msg.lsid)
        violators = self.lsq.insert_store(key, msg.address, msg.size,
                                          msg.data, msg.is_null)
        proc.note_store_arrival(msg, self.index, t)
        if violators:
            load_key = violators[0]
            entry = self.lsq.entries.get(load_key)
            if entry is not None and entry.address is not None:
                self.deppred.record_violation(entry.address)
            proc.request_violation_flush(load_key[0], self.index, t)

    def _process_load(self, proc, msg: MemRequest, hops, queue, arrive_t,
                      t: int) -> None:
        key = (msg.block_uid, msg.lsid)
        if self.deppred.predict_dependent(msg.address) and \
                not proc.prior_stores_arrived(key, self.index, t):
            self.deferred.append((msg, hops, queue))
            self.deferred_count += 1
            return
        self._execute_load(proc, msg, t, hops, queue)

    def _retry_deferred(self, proc, t: int) -> None:
        if not self.deferred:
            return
        still = []
        for msg, hops, queue in self.deferred:
            if msg.block_uid not in proc.window_by_uid:
                continue
            key = (msg.block_uid, msg.lsid)
            if proc.prior_stores_arrived(key, self.index, t):
                self._execute_load(proc, msg, t, hops, queue)
            else:
                still.append((msg, hops, queue))
        self.deferred = still

    def _execute_load(self, proc, msg: MemRequest, t: int, hops: int = 0,
                      queue: int = 0) -> None:
        self.loads += 1
        if proc.tel is not None:
            self._tel_active_t = t     # covers deferred-load retries too
        key = (msg.block_uid, msg.lsid)
        self.lsq.insert_load(key, msg.address, msg.size)
        committed = proc.memory.read_bytes(msg.address, msg.size)
        raw = self.lsq.forward(key, msg.address, msg.size, committed)
        value = truncate_load(raw, msg.size, msg.signed)
        cfg = proc.config
        hit = self.cache.lookup(msg.address)
        if not hit:
            self.cache.fill(msg.address)
        if hit:
            latency = cfg.l1_hit_cycles
        elif proc.sysmem is None:
            latency = cfg.l1_hit_cycles + cfg.l2_hit_cycles
        else:
            # detailed path: the line request crosses the OCN to its home
            # NUCA bank through this DT's private port (Section 3.6)
            line = msg.address - (msg.address % cfg.line_bytes)
            if proc.tel is not None:
                self._tel_pending_loads += 1
            proc.schedule(t + cfg.l1_hit_cycles, self._request_line,
                          (msg, value, line))
            if proc.trace is not None:
                ev = proc.trace.inst(msg.producer_key)
                ev.mem_hops = hops
                ev.mem_queue = queue
                ev.mem_wait = max(0, t - msg.send_t - hops - queue)
                ev.mem_latency = cfg.l1_hit_cycles
            return
        if proc.trace is not None:
            ev = proc.trace.inst(msg.producer_key)
            ev.mem_hops = hops
            ev.mem_queue = queue
            ev.mem_wait = max(0, t - msg.send_t - hops - queue)
            ev.mem_latency = latency
        if proc.tel is not None and not hit:
            self._tel_pending_loads += 1
        proc.schedule(t + latency, self._reply, (msg, value, not hit))

    def _request_line(self, proc, request: Tuple) -> None:
        """Send a missed load's line request (``request`` is the load's
        ``(msg, value, line)``) into the NUCA system; its response is the
        ``(fn, arg)`` the core calls, as ``fn(core, arg)``, on arrival."""
        msg, value, line = request
        proc.sysmem.request(proc.sysmem_port_base + self.index,
                            line, False,
                            meta=(self._reply, (msg, value, True)))

    def _reply(self, proc, reply: Tuple) -> None:
        """Send a load's value to its targets; ``reply`` is
        ``(msg, value, missed the L1)``."""
        msg, value, miss = reply
        t = proc.cycle
        # decrement before the liveness check: the scheduled reply always
        # fires, even when the block was flushed in the meantime
        if miss and proc.tel is not None and self._tel_pending_loads:
            self._tel_pending_loads -= 1
        if msg.block_uid not in proc.window_by_uid:
            return
        for target in msg.targets:
            dest, slot, kind = ROUTES[target.kind.type_bits | target.slot]
            out = OperandMsg(msg.block_uid, slot, kind, value, False,
                             msg.producer_key, t)
            self.outbox.append(Packet(self.coord, dest, out))
        self._drain_outbox(proc.opn)

    def _drain_outbox(self, opn) -> None:
        while self.outbox:
            if not opn.inject(self.coord, self.outbox[0]):
                return
            self.outbox.popleft()

    # -- commit / flush ----------------------------------------------------------
    def commit_block(self, proc, block_uid: int, arrive_t: int) -> int:
        """Drain the block's stores to memory; returns the finish time."""
        stores = self.lsq.commit_block(block_uid)
        if stores:
            memory = proc.memory
            for entry in stores:
                memory.write(entry.address, entry.data, entry.size)
                self.cache.fill(entry.address)
        self.deppred.on_block_commit()
        start = arrive_t if arrive_t > self.commit_free_t \
            else self.commit_free_t
        done = start + (len(stores) or 1)
        self.commit_free_t = done
        return done

    def flush(self, uids) -> None:
        self.lsq.flush_blocks(uids)
        if self.requests:
            self.requests = deque(r for r in self.requests
                                  if r[0].block_uid not in uids)
        if self.deferred:
            self.deferred = [d for d in self.deferred
                             if d[0].block_uid not in uids]
        if self.outbox:
            self.outbox = deque(p for p in self.outbox
                                if p.payload.block_uid not in uids)

    # -- telemetry ---------------------------------------------------------
    def tel_state(self, t: int) -> str:
        if self._tel_active_t == t or self.commit_free_t > t:
            return _tel.BUSY        # serving a request or draining stores
        if self.outbox:
            return _tel.OPN_BACKPRESSURE
        if self.lsq.is_full():
            return _tel.LSQ_FULL
        if self.deferred:
            return _tel.DEP_DEFERRAL
        if self._tel_pending_loads:
            return _tel.CACHE_MISS
        if self.requests:
            return _tel.BUSY        # queued behind the one-per-cycle port
        return _tel.IDLE
