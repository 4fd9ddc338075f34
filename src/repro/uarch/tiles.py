"""Execution, register and data tiles of the detailed model (Figure 4).

Each tile class owns exactly the state its silicon counterpart holds and
talks to the rest of the core only through messages (OPN packets) and the
analytically-timed control networks managed by
:class:`repro.uarch.proc.TripsProcessor` (see that module's docstring for
the timing conventions).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import MAX_MEM_OPS, Opcode, OperandKind
from ..isa.opcodes import (COMPLETE_ALU, COMPLETE_BRANCH, COMPLETE_NULL,
                           COMPLETE_STORE)
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

    def ready(self) -> bool:
        if self.inst is None or self.fired or self.dead:
            return False
        need = self.inst.opcode.num_operands
        if need >= 1 and self.left is None:
            return False
        if need >= 2 and self.right is None:
            return False
        if self.inst.pred is not None and self.pred is None:
            return False
        return True


class ExecTile:
    """One of the 16 ETs: single-issue pipeline + 64 reservation stations."""

    def __init__(self, proc, index: int):
        self.proc = proc
        self.index = index
        self.coord = et_coord(index)
        # block uid -> {slot -> _Station}: two-level so a block's stations
        # vanish in O(1) at commit/flush instead of an O(stations) sweep
        self.stations: Dict[int, Dict[object, _Station]] = {}
        self.candidates: set = set()
        self.div_busy_until = 0
        self.outbox: deque = deque()
        # telemetry (maintained only when proc.tel is not None)
        self._tel_waiting = 0      # dispatched stations missing operands
        self._tel_issue_t = -1     # cycle of the most recent issue

    # -- state arrival --------------------------------------------------
    def _station(self, block_uid: int, slot: int) -> _Station:
        per_block = self.stations.get(block_uid)
        if per_block is None:
            per_block = self.stations[block_uid] = {}
        station = per_block.get(slot)
        if station is None:
            station = per_block[slot] = _Station()
        return station

    def dispatch_inst(self, block_uid: int, slot: int, inst,
                      t: int, release: Tuple) -> None:
        """Place a GDN-delivered instruction in its station.  The caller
        (the processor's dispatch group) has checked the block is live;
        ``release`` is the group's shared ``("dispatch", t)``."""
        station = self._station(block_uid, slot)
        station.inst = inst
        station.dispatch_t = t
        if self.proc.tel is not None and not station.ready():
            station.waiting = True
            self._tel_waiting += 1
        self._maybe_ready(block_uid, slot, station, release)

    def deliver_operand(self, msg: OperandMsg, t: int,
                        hops: int = 0, queue: int = 0, local: bool = False) -> None:
        block_uid = msg.block_uid
        if block_uid not in self.proc.window_by_uid:
            return                       # stale packet from a flushed block
        station = self._station(block_uid, msg.target)
        kind = msg.kind
        if kind is _LEFT:
            station.left = msg.value
            station.left_null = msg.is_null
        elif kind is _RIGHT:
            station.right = msg.value
            station.right_null = msg.is_null
        else:
            station.pred = (msg.value, msg.is_null)
        release = ("local", msg.producer_key, t) if local else \
            ("operand", msg.producer_key, msg.send_t, hops, queue, t)
        self._maybe_ready(block_uid, msg.target, station, release)

    def _maybe_ready(self, block_uid: int, slot: int, station: _Station,
                     release) -> None:
        """Mark the station issue-ready if this arrival completed it.

        ``release`` records the last-arriving requirement, which is what
        the critical-path analyzer walks backwards along.

        Candidates carry ``(uid, slot, station)`` so issue selection is a
        single ``min()`` over the set — the (uid, slot) prefix is the
        age-ordered priority and is unique, so the station itself is
        never compared.  Commit and flush filter the set by uid, which
        keeps every member's station live and ready.
        """
        if station.ready():
            if station.waiting:
                station.waiting = False
                self._tel_waiting -= 1
            station.release = release
            station.ready_t = self.proc.cycle
            self.candidates.add((block_uid, slot, station))

    # -- issue ------------------------------------------------------------
    def tick(self, t: int) -> None:
        if self.outbox:
            self._drain_outbox()
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
        proc = self.proc
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
        proc.schedule(t + latency, self._complete, key, station)

    # -- completion / result routing ---------------------------------------
    def _complete(self, key: Tuple[int, int], station: _Station) -> None:
        if key[0] not in self.proc.window_by_uid:
            return
        t = self.proc.cycle
        inst = station.inst
        op = inst.opcode
        completion = op.completion
        if completion == COMPLETE_ALU:
            if station.left_null or station.right_null:
                value, is_null = 0, True
            else:
                value = op.alu(inst, station.left, station.right)
                is_null = False
        elif completion == COMPLETE_NULL:
            value, is_null = 0, True
        elif completion == COMPLETE_BRANCH:
            self._complete_branch(key, station, t)
            return
        else:
            self._complete_memory(key, station, t)
            return
        for target in inst.targets:
            self._route(key, target, value, is_null, t)

    def _route(self, producer_key, target, value, is_null, t) -> None:
        dest, slot, kind = ROUTES[target.kind.type_bits | target.slot]
        msg = OperandMsg(producer_key[0], slot, kind, value, is_null,
                         producer_key, t)
        if dest == self.coord:
            # local bypass: usable for issue in the next cycle
            self.deliver_operand(msg, t, local=True)
        else:
            self._send(msg, dest, t)

    def _complete_memory(self, key, station: _Station, t: int) -> None:
        inst = station.inst
        op = inst.opcode
        block = self.proc.window_by_uid.get(key[0])
        if block is None:
            return
        if op.completion == COMPLETE_STORE:
            is_null = station.left_null or station.right_null
            address = None if is_null else \
                (station.left + inst.imm) & MASK64
            msg = MemRequest(key[0], inst.lsid, True, address,
                             op.access_size,
                             0 if is_null else station.right, is_null,
                             False, (), key, t)
        else:
            if station.left_null:
                # A nullified load produces null tokens for its consumers
                # directly; it never reaches the DT (and loads are not
                # block outputs, so nothing waits on it).
                for target in inst.targets:
                    self._route(key, target, 0, True, t)
                return
            address = (station.left + inst.imm) & MASK64
            msg = MemRequest(key[0], inst.lsid, False, address,
                             op.access_size, 0, False, op.sign_extends,
                             tuple(inst.targets), key, t)
        # nullified stores report to DT0
        dest = DT_COORDS[0 if address is None else (address >> 6) % 4]
        self._send(msg, dest, t)

    def _complete_branch(self, key, station: _Station, t: int) -> None:
        inst = station.inst
        block = self.proc.window_by_uid.get(key[0])
        if block is None:
            return
        op = inst.opcode
        if op is _HALT:
            target, btype = 0, BT_BRANCH
        elif op is _BRO:
            target, btype = (block.addr + inst.offset) & MASK64, BT_BRANCH
        elif op is _CALLO:
            target, btype = (block.addr + inst.offset) & MASK64, BT_CALL
            if inst.targets:
                link = (block.addr + block.decoded.block.size_bytes) & MASK64
                self._route(key, inst.targets[0], link, False, t)
        else:  # BR / RET
            target = station.left & MASK64
            btype = BT_RETURN if op is _RET else BT_BRANCH
        msg = BranchMsg(key[0], inst.exit_no, target, btype, key, t)
        self._send(msg, self.proc.GT_COORD, t)

    def _send(self, msg, dest, t) -> None:
        packet = Packet(src=self.coord, dest=dest, payload=msg)
        if self.outbox:
            self.outbox.append(packet)
            self._drain_outbox()
        elif not self.proc.opn.inject(self.coord, packet):
            self.outbox.append(packet)

    def _drain_outbox(self) -> None:
        while self.outbox:
            if not self.proc.opn.inject(self.coord, self.outbox[0]):
                return
            self.outbox.popleft()

    # -- flush -------------------------------------------------------------
    def flush(self, uids) -> None:
        for uid in uids:
            per_block = self.stations.pop(uid, None)
            if per_block and self._tel_waiting:
                for station in per_block.values():
                    if station.waiting:
                        self._tel_waiting -= 1
        if self.candidates:
            self.candidates = {c for c in self.candidates
                               if c[0] not in uids}
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

    def __init__(self, proc, bank: int):
        self.proc = proc
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
    def declare_writes(self, block_uid: int, regs, t: int) -> None:
        """Open the write queue of a live block (the caller checks)."""
        queue = self.write_queues.setdefault(block_uid, {})
        for reg in regs:
            queue[reg] = _WriteEntry(reg)
        self.expected_writes[block_uid] = len(regs)
        if not regs:
            self.proc.rt_reports_writes_done(self.bank, block_uid, t)

    def dispatch_read(self, block_uid: int, read_slot: int, read, t: int) -> None:
        self.read_requests.append((block_uid, read_slot, read, t))

    # -- write value arrival ----------------------------------------------
    def deliver_write(self, msg: OperandMsg, t: int) -> None:
        if msg.block_uid not in self.proc.window_by_uid:
            return
        wslot = msg.target[1]
        block = self.proc.window_by_uid[msg.block_uid]
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
            self.proc.rt_reports_writes_done(self.bank, msg.block_uid, t,
                                             msg.producer_key)
        self._wake_waiting(t)

    def _wake_waiting(self, t: int) -> None:
        # A woken read may target a write slot on this same RT, delivering
        # locally and re-entering this method; moving the list out first
        # gives each waiting entry exactly one owner.
        pending, self.waiting_reads = self.waiting_reads, []
        for item in pending:
            if not self._try_read(item, t):
                self.waiting_reads.append(item)

    # -- read processing -----------------------------------------------------
    def tick(self, t: int) -> None:
        if self.outbox:
            self._drain_outbox()
        # two read ports per bank (Section 3.3)
        for _ in range(2):
            if not self.read_requests:
                break
            if self.proc.tel is not None:
                self._tel_active_t = t
            item = self.read_requests.popleft()
            if not self._try_read(item, t):
                self.waiting_reads.append(item)

    def _try_read(self, item, t: int) -> bool:
        block_uid, read_slot, read, dispatch_t = item
        if block_uid not in self.proc.window_by_uid:
            return True
        block = self.proc.window_by_uid[block_uid]
        # search write queues of older in-flight blocks, youngest first
        for older in self.proc.older_blocks(block_uid):
            queue = self.write_queues.get(older.uid)
            if not queue or read.reg not in queue:
                continue
            entry = queue[read.reg]
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
            self._emit_read_value(block_uid, read_slot, read, entry.value,
                                  release, t)
            self.forwards += 1
            return True
        value = self.proc.regs[read.reg]
        self.file_reads += 1
        self._emit_read_value(block_uid, read_slot, read, value,
                              ("dispatch", dispatch_t), t)
        return True

    def _emit_read_value(self, block_uid, read_slot, read, value, release,
                         t) -> None:
        key = (block_uid, ("R", read_slot))
        if self.proc.trace is not None:
            ev = self.proc.trace.inst(key, "read")
            ev.dispatch_t = ev.dispatch_t if ev.dispatch_t >= 0 else t
            ev.issue_t = t
            ev.complete_t = t
            ev.release = release
        for target in read.targets:
            dest, slot, kind = ROUTES[target.kind.type_bits | target.slot]
            msg = OperandMsg(block_uid, slot, kind, value, False, key, t)
            if dest == self.coord:
                self.deliver_write(msg, t)
                continue
            self.outbox.append(Packet(src=self.coord, dest=dest, payload=msg))
        self._drain_outbox()

    def _drain_outbox(self) -> None:
        while self.outbox:
            if not self.proc.opn.inject(self.coord, self.outbox[0]):
                return
            self.outbox.popleft()

    # -- commit / flush --------------------------------------------------------
    def commit_block(self, block_uid: int, arrive_t: int) -> int:
        """Write the block's register values; returns the finish time."""
        queue = self.write_queues.get(block_uid, {})
        writes = [e for e in queue.values() if e.arrived and not e.is_null]
        for entry in writes:
            self.proc.regs[entry.reg] = entry.value
        start = max(arrive_t, self.commit_free_t)
        done = start + max(1, len(writes))          # one write port
        self.commit_free_t = done
        return done

    def deallocate(self, block_uid: int) -> None:
        self.write_queues.pop(block_uid, None)
        self.expected_writes.pop(block_uid, None)

    def flush(self, uids) -> None:
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
        self._wake_waiting(self.proc.cycle)

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

    def __init__(self, proc, index: int):
        self.proc = proc
        self.index = index
        self.coord = DT_COORDS[index]
        cfg = proc.config
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
        # telemetry (maintained only when proc.tel is not None)
        self._tel_active_t = -1    # last cycle a request was processed
        self._tel_pending_loads = 0   # cache misses awaiting their reply

    def next_work_t(self, t: int) -> Optional[int]:
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
        proc = self.proc
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
    def deliver_request(self, msg: MemRequest, hops: int, queue: int,
                        t: int) -> None:
        if msg.block_uid not in self.proc.window_by_uid:
            return
        self.requests.append((msg, hops, queue, t))

    # -- main per-cycle work -------------------------------------------------
    def tick(self, t: int) -> None:
        if self.outbox:
            self._drain_outbox()
        # the LSQ accepts one load or store per cycle (Section 3.5);
        # oldest program order first, so speculative younger blocks'
        # traffic cannot starve the block the window is waiting on
        if self.requests:
            best = min(range(len(self.requests)),
                       key=lambda i: (self.requests[i][0].block_uid,
                                      self.requests[i][0].lsid))
            msg, hops, queue, arrive_t = self.requests[best]
            del self.requests[best]
            if self.proc.tel is not None:
                self._tel_active_t = t
            if msg.block_uid in self.proc.window_by_uid:
                if msg.is_store:
                    self._process_store(msg, t)
                else:
                    self._process_load(msg, hops, queue, arrive_t, t)
        self._retry_deferred(t)

    def _process_store(self, msg: MemRequest, t: int) -> None:
        self.stores += 1
        key = (msg.block_uid, msg.lsid)
        violators = self.lsq.insert_store(key, msg.address, msg.size,
                                          msg.data, msg.is_null)
        self.proc.note_store_arrival(msg, self.index, t)
        if violators:
            load_key = violators[0]
            entry = self.lsq.entries.get(load_key)
            if entry is not None and entry.address is not None:
                self.deppred.record_violation(entry.address)
            self.proc.request_violation_flush(load_key[0], self.index, t)

    def _process_load(self, msg: MemRequest, hops, queue, arrive_t,
                      t: int) -> None:
        key = (msg.block_uid, msg.lsid)
        if self.deppred.predict_dependent(msg.address) and \
                not self.proc.prior_stores_arrived(key, self.index, t):
            self.deferred.append((msg, hops, queue))
            self.deferred_count += 1
            return
        self._execute_load(msg, t, hops, queue)

    def _retry_deferred(self, t: int) -> None:
        if not self.deferred:
            return
        still = []
        for msg, hops, queue in self.deferred:
            if msg.block_uid not in self.proc.window_by_uid:
                continue
            key = (msg.block_uid, msg.lsid)
            if self.proc.prior_stores_arrived(key, self.index, t):
                self._execute_load(msg, t, hops, queue)
            else:
                still.append((msg, hops, queue))
        self.deferred = still

    def _execute_load(self, msg: MemRequest, t: int, hops: int = 0,
                      queue: int = 0) -> None:
        self.loads += 1
        if self.proc.tel is not None:
            self._tel_active_t = t     # covers deferred-load retries too
        key = (msg.block_uid, msg.lsid)
        self.lsq.insert_load(key, msg.address, msg.size)
        committed = self.proc.memory.read_bytes(msg.address, msg.size)
        raw = self.lsq.forward(key, msg.address, msg.size, committed)
        value = truncate_load(raw, msg.size, msg.signed)
        cfg = self.proc.config
        hit = self.cache.lookup(msg.address)
        if not hit:
            self.cache.fill(msg.address)
        if hit:
            latency = cfg.l1_hit_cycles
        elif self.proc.sysmem is None:
            latency = cfg.l1_hit_cycles + cfg.l2_hit_cycles
        else:
            # detailed path: the line request crosses the OCN to its home
            # NUCA bank through this DT's private port (Section 3.6)
            line = msg.address - (msg.address % cfg.line_bytes)
            if self.proc.tel is not None:
                self._tel_pending_loads += 1
            self.proc.schedule(t + cfg.l1_hit_cycles, self._request_line,
                               msg, value, line)
            if self.proc.trace is not None:
                ev = self.proc.trace.inst(msg.producer_key)
                ev.mem_hops = hops
                ev.mem_queue = queue
                ev.mem_wait = max(0, t - msg.send_t - hops - queue)
                ev.mem_latency = cfg.l1_hit_cycles
            return
        if self.proc.trace is not None:
            ev = self.proc.trace.inst(msg.producer_key)
            ev.mem_hops = hops
            ev.mem_queue = queue
            ev.mem_wait = max(0, t - msg.send_t - hops - queue)
            ev.mem_latency = latency
        if self.proc.tel is not None and not hit:
            self._tel_pending_loads += 1
        self.proc.schedule(t + latency, self._reply, msg, value, not hit)

    def _request_line(self, msg: MemRequest, value: int, line: int) -> None:
        """Send a missed load's line request into the NUCA system; its
        response is the ``(fn, args)`` the processor calls on arrival."""
        self.proc.sysmem.request(self.proc.sysmem_port_base + self.index,
                                 line, False,
                                 meta=(self._reply, (msg, value, True)))

    def _reply(self, msg: MemRequest, value: int, miss: bool = False) -> None:
        t = self.proc.cycle
        # decrement before the liveness check: the scheduled reply always
        # fires, even when the block was flushed in the meantime
        if miss and self.proc.tel is not None and self._tel_pending_loads:
            self._tel_pending_loads -= 1
        if msg.block_uid not in self.proc.window_by_uid:
            return
        for target in msg.targets:
            dest, slot, kind = ROUTES[target.kind.type_bits | target.slot]
            out = OperandMsg(msg.block_uid, slot, kind, value, False,
                             msg.producer_key, t)
            self.outbox.append(Packet(src=self.coord, dest=dest, payload=out))
        self._drain_outbox()

    def _drain_outbox(self) -> None:
        while self.outbox:
            if not self.proc.opn.inject(self.coord, self.outbox[0]):
                return
            self.outbox.popleft()

    # -- commit / flush ----------------------------------------------------------
    def commit_block(self, block_uid: int, arrive_t: int) -> int:
        """Drain the block's stores to memory; returns the finish time."""
        stores = self.lsq.commit_block(block_uid)
        for entry in stores:
            self.proc.memory.write(entry.address, entry.data, entry.size)
            self.cache.fill(entry.address)
        self.deppred.on_block_commit()
        start = max(arrive_t, self.commit_free_t)
        done = start + max(1, len(stores))
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
