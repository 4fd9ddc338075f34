"""tsim-arch: the untimed, block-atomic functional simulator.

Executes one TRIPS block at a time as a dataflow graph: reads fire first,
tokens flow along target edges, predicated instructions fire (or die) when
their predicate arrives, memory operations execute in LSID order, and the
block commits when it has produced its full output count — exactly one
branch, every register write, and every store-mask LSID (Section 4.4's
completion condition, without the timing).

This is the semantic reference for the cycle-level model and the fast
co-validation target for the compiler: for every workload, the functional
simulator's architectural results must match the TIR interpreter's golden
outputs bit for bit.

Null tokens (Section 4.2): a ``null`` instruction sends *null* tokens; any
instruction consuming a null data operand produces null; a store or register
write receiving null signals completion without touching state.  This is
what keeps the block's output count constant across predicated paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import (
    EXIT_ADDRESS,
    Instruction,
    NUM_ARCH_REGS,
    OpClass,
    Opcode,
    OperandKind,
    Program,
    TripsBlock,
)
from ..isa.alu import effective_address, execute
from ..mem.backing import BackingStore
from ..tir.semantics import truncate_load


class SimError(RuntimeError):
    """Deadlock, malformed block behaviour, or budget exhaustion."""


#: distinguished token payload for nullified values.
NULL_TOKEN = object()

#: the :class:`_Station` field an operand fills, by its kind's type bits
_PORT_FIELD = {OperandKind.LEFT.type_bits: "left",
               OperandKind.RIGHT.type_bits: "right",
               OperandKind.PRED.type_bits: "pred"}


@dataclass
class FunctionalStats:
    blocks: int = 0
    fired: int = 0               # body instructions that actually executed
    nullified_outputs: int = 0
    reads: int = 0
    loads: int = 0
    stores: int = 0
    branches_by_exit: Dict[int, int] = field(default_factory=dict)


@dataclass
class _Station:
    """Operand collection state for one body instruction."""

    inst: Instruction
    left: object = None
    right: object = None
    pred: object = None
    fired: bool = False
    dead: bool = False

    def ready(self) -> bool:
        if self.fired or self.dead:
            return False
        need = self.inst.opcode.num_operands
        if need >= 1 and self.left is None:
            return False
        if need >= 2 and self.right is None:
            return False
        if self.inst.pred is not None and self.pred is None:
            return False
        return True


class FunctionalSim:
    """Executes a :class:`Program` block-atomically, without timing."""

    def __init__(self, program: Program, max_blocks: int = 2_000_000):
        image = program.memory_image()      # validated once per program
        self.program = program
        self.max_blocks = max_blocks
        self.memory = BackingStore()
        self.memory.load_image(image)
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        for reg, value in program.initial_regs.items():
            self.regs[reg] = value & (2**64 - 1)
        self.stats = FunctionalStats()
        self.pc = program.entry
        self.halted = False

    # ------------------------------------------------------------------
    def run(self) -> FunctionalStats:
        """Execute until HALT or a branch to the exit address."""
        while not self.halted:
            if self.stats.blocks >= self.max_blocks:
                raise SimError(f"block budget {self.max_blocks} exhausted")
            self.step_block()
        return self.stats

    def step_block(self) -> None:
        """Fetch, execute and commit the block at the current PC."""
        block = self.program.block_at(self.pc)
        next_pc, reg_writes = self._execute_block(block)
        for reg, value in reg_writes.items():
            self.regs[reg] = value
        self.stats.blocks += 1
        if next_pc == EXIT_ADDRESS:
            self.halted = True
        else:
            self.pc = next_pc

    # ------------------------------------------------------------------
    def _execute_block(self, block: TripsBlock) -> Tuple[int, Dict[int, int]]:
        stations = {slot: _Station(inst) for slot, inst in block.body.items()}
        write_values: Dict[int, object] = {}     # write slot -> token
        store_mask = block.store_mask
        # Stores are buffered until block commit (the LSQ does this in the
        # detailed model); loads forward from earlier-LSID buffered stores.
        store_buffer: List[Tuple[int, int, int, int]] = []  # (lsid,addr,size,val)
        stores_done: set = set()
        store_lsids = sorted(l for l in range(32) if (store_mask >> l) & 1)
        pending_loads: List[Tuple[int, _Station]] = []
        branch_result: Optional[int] = None

        worklist: List[Tuple[int, object, str]] = []   # slot, token, port

        def deliver(target, token) -> None:
            if target.kind is OperandKind.WRITE:
                if target.slot in write_values:
                    raise SimError(
                        f"block {block.name}: write slot {target.slot} "
                        "received two values — outputs not constant")
                write_values[target.slot] = token
                if token is NULL_TOKEN:
                    self.stats.nullified_outputs += 1
                return
            worklist.append((target.slot, token,
                             _PORT_FIELD[target.kind.type_bits]))

        # Reads fire unconditionally at block start.
        for read in block.reads.values():
            self.stats.reads += 1
            value = self.regs[read.reg]
            for target in read.targets:
                deliver(target, value)

        def try_fire(slot: int) -> None:
            station = stations[slot]
            if not station.ready():
                return
            inst = station.inst
            if inst.pred is not None:
                pred_token = station.pred
                if pred_token is NULL_TOKEN:
                    station.dead = True
                    return
                if bool(pred_token & 1) != inst.pred:
                    station.dead = True
                    return
            station.fired = True
            if inst.opcode.is_store:
                run_store(station)
                return
            if inst.opcode.is_load:
                if any(l < inst.lsid and l not in stores_done
                       for l in store_lsids):
                    pending_loads.append((slot, station))
                else:
                    run_load(station)
                return
            self.stats.fired += 1
            run_alu(slot, station)

        def run_alu(slot: int, station: _Station) -> None:
            inst = station.inst
            opclass = inst.opcode.opclass
            if opclass is OpClass.BRANCH:
                resolve_branch(inst, station)
                return
            if opclass is OpClass.NULLIFY:
                for target in inst.targets:
                    deliver(target, NULL_TOKEN)
                return
            if station.left is NULL_TOKEN or station.right is NULL_TOKEN:
                result = NULL_TOKEN     # null poisons downstream dataflow
            else:
                result = execute(inst, station.left, station.right)
            for target in inst.targets:
                deliver(target, result)

        def run_store(station: _Station) -> None:
            inst = station.inst
            self.stats.fired += 1
            self.stats.stores += 1
            stores_done.add(inst.lsid)
            if station.left is NULL_TOKEN or station.right is NULL_TOKEN:
                self.stats.nullified_outputs += 1
            else:
                address = effective_address(inst, station.left)
                store_buffer.append(
                    (inst.lsid, address, inst.opcode.access_size,
                     station.right))
            # A store arrival may unblock held-back loads.
            still_waiting = []
            for slot, load_station in pending_loads:
                lsid = load_station.inst.lsid
                if any(l < lsid and l not in stores_done for l in store_lsids):
                    still_waiting.append((slot, load_station))
                else:
                    run_load(load_station)
            pending_loads[:] = still_waiting

        def run_load(station: _Station) -> None:
            inst = station.inst
            self.stats.fired += 1
            self.stats.loads += 1
            if station.left is NULL_TOKEN:
                result = NULL_TOKEN
            else:
                address = effective_address(inst, station.left)
                size = inst.opcode.access_size
                raw = self._load_with_forwarding(
                    address, size, inst.lsid, store_buffer)
                result = truncate_load(raw, size, inst.opcode.sign_extends)
            for target in inst.targets:
                deliver(target, result)

        def resolve_branch(inst: Instruction, station: _Station) -> None:
            nonlocal branch_result
            if branch_result is not None:
                raise SimError(f"block {block.name}: two branches fired")
            self.stats.branches_by_exit[inst.exit_no] = \
                self.stats.branches_by_exit.get(inst.exit_no, 0) + 1
            if inst.opcode is Opcode.HALT:
                branch_result = EXIT_ADDRESS
            elif inst.opcode in (Opcode.BRO, Opcode.CALLO):
                branch_result = (self.pc + inst.offset) & (2**64 - 1)
                if inst.opcode is Opcode.CALLO and inst.targets:
                    link = (self.pc + block.size_bytes) & (2**64 - 1)
                    deliver(inst.targets[0], link)
            else:  # BR / RET: target address arrives as the left operand
                if station.left is NULL_TOKEN:
                    raise SimError("branch received a null target address")
                branch_result = station.left

        # Token-pump main loop.
        guard = 0
        fired_any = True
        while True:
            while worklist:
                guard += 1
                if guard > 100_000:
                    raise SimError(f"block {block.name}: token storm")
                slot, token, attr = worklist.pop()
                if slot not in stations:
                    raise SimError(f"token for empty slot {slot}")
                station = stations[slot]
                if getattr(station, attr) is not None:
                    raise SimError(
                        f"block {block.name}: slot {slot} received operand "
                        f"{attr} twice")
                setattr(station, attr, token)
                try_fire(slot)
            # Zero-operand instructions (constants, unpredicated null) fire
            # spontaneously; loop until a fixpoint.
            fired_any = False
            for slot, station in stations.items():
                if station.ready() and station.inst.opcode.num_operands == 0 \
                        and not station.fired:
                    try_fire(slot)
                    fired_any = True
                    break
            if not fired_any and not worklist:
                break

        # Completion check: one branch + all writes + all store LSIDs.
        if branch_result is None:
            raise SimError(f"block {block.name}: no branch fired (deadlock?)")
        missing_writes = set(block.writes) - set(write_values)
        if missing_writes:
            raise SimError(
                f"block {block.name}: write slots {sorted(missing_writes)} "
                "never received values")
        missing_stores = set(store_lsids) - stores_done
        if missing_stores:
            raise SimError(
                f"block {block.name}: store LSIDs {sorted(missing_stores)} "
                "never signalled")

        # Block commit: drain the store buffer to memory in LSID order.
        for _, address, size, value in sorted(store_buffer):
            self.memory.write(address, value, size)

        reg_writes = {
            block.writes[slot].reg: token
            for slot, token in write_values.items() if token is not NULL_TOKEN
        }
        return branch_result, reg_writes

    def _load_with_forwarding(self, address: int, size: int, lsid: int,
                              store_buffer) -> int:
        """Memory bytes overlaid with earlier-LSID buffered store bytes.

        Stores in ``store_buffer`` have not reached memory yet (they drain
        at block commit), so a load must merge them in, byte-granular and
        in ascending LSID order — the same answer the detailed LSQ gives.
        """
        result = bytearray(self.memory.read_bytes(address, size))
        for s_lsid, s_addr, s_size, s_value in sorted(store_buffer):
            if s_lsid >= lsid:
                break
            lo = max(address, s_addr)
            hi = min(address + size, s_addr + s_size)
            if lo >= hi:
                continue
            s_bytes = (s_value & ((1 << (8 * s_size)) - 1)).to_bytes(
                s_size, "little")
            for b in range(lo, hi):
                result[b - address] = s_bytes[b - s_addr]
        return int.from_bytes(result, "little")
