"""TRIPS block model: header chunk + up to four 32-instruction body chunks.

A TRIPS block (Section 2.1) is the unit of fetch, execution and commit:

* a 128-byte **header chunk** holding up to 32 read and 32 write
  instructions, a 32-bit **store mask** (which LSIDs are stores), block
  execution flags and the body chunk count;
* two to four (the paper says "between two and five chunks" counting the
  header) 128-byte **body chunks** of 32 instruction words each, for at most
  128 instructions.

Constraints enforced by :meth:`TripsBlock.validate` (the compiler must emit
conforming blocks; the hardware assumes them):

* at most 128 body instructions, at most 32 loads+stores (unique LSIDs,
  issued in LSID order per address),
* at most 8 reads and 8 writes per register bank (bank = register mod 4),
* every possible predicated path emits the same outputs: all 32 potential
  register writes/stores are either always or never produced (nullified
  writes/stores still signal), and **exactly one** branch fires,
* targets reference valid slots.

The header's binary layout (1024 bits, little-endian bit numbering)::

    [   0,  32)  store mask
    [  32,  40)  block flags
    [  40,  48)  number of body chunks (1..4)
    [  48,  64)  reserved
    [  64, 256)  32 write records x 6 bits:  V(1) GR(5)
    [ 256,1024)  32 read records x 24 bits:  V(1) GR(5) RT0(9) RT1(9)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .encoding import Instruction
from .opcodes import OpClass, Opcode
from .targets import NO_TARGET_BITS, OperandKind, Target, decode_optional, encode_optional

CHUNK_BYTES = 128
MAX_BODY_INSTS = 128
MAX_READS = 32
MAX_WRITES = 32
MAX_MEM_OPS = 32
NUM_REG_BANKS = 4
SLOTS_PER_BANK = 8
NUM_ARCH_REGS = 128

#: Block execution-mode flags (header byte 4).
FLAG_DEFAULT = 0

#: the type bits of a left / right operand port's target encoding
_LEFT = OperandKind.LEFT.type_bits
_RIGHT = OperandKind.RIGHT.type_bits


class BlockError(ValueError):
    """A block violates an ISA constraint."""


def reg_bank(reg: int) -> int:
    """Bank of architectural register ``reg``: registers interleave mod 4."""
    return reg % NUM_REG_BANKS


@dataclass
class ReadInstruction:
    """Header read: pull register ``reg`` and send it to 1-2 targets."""

    reg: int
    targets: List[Target] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.reg < NUM_ARCH_REGS:
            raise BlockError(f"read register {self.reg} out of range")
        if not 1 <= len(self.targets) <= 2:
            raise BlockError("read instruction needs one or two targets")

    @property
    def bank(self) -> int:
        return reg_bank(self.reg)

    def __str__(self) -> str:
        return f"read R{self.reg} " + " ".join(str(t) for t in self.targets)


@dataclass
class WriteInstruction:
    """Header write: the value arriving at this write slot commits to ``reg``."""

    reg: int

    def __post_init__(self) -> None:
        if not 0 <= self.reg < NUM_ARCH_REGS:
            raise BlockError(f"write register {self.reg} out of range")

    @property
    def bank(self) -> int:
        return reg_bank(self.reg)

    def __str__(self) -> str:
        return f"write R{self.reg}"


@dataclass
class TripsBlock:
    """One compiler-produced, hardware-executable TRIPS block.

    ``reads`` and ``writes`` are dense maps from header slot (0..31) to
    instructions; slot assignment respects banking: slot ``s`` lives on
    register tile ``s // 8`` and may only name registers of bank ``s // 8``.
    ``body`` maps body slot (0..127) to instructions; body slot ``i``
    executes on execution tile ``i % 16``, reservation station ``i // 16``.
    """

    name: str = ""
    reads: Dict[int, ReadInstruction] = field(default_factory=dict)
    writes: Dict[int, WriteInstruction] = field(default_factory=dict)
    body: Dict[int, Instruction] = field(default_factory=dict)
    flags: int = FLAG_DEFAULT

    # ------------------------------------------------------------------
    @property
    def store_mask(self) -> int:
        """Bit ``i`` set iff LSID ``i`` belongs to a store in this block."""
        mask = 0
        for inst in self.body.values():
            if inst.opcode.is_store:
                mask |= 1 << inst.lsid
        return mask

    @property
    def load_mask(self) -> int:
        mask = 0
        for inst in self.body.values():
            if inst.opcode.is_load:
                mask |= 1 << inst.lsid
        return mask

    @property
    def num_body_chunks(self) -> int:
        """Number of 32-instruction body chunks needed (1..4, min 1)."""
        highest = max(self.body) if self.body else 0
        return max(1, -(-(highest + 1) // 32))

    @property
    def size_bytes(self) -> int:
        return CHUNK_BYTES * (1 + self.num_body_chunks)

    @property
    def num_outputs(self) -> int:
        """Register writes + stores + the one branch (completion target)."""
        return len(self.writes) + bin(self.store_mask).count("1") + 1

    def branches(self) -> List[int]:
        """Body slots holding branch instructions."""
        return sorted(s for s, i in self.body.items() if i.opcode.is_branch)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every static block constraint; raise :class:`BlockError`."""
        if len(self.body) > MAX_BODY_INSTS:
            raise BlockError(f"{len(self.body)} body instructions > {MAX_BODY_INSTS}")
        for slot in self.body:
            if not 0 <= slot < MAX_BODY_INSTS:
                raise BlockError(f"body slot {slot} out of range")
        for slot, read in self.reads.items():
            self._check_header_slot(slot, read.bank, "read")
        for slot, write in self.writes.items():
            self._check_header_slot(slot, write.bank, "write")
        written = [w.reg for w in self.writes.values()]
        if len(set(written)) != len(written):
            raise BlockError("two write slots name the same register")

        lsids: Dict[int, Opcode] = {}
        for slot, inst in sorted(self.body.items()):
            if inst.opcode.is_memory:
                if inst.lsid in lsids:
                    raise BlockError(f"duplicate LSID {inst.lsid}")
                lsids[inst.lsid] = inst.opcode
        if len(lsids) > MAX_MEM_OPS:
            raise BlockError(f"{len(lsids)} memory operations > {MAX_MEM_OPS}")

        if not self.branches():
            raise BlockError("block has no branch")
        self._check_targets()
        self._check_constant_outputs()

    def _check_header_slot(self, slot: int, bank: int, what: str) -> None:
        if not 0 <= slot < MAX_READS:
            raise BlockError(f"{what} slot {slot} out of range")
        if slot // SLOTS_PER_BANK != bank:
            raise BlockError(
                f"{what} slot {slot} is on RT{slot // SLOTS_PER_BANK} but its "
                f"register is in bank {bank}")

    def _check_targets(self) -> None:
        producers = list(self.body.items()) + list(self.reads.items())
        for slot, inst in producers:
            for tgt in inst.targets:
                if tgt.kind is OperandKind.WRITE:
                    if tgt.slot not in self.writes:
                        raise BlockError(
                            f"slot {slot} targets missing write slot {tgt.slot}")
                else:
                    if tgt.slot not in self.body:
                        raise BlockError(
                            f"slot {slot} targets empty body slot {tgt.slot}")
                    consumer = self.body[tgt.slot]
                    needed = consumer.opcode.num_operands
                    if tgt.kind is OperandKind.RIGHT and needed < 2:
                        raise BlockError(
                            f"slot {slot} sends a right operand to "
                            f"{consumer.opcode.mnemonic} at {tgt.slot}")
                    if tgt.kind is OperandKind.PRED and consumer.pred is None:
                        raise BlockError(
                            f"slot {slot} sends a predicate to unpredicated "
                            f"slot {tgt.slot}")

    def _guarded_slots(self) -> set:
        """Body slots that provably fire on at most one predicated path.

        A slot is *guarded* if it carries a predicate field, or — fixpoint —
        if some data operand it needs is fed by exactly one producer and
        that producer is itself guarded (the consumer can only ever receive
        that operand when its guarded supplier fires; fanout ``mov`` trees
        hanging off predicated producers are the common case).  A port fed
        by several guarded producers does NOT guard the consumer: those
        producers may sit on complementary paths (a predicated merge), in
        which case the port always receives a value.
        """
        # keyed by the port's nine-bit target encoding (kind | slot)
        port_suppliers: Dict[int, List[int]] = {}
        for slot, inst in self.body.items():
            for tgt in inst.targets:
                if tgt.kind is not OperandKind.WRITE:
                    port_suppliers.setdefault(
                        tgt.encode(), []).append(slot)
        for read in self.reads.values():
            for tgt in read.targets:
                if tgt.kind is not OperandKind.WRITE:
                    # reads always fire: mark the port multi-supplied so it
                    # never transfers guardedness
                    port_suppliers.setdefault(
                        tgt.encode(), []).extend((-1, -1))
        guarded = {slot for slot, inst in self.body.items()
                   if inst.pred is not None}
        changed = True
        while changed:
            changed = False
            for slot, inst in self.body.items():
                if slot in guarded:
                    continue
                for port in (_LEFT | slot, _RIGHT | slot):
                    suppliers = port_suppliers.get(port, ())
                    if len(suppliers) == 1 and suppliers[0] in guarded:
                        guarded.add(slot)
                        changed = True
                        break
        return guarded

    def _check_constant_outputs(self) -> None:
        """Every write slot and store LSID must have at least one producer.

        Exactness across predicated paths (each output produced exactly once
        per execution) cannot be proven statically in general; the simulator
        asserts it dynamically.  Here we check the necessary condition that
        each output is targeted at all, and that predicated alternatives are
        plausible (an output with a single always-firing producer is always
        produced; one with multiple producers must have all of them guarded
        — predicated, or downstream of a sole guarded supplier).
        """
        guarded = self._guarded_slots()
        write_producers: Dict[int, int] = {s: 0 for s in self.writes}
        unguarded_write: Dict[int, int] = {s: 0 for s in self.writes}
        for slot, inst in self.body.items():
            for tgt in inst.targets:
                if tgt.kind is OperandKind.WRITE:
                    write_producers[tgt.slot] += 1
                    if slot not in guarded:
                        unguarded_write[tgt.slot] += 1
        for read in self.reads.values():
            for tgt in read.targets:
                if tgt.kind is OperandKind.WRITE:
                    write_producers[tgt.slot] += 1
                    unguarded_write[tgt.slot] += 1
        for wslot, count in write_producers.items():
            if count == 0:
                raise BlockError(f"write slot {wslot} has no producer")
            if count > 1 and unguarded_write[wslot] > 0:
                raise BlockError(
                    f"write slot {wslot} has {count} producers, one "
                    "unguarded — outputs would not be constant")

    # ------------------------------------------------------------------
    # Binary encoding
    # ------------------------------------------------------------------
    def encode_header(self) -> bytes:
        """Pack the header chunk (128 bytes) per the module docstring."""
        bits = self.store_mask & 0xFFFFFFFF
        bits |= (self.flags & 0xFF) << 32
        bits |= (self.num_body_chunks & 0xFF) << 40
        for slot, write in self.writes.items():
            rec = 1 | (write.reg // NUM_REG_BANKS) << 1
            bits |= rec << (64 + 6 * slot)
        for slot, read in self.reads.items():
            rt0 = read.targets[0].encode()
            rt1 = encode_optional(read.targets[1] if len(read.targets) > 1 else None)
            rec = 1 | (read.reg // NUM_REG_BANKS) << 1 | (rt0 << 6) | (rt1 << 15)
            bits |= rec << (256 + 24 * slot)
        return bits.to_bytes(CHUNK_BYTES, "little")

    @classmethod
    def decode_header(cls, data: bytes) -> "TripsBlock":
        """Unpack a header chunk into a block with empty body.

        Register indices are reconstructed from the in-bank index plus the
        bank implied by the slot position (Section 3.3: banked header).
        """
        if len(data) != CHUNK_BYTES:
            raise BlockError("header chunk must be 128 bytes")
        bits = int.from_bytes(data, "little")
        block = cls()
        block.flags = (bits >> 32) & 0xFF
        expected_chunks = (bits >> 40) & 0xFF
        for slot in range(MAX_WRITES):
            rec = (bits >> (64 + 6 * slot)) & 0x3F
            if rec & 1:
                gr = rec >> 1
                block.writes[slot] = WriteInstruction(
                    gr * NUM_REG_BANKS + slot // SLOTS_PER_BANK)
        for slot in range(MAX_READS):
            rec = (bits >> (256 + 24 * slot)) & 0xFFFFFF
            if rec & 1:
                gr = (rec >> 1) & 0x1F
                rt0 = Target.decode((rec >> 6) & 0x1FF)
                rt1 = decode_optional((rec >> 15) & 0x1FF)
                targets = [rt0] + ([rt1] if rt1 else [])
                block.reads[slot] = ReadInstruction(
                    gr * NUM_REG_BANKS + slot // SLOTS_PER_BANK, targets)
        block._expected_chunks = expected_chunks  # used by decode()
        return block

    def encode(self) -> bytes:
        """Full binary image: header + body chunks, NOP-padded with zeros.

        Empty body slots encode as the all-ones word, which is not a valid
        instruction and is skipped by :meth:`decode`.  This only packs:
        :meth:`Program.memory_image` validates each block once before it
        encodes it.
        """
        words = [0xFFFFFFFF] * (self.num_body_chunks * 32)
        for slot, inst in self.body.items():
            words[slot] = inst.encode()
        return self.encode_header() + struct.pack(f"<{len(words)}I", *words)

    @classmethod
    def decode(cls, data: bytes) -> "TripsBlock":
        """Inverse of :meth:`encode`."""
        if len(data) % CHUNK_BYTES or len(data) < 2 * CHUNK_BYTES:
            raise BlockError(f"block image of {len(data)} bytes is malformed")
        block = cls.decode_header(data[:CHUNK_BYTES])
        nchunks = len(data) // CHUNK_BYTES - 1
        if getattr(block, "_expected_chunks", nchunks) != nchunks:
            raise BlockError("header chunk count disagrees with image size")
        for slot in range(nchunks * 32):
            off = CHUNK_BYTES + 4 * slot
            word = int.from_bytes(data[off:off + 4], "little")
            if word != 0xFFFFFFFF:
                block.body[slot] = Instruction.decode(word)
        return block

    # ------------------------------------------------------------------
    def listing(self) -> str:
        """Human-readable disassembly of the whole block."""
        lines = [f"; block {self.name or '<anon>'}  "
                 f"outputs={self.num_outputs} store_mask={self.store_mask:#010x}"]
        for slot in sorted(self.reads):
            lines.append(f"  R[{slot:2d}]  {self.reads[slot]}")
        for slot in sorted(self.writes):
            lines.append(f"  W[{slot:2d}]  {self.writes[slot]}")
        for slot in sorted(self.body):
            lines.append(f"  N[{slot:3d}]  {self.body[slot]}")
        return "\n".join(lines)
