"""Program images: TRIPS blocks laid out in memory plus a data segment.

A :class:`Program` is what the assembler and compiler produce and what the
simulators consume: a set of validated blocks at 128-byte-aligned addresses,
initialised data regions, an entry PC, and initial register values.

Branch resolution is by *byte offset from the current block's base address*
(``BRO``/``CALLO``) or by absolute address from an operand (``BR``/``RET``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Container, Dict, Iterable, List, Mapping, Optional, Tuple

from .block import CHUNK_BYTES, BlockError, TripsBlock

#: Branching to this address terminates simulation (HALT also terminates).
EXIT_ADDRESS = 0


class ProgramError(ValueError):
    """Malformed program image."""


@dataclass
class Program:
    """An executable TRIPS program.

    A program is validated and encoded once: :meth:`memory_image` builds
    the image on first use (``ProgramBuilder.finish`` builds it early) and
    every simulator loads that one image.  :meth:`add_block` and
    :meth:`add_data` drop it, so the next use validates again.  A
    finished program is not changed in place: nothing else drops the
    image, and the simulators' per-program decode cache
    (``uarch.proc._decode_cache_for``) holds its blocks by address.
    """

    blocks: Dict[int, TripsBlock] = field(default_factory=dict)
    data: Dict[int, bytes] = field(default_factory=dict)
    entry: int = 0
    initial_regs: Dict[int, int] = field(default_factory=dict)
    labels: Dict[str, int] = field(default_factory=dict)
    _image: Optional[Dict[int, bytes]] = field(
        default=None, init=False, repr=False, compare=False)

    def add_block(self, address: int, block: TripsBlock) -> None:
        """Place ``block`` at ``address``; it is validated with the rest
        of the program when the image is next built."""
        if address % CHUNK_BYTES:
            raise ProgramError(f"block address {address:#x} not 128B-aligned")
        if address in self.blocks:
            raise ProgramError(f"two blocks at {address:#x}")
        self.blocks[address] = block
        self._image = None

    def add_data(self, address: int, payload: bytes) -> None:
        self.data[address] = bytes(payload)
        self._image = None

    def block_at(self, address: int) -> TripsBlock:
        try:
            return self.blocks[address]
        except KeyError:
            raise ProgramError(f"no block at address {address:#x}") from None

    def validate(self) -> None:
        """Raise :class:`BlockError`/:class:`ProgramError` unless the
        program can run (building its image if that is not done yet)."""
        self.memory_image()

    # ------------------------------------------------------------------
    def memory_image(self) -> Mapping[int, bytes]:
        """All initialised memory: encoded blocks plus data regions.

        Built once: each block is validated, every static branch offset
        checked to land on a block or the exit, and each block encoded.
        The entry point is checked on every call, since the compiler and
        the assembler set it after ``finish``.  The image is shared, so
        it is returned read-only.
        """
        if self._image is None:
            self._build_image(())
        if self.entry != EXIT_ADDRESS and self.entry not in self.blocks:
            raise ProgramError(f"entry {self.entry:#x} holds no block")
        return MappingProxyType(self._image)

    def _build_image(self, validated: Container[int]) -> None:
        """Build the image, validating every block but those at the
        ``validated`` addresses (:meth:`ProgramBuilder.finish` passes the
        blocks their producer validated as it formed them)."""
        image = {}
        for addr, block in sorted(self.blocks.items()):
            if addr not in validated:
                block.validate()
            for slot in block.branches():
                inst = block.body[slot]
                if inst.opcode.mnemonic in ("bro", "callo"):
                    tgt = addr + inst.offset
                    if tgt != EXIT_ADDRESS and tgt not in self.blocks:
                        raise ProgramError(
                            f"block {block.name} at {addr:#x}: branch "
                            f"to {tgt:#x} which holds no block")
            image[addr] = block.encode()
        image.update(self.data)
        self._image = image

    def static_instruction_count(self) -> int:
        """Total static instructions including header reads/writes."""
        return sum(len(b.body) + len(b.reads) + len(b.writes)
                   for b in self.blocks.values())

    def listing(self) -> str:
        rev = {v: k for k, v in self.labels.items()}
        lines = []
        for addr in sorted(self.blocks):
            label = rev.get(addr, "")
            lines.append(f"{addr:#010x} {label}")
            lines.append(self.blocks[addr].listing())
        return "\n".join(lines)


class ProgramBuilder:
    """Incremental builder that packs blocks contiguously and fixes labels.

    Blocks are appended with symbolic branch targets ("label" strings stored
    on the instruction as ``.label`` attributes by the compiler/assembler);
    :meth:`finish` resolves them to byte offsets.
    """

    def __init__(self, base: int = 0x1000, data_base: int = 0x100000):
        self._base = base
        self._next = base
        self._data_next = data_base
        self.program = Program(entry=base)
        #: addresses of blocks appended ``validated=True``
        self._validated: set = set()

    def append(self, block: TripsBlock, label: Optional[str] = None,
               validated: bool = False) -> int:
        """Place ``block`` at the next free code address; returns address.

        ``validated=True`` says the caller has validated ``block`` (the
        compiler does when a BlockError would make it split the block)
        and changes no more than its branch offsets, which
        :meth:`finish` resolves and checks; the image then does not
        validate it again."""
        addr = self._next
        if label:
            if label in self.program.labels:
                raise ProgramError(f"duplicate label {label!r}")
            self.program.labels[label] = addr
        self._pending_validate(block)
        self.program.blocks[addr] = block
        self.program._image = None
        if validated:
            self._validated.add(addr)
        self._next += block.size_bytes
        return addr

    @staticmethod
    def _pending_validate(block: TripsBlock) -> None:
        # Full validation happens at finish(); here we only need structure
        # sound enough to compute the block size.
        if len(block.body) > 128:
            raise BlockError("block too large")

    def add_data(self, payload: bytes, align: int = 8,
                 at: Optional[int] = None) -> int:
        """Place ``payload`` in the data segment; returns its address.

        ``at`` pins the payload to an exact address (used by the
        assembler's ``.data name @addr`` form so disassembled programs
        re-assemble to the identical memory image regardless of the
        alignment that originally produced the address).
        """
        if at is not None:
            addr = at
            if addr in self.program.data:
                raise ProgramError(f"data at {addr:#x} placed twice")
        else:
            self._data_next = -(-self._data_next // align) * align
            addr = self._data_next
        self.program.add_data(addr, payload)
        self._data_next = max(self._data_next, addr + len(payload))
        return addr

    def finish(self) -> Program:
        """Resolve symbolic branch targets, validate, and return the program.

        Validating builds the program's memory image, which every
        simulator of the finished program then reuses; it validates each
        block not appended ``validated=True``.
        """
        for addr, block in self.program.blocks.items():
            for slot in block.branches():
                inst = block.body[slot]
                label = getattr(inst, "label", None)
                if label is None:
                    continue
                if label == "@exit":
                    target = EXIT_ADDRESS
                elif label in self.program.labels:
                    target = self.program.labels[label]
                else:
                    raise ProgramError(f"undefined label {label!r}")
                inst.offset = target - addr
                inst.validate()
        self.program._build_image(self._validated)
        self.program.validate()
        return self.program
