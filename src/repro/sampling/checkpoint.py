"""Architectural checkpoints: snapshot a fast-forwarded machine, resume
the cycle-accurate engine from it.

A checkpoint captures, at a block boundary:

* **architectural state** — PC, the 128 architectural registers, and
  every touched 4KB memory page (sparse, like the backing store itself),
* **warm microarchitectural state** — the next-block predictor's tables
  and the I-cache / D-cache / NUCA-bank LRU tag sets accumulated by the
  :class:`~repro.sampling.ffwd.FastForwarder`,
* **progress counters** — blocks and instructions retired before the
  snapshot, so sampled statistics can be stitched into whole-program
  estimates.

The JSON codec is exact in the same sense as :mod:`repro.tir.serialize`:
every field is integers, strings and hex page images, so a checkpoint
round-trips bit-for-bit through ``json.dumps``/``loads`` (there are no
floats anywhere in machine state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa import EXIT_ADDRESS
from .ffwd import FastForwarder

CHECKPOINT_VERSION = 1


@dataclass
class ArchCheckpoint:
    """Resumable machine state at a block boundary."""

    pc: int
    blocks: int                      # blocks retired before this point
    insts: int                       # body instructions fired before it
    reads: int                       # register reads before it
    regs: List[int]
    pages: Dict[int, bytes]          # page base address -> 4KB image
    predictor: Optional[dict] = None
    icache: Optional[List[List[List[int]]]] = None
    dcache: Optional[List[List[List[int]]]] = None
    mt_banks: Optional[List[List[List[int]]]] = None
    halted: bool = False
    #: bounded-warming provenance: how many blocks the fast-forwarder
    #: executed *unwarmed* before this snapshot (``warm_horizon`` runs).
    #: Zero means continuously-warmed state; a large value means the tag
    #: and predictor contents are that many blocks stale — the bias this
    #: buys is measured by ``repro.sampling.validate.staleness_sweep``.
    unwarmed_blocks: int = 0

    # -- codec (exact: ints + hex strings only) -------------------------
    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "pc": self.pc,
            "blocks": self.blocks,
            "insts": self.insts,
            "reads": self.reads,
            "halted": self.halted,
            "unwarmed_blocks": self.unwarmed_blocks,
            "regs": list(self.regs),
            "pages": {str(addr): data.hex()
                      for addr, data in sorted(self.pages.items())},
            "predictor": self.predictor,
            "icache": self.icache,
            "dcache": self.dcache,
            "mt_banks": self.mt_banks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchCheckpoint":
        version = data.get("version", CHECKPOINT_VERSION)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unknown checkpoint version {version}")
        return cls(
            pc=data["pc"], blocks=data["blocks"], insts=data["insts"],
            reads=data.get("reads", 0), halted=data.get("halted", False),
            unwarmed_blocks=data.get("unwarmed_blocks", 0),
            regs=list(data["regs"]),
            pages={int(addr): bytes.fromhex(image)
                   for addr, image in data["pages"].items()},
            predictor=data.get("predictor"),
            icache=data.get("icache"),
            dcache=data.get("dcache"),
            mt_banks=data.get("mt_banks"),
        )

    # -- restore --------------------------------------------------------
    def apply(self, proc) -> None:
        """Overwrite a freshly-constructed
        :class:`~repro.uarch.proc.TripsProcessor`'s state with this
        checkpoint (called from its ``__init__`` via ``checkpoint=``)."""
        if self.halted or self.pc == EXIT_ADDRESS:
            raise ValueError("cannot resume a checkpoint taken at HALT")
        proc.regs[:] = self.regs
        for addr, image in self.pages.items():
            proc.memory.write_bytes(addr, image)
        proc._pending_fetch_addr = self.pc
        if self.predictor is not None:
            proc.predictor.load_state(self.predictor)
        if self.icache is not None:
            for bank, sets in zip(proc.icache, self.icache):
                bank.load_state(sets)
        if self.dcache is not None:
            for dt, sets in zip(proc.dts, self.dcache):
                dt.cache.load_state(sets)
        if self.mt_banks is not None and proc.sysmem is not None:
            for mt, sets in zip(proc.sysmem.mts, self.mt_banks):
                mt.bank.load_state(sets)


def take_checkpoint(ff: FastForwarder) -> ArchCheckpoint:
    """Snapshot a fast-forwarder at its current block boundary.

    The predictor's *tables* (exit, confidence, choice, target, type) are
    shipped warm; its *history registers* (``ghist`` and the local history
    table) are zeroed.  In the detailed engine those registers carry
    wrong-path pollution — every flush leaves the speculative pushes of
    other in-flight blocks' local histories in place — and that pollution
    is what keeps hard-to-predict blocks hard to predict.  An in-order
    fast-forward never fetches a wrong path, so its clean histories bias
    a resumed window into an unrealistically predictable fixed point
    (measured up to -30% cycles on branchy workloads).  Zeroed registers
    refill under the detailed engine's own dynamics within ~10 blocks of
    warmup, which reproduces true window behavior exactly on most
    workloads (see tests/sampling/ and the sampling note in
    EXPERIMENTS.md).

    Page images come from :meth:`FastForwarder.page_images`: a page the
    fast-forwarder has not changed since its previous snapshot is that
    snapshot's ``bytes`` object, so a profiling pass's per-interval
    snapshots hold one copy of each unchanged page, not one each.
    """
    stats = ff.stats
    predictor = None
    if ff.warm:
        predictor = ff.predictor.state_dict()
        predictor["ghist"] = 0
        predictor["lht"] = [0] * len(predictor["lht"])
    return ArchCheckpoint(
        pc=ff.pc,
        blocks=stats.blocks,
        insts=stats.fired,
        reads=stats.reads,
        halted=ff.halted,
        unwarmed_blocks=ff.unwarmed_blocks,
        regs=list(ff.regs),
        pages=ff.page_images(),
        predictor=predictor,
        icache=[bank.state() for bank in ff.icache] if ff.warm else None,
        dcache=[bank.state() for bank in ff.dcache] if ff.warm else None,
        mt_banks=[bank.state() for bank in ff.mt_banks]
        if ff.warm and ff.mt_banks is not None else None,
    )
