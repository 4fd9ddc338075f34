"""Memory tiles (MT): the 16 NUCA level-2 banks (Section 3.6).

Each MT holds one 4-way, 64KB bank plus an OCN router (modelled by the
shared mesh) and a single-entry MSHR.  A configuration command can switch
a bank between **L2-cache** mode and **scratchpad** mode; in scratchpad
mode the bank is directly-addressed on-chip memory and never misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..uarch.caches import CacheBank


@dataclass
class MtConfig:
    size_kb: int = 64
    assoc: int = 4
    line_bytes: int = 64
    bank_latency: int = 4          # SRAM access pipeline


class MemoryTile:
    """One NUCA bank."""

    def __init__(self, index: int, config: MtConfig = None):
        self.index = index
        self.config = config or MtConfig()
        self.bank = CacheBank(self.config.size_kb * 1024, self.config.assoc,
                              self.config.line_bytes)
        self.mode = "l2"                  # "l2" | "scratch"
        self.mshr_busy_until = 0
        self.hits = 0
        self.misses = 0
        self.scratch_accesses = 0
        self.mshr_stalls = 0

    def configure(self, mode: str) -> None:
        if mode not in ("l2", "scratch"):
            raise ValueError(f"unknown MT mode {mode!r}")
        self.mode = mode

    def access(self, address: int, now: int) -> Tuple[int, bool]:
        """(ready time at the bank, needs_dram).

        In L2 mode a miss occupies the single MSHR; a second miss arriving
        while it is busy waits for it (the single-entry MSHR is precisely
        why the paper's OCN needed four virtual channels less than it
        needed bandwidth).
        """
        if self.mode == "scratch":
            self.scratch_accesses += 1
            return now + self.config.bank_latency, False
        if self.bank.lookup(address):
            self.hits += 1
            return now + self.config.bank_latency, False
        self.misses += 1
        start = now
        if self.mshr_busy_until > now:
            self.mshr_stalls += 1
            start = self.mshr_busy_until
        self.bank.fill(address)
        return start + self.config.bank_latency, True

    def note_refill(self, done_at: int) -> None:
        self.mshr_busy_until = done_at
