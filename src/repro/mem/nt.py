"""Network tiles (NT): programmable request routing (Section 3.6).

The NTs surrounding the memory system decide where each request goes.
Each holds a programmable routing table; reprogramming the tables (plus
the MT mode bits) reconfigures the memory system between a single shared
1MB L2, two independent 512KB L2s, on-chip scratchpad memory, and
combinations — without touching the clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass
class RouteEntry:
    """One routing-table entry: an address range and its home MT."""

    base: int
    limit: int                 # exclusive
    mt_index: int

    def matches(self, address: int) -> bool:
        return self.base <= address < self.limit


class NetworkTile:
    """Translation agent: address -> home memory tile."""

    def __init__(self, index: int):
        self.index = index
        self.entries: List[RouteEntry] = []
        self.interleave: Optional[Callable[[int], int]] = None

    def program_interleave(self, fn: Callable[[int], int]) -> None:
        """Install a hashing/interleaving function (e.g. line-granularity
        round-robin across all 16 banks for the shared-L2 configuration)."""
        self.interleave = fn
        self.entries = []

    def program_ranges(self, entries: List[RouteEntry]) -> None:
        """Install explicit ranges (scratchpad / split configurations)."""
        self.entries = list(entries)
        self.interleave = None

    def route(self, address: int) -> int:
        """Home MT index for ``address``."""
        if self.interleave is not None:
            return self.interleave(address)
        for entry in self.entries:
            if entry.matches(address):
                return entry.mt_index
        raise LookupError(f"NT{self.index}: no route for {address:#x}")
