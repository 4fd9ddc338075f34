"""Load/store queue and memory dependence predictor (Section 3.5).

The prototype replicates a full 256-entry LSQ at every data tile; each DT's
copy receives the memory operations whose addresses interleave to it.
Program order across the window is the pair (block uid, LSID) — uids
count fetches, so block-atomic execution plus per-block LSIDs give a
total order without renaming.

Responsibilities modelled here:

* byte-granular store->load forwarding from older in-flight stores,
* ordering-violation detection when a store arrives after a younger,
  overlapping load has already executed (triggers a pipeline flush),
* block commit: draining a block's stores to the backing store in order,
* the 1024-entry bit-vector dependence predictor with its crude
  clear-every-10,000-blocks aging scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

Key = Tuple[int, int]   # (block uid, LSID) = program order


@dataclass
class LsqEntry:
    key: Key
    is_store: bool
    address: Optional[int] = None    # None for nullified stores
    size: int = 0
    data: int = 0
    nullified: bool = False


class LoadStoreQueue:
    """One DT's LSQ copy."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self.entries: Dict[Key, LsqEntry] = {}
        #: block uid -> the LSIDs it holds here, so commit and flush touch
        #: one block's entries instead of scanning the whole queue
        self._lsids: Dict[int, List[int]] = {}
        self.peak_occupancy = 0

    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    # ------------------------------------------------------------------
    def insert_store(self, key: Key, address: Optional[int], size: int,
                     data: int, nullified: bool = False) -> List[Key]:
        """Insert an executed store; returns keys of violating loads.

        A violation is any *younger* executed load whose bytes overlap this
        store: it ran too early and read stale data (conservatively flagged
        even if the values happen to match, like the hardware).
        """
        if key in self.entries:
            raise ValueError(f"duplicate LSQ key {key}")
        entry = LsqEntry(key=key, is_store=True, address=address, size=size,
                         data=data, nullified=nullified)
        self._add(key, entry)
        if nullified or address is None:
            return []
        violators = []
        for other in self.entries.values():
            if other.is_store or other.key <= key or other.address is None:
                continue
            if _overlap(address, size, other.address, other.size):
                violators.append(other.key)
        return sorted(violators)

    def insert_load(self, key: Key, address: int, size: int) -> None:
        if key in self.entries:
            raise ValueError(f"duplicate LSQ key {key}")
        self._add(key, LsqEntry(key=key, is_store=False, address=address,
                                size=size))

    def _add(self, key: Key, entry: LsqEntry) -> None:
        entries = self.entries
        entries[key] = entry
        lsids = self._lsids.get(key[0])
        if lsids is None:
            self._lsids[key[0]] = [key[1]]
        else:
            lsids.append(key[1])
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)

    # ------------------------------------------------------------------
    def forward(self, key: Key, address: int, size: int,
                memory_bytes: bytes) -> int:
        """Load value: committed memory overlaid with older in-flight stores.

        ``memory_bytes`` is the committed state at ``address`` (length
        ``size``).  Older stores (lower key) apply in ascending program
        order, byte-granular — the answer the paper's LSQ CAM produces.
        """
        result = bytearray(memory_bytes)
        for skey in sorted(k for k, e in self.entries.items()
                           if e.is_store and k < key):
            entry = self.entries[skey]
            if entry.nullified or entry.address is None:
                continue
            lo = max(address, entry.address)
            hi = min(address + size, entry.address + entry.size)
            if lo >= hi:
                continue
            data = (entry.data & ((1 << (8 * entry.size)) - 1)).to_bytes(
                entry.size, "little")
            for b in range(lo, hi):
                result[b - address] = data[b - entry.address]
        return int.from_bytes(result, "little")

    # ------------------------------------------------------------------
    def flush_blocks(self, uids: Iterable[int]) -> int:
        """Discard all entries of the flushed blocks."""
        entries = self.entries
        dropped = 0
        for uid in uids:
            lsids = self._lsids.pop(uid, None)
            if lsids is not None:
                for lsid in lsids:
                    del entries[(uid, lsid)]
                dropped += len(lsids)
        return dropped

    def commit_block(self, uid: int) -> List[LsqEntry]:
        """Remove the block's entries; return its live stores in LSID
        order (the order they drain to memory)."""
        lsids = self._lsids.pop(uid, None)
        if lsids is None:
            return []
        pop = self.entries.pop
        out = []
        for lsid in sorted(lsids):
            entry = pop((uid, lsid))
            if entry.is_store and not entry.nullified:
                out.append(entry)
        return out

    def occupancy(self) -> int:
        return len(self.entries)


def _overlap(addr_a: int, size_a: int, addr_b: int, size_b: int) -> bool:
    return addr_a < addr_b + size_b and addr_b < addr_a + size_a


# ----------------------------------------------------------------------
class DependencePredictor:
    """1024-entry bit vector, memory-side (one per DT).

    A load whose address hashes to a set bit is held back until all prior
    stores have arrived.  Bits are set on ordering violations and — since
    entries cannot be cleared individually — the whole vector is flash-
    cleared every ``clear_interval`` committed blocks (Section 3.5).
    """

    def __init__(self, bits: int = 1024, clear_interval: int = 10_000,
                 enabled: bool = True):
        self.bits = bits
        self.clear_interval = clear_interval
        self.enabled = enabled
        self.vector = 0
        self.blocks_since_clear = 0
        self.violations_recorded = 0
        self.clears = 0

    def _index(self, address: int) -> int:
        return (address >> 3) % self.bits

    def predict_dependent(self, address: int) -> bool:
        if not self.enabled:
            return False
        return bool((self.vector >> self._index(address)) & 1)

    def record_violation(self, load_address: int) -> None:
        if not self.enabled:
            return
        self.vector |= 1 << self._index(load_address)
        self.violations_recorded += 1

    def on_block_commit(self) -> None:
        self.blocks_since_clear += 1
        if self.blocks_since_clear >= self.clear_interval:
            self.vector = 0
            self.blocks_since_clear = 0
            self.clears += 1
