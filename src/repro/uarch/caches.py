"""Set-associative cache banks (timing model).

Data correctness flows through the backing store plus the LSQ (committed
state + in-flight forwarding); the cache banks model *timing* — hit/miss
and LRU replacement — exactly the split the paper's validation
methodology implies for tsim-proc.
"""

from __future__ import annotations

from typing import List, Optional


class CacheBank:
    """One N-way, LRU, ``size_bytes`` bank of ``line_bytes`` lines."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int):
        if size_bytes % (assoc * line_bytes):
            raise ValueError("size must be a multiple of assoc * line size")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_bytes)
        # each set: list of line tags (address // line_bytes) in LRU
        # order (front = MRU); a tag lives in set ``tag % num_sets``
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, address: int) -> bool:
        """Hit test; promotes the line to MRU on hit."""
        tag = address // self.line_bytes
        lines = self._sets[tag % self.num_sets]
        if tag in lines:
            self.hits += 1
            lines.remove(tag)
            lines.insert(0, tag)
            return True
        self.misses += 1
        return False

    def fill(self, address: int) -> Optional[int]:
        """Install a line; returns the evicted line address, if any."""
        tag = address // self.line_bytes
        lines = self._sets[tag % self.num_sets]
        if tag in lines:
            return None
        lines.insert(0, tag)
        if len(lines) > self.assoc:
            return lines.pop() * self.line_bytes
        return None

    # -- warm-state snapshot (repro.sampling checkpoints) ---------------
    def state(self) -> List[List[int]]:
        """Tag contents of every set, MRU first (JSON-serializable)."""
        return [list(lines) for lines in self._sets]

    def load_state(self, sets: List[List[int]]) -> None:
        if len(sets) != self.num_sets:
            raise ValueError(f"cache state has {len(sets)} sets, "
                             f"bank has {self.num_sets}")
        self._sets = [list(lines) for lines in sets]
