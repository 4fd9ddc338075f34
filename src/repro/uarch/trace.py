"""Microarchitectural event trace for critical-path analysis.

When tracing is enabled, tsim-proc records one :class:`InstEvent` per
dynamic body instruction and one :class:`BlockEvent` per fetched block
(the same block record telemetry reads).
:mod:`repro.analysis.critpath` walks these records backwards from the final
commit, attributing every cycle of the program's critical path to the
paper's Table 3 categories (Fields et al.'s methodology, Section 5.4).

``release`` encodes *why* an instruction became ready when it did:

* ``("dispatch", t)`` — last requirement was the instruction's own arrival
  from the GDN (instruction distribution delay -> IFetch category),
* ``("operand", producer_key, send_t, hops, queue_cycles, arrive_t)`` —
  last operand came over the OPN (hops -> "OPN hops", queueing -> "OPN
  contention"),
* ``("local", producer_key, t)`` — last operand via the local bypass path,
* ``("regread", read_key, t)`` / ``("regfwd", producer_key, t)`` — value
  delivered by a register tile from the architectural file or forwarded
  from an older in-flight block's write queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

Key = Tuple[int, object]   # (block uid, body slot | ("R", read slot))

#: release kinds whose second element is a producer instruction key
_PRODUCER_RELEASES = ("operand", "local", "regfwd")


@dataclass
class InstEvent:
    key: Key
    mnemonic: str
    et: int = -1
    dispatch_t: int = -1
    ready_t: int = -1
    issue_t: int = -1
    complete_t: int = -1
    release: Tuple = ("dispatch", -1)
    #: for loads: request-path OPN hops, queueing, DT-side wait (port
    #: serialization + dependence-predictor deferral), and cache latency
    mem_hops: int = 0
    mem_queue: int = 0
    mem_wait: int = 0
    mem_latency: int = 0


@dataclass
class BlockEvent:
    """One block's trip through the fetch→...→ack (or flush) protocol.

    The processor writes this one record per fetched block, at fetch,
    dispatch-done, complete, commit and flush; the critical-path walker
    and telemetry both read it.
    """

    uid: int
    addr: int
    frame: int = -1
    cause: Tuple = ("init",)
    fetch_t: int = -1
    dispatch_start: int = -1
    dispatch_done_t: int = -1
    completed_t: int = -1
    complete_reason: Tuple = ("unknown",)
    commit_t: int = -1
    ack_t: int = -1
    outcome: str = "inflight"      # committed | flushed | inflight
    flush_reason: str = ""
    flush_t: int = -1

    def end_t(self) -> int:
        """Last cycle this block occupied its frame (best known)."""
        if self.ack_t >= 0:
            return self.ack_t
        if self.flush_t >= 0:
            return self.flush_t
        return max(self.fetch_t, self.dispatch_done_t, self.completed_t,
                   self.commit_t)


@dataclass
class Trace:
    """All events of one tsim-proc run (enabled with ``trace=True``).

    ``blocks`` is the processor's block lifecycle record; with telemetry
    also on, the recorder reads the same dict.

    By default every event is kept for the whole run.  Long runs that
    only need the critical path can bound memory with ``max_blocks``:
    once that many blocks have deallocated beyond the retired ring, the
    oldest block's :class:`InstEvent` records are pruned down to the
    closure the critical-path walker can still reach (its
    ``complete_reason`` producer chain plus every instruction a younger
    block's release edge points into).  :class:`BlockEvent` records —
    small, and needed for the fetch-cause chain back to block 0 — are
    never pruned, so ``analyze_critical_path`` results are identical
    with pruning on or off.  ``max_blocks`` must be at least the
    in-flight window (8); smaller values are clamped.
    """

    insts: Dict[Key, InstEvent] = field(default_factory=dict)
    blocks: Dict[int, BlockEvent] = field(default_factory=dict)
    final_block_uid: int = -1
    max_blocks: Optional[int] = None
    # prune bookkeeping (only populated when max_blocks is set)
    _by_uid: Dict[int, List[Key]] = field(default_factory=dict, repr=False)
    _refs_into: Dict[int, Set[Key]] = field(default_factory=dict,
                                            repr=False)
    _retired: Deque[int] = field(default_factory=deque, repr=False)

    def inst(self, key: Key, mnemonic: str = "?") -> InstEvent:
        event = self.insts.get(key)
        if event is None:
            event = InstEvent(key=key, mnemonic=mnemonic)
            self.insts[key] = event
            if self.max_blocks is not None:
                self._by_uid.setdefault(key[0], []).append(key)
        return event

    def committed_blocks(self) -> List[BlockEvent]:
        return sorted((b for b in self.blocks.values()
                       if b.outcome == "committed"), key=lambda b: b.uid)

    # -- retention (``max_blocks``) -------------------------------------
    def note_flushed(self, uid: int) -> None:
        """A block was squashed: its instruction events are unreachable.

        Flushes remove a contiguous youngest suffix of the window, so a
        flushed block's consumers are flushed with it and no surviving
        release edge can point into it; the walker only reads a flushed
        block's *BlockEvent* (for the refetch cause), which is kept.
        """
        if self.max_blocks is None:
            return
        for key in self._by_uid.pop(uid, ()):
            self.insts.pop(key, None)
        self._refs_into.pop(uid, None)

    def note_deallocated(self, uid: int) -> None:
        """A block committed and left the window: queue it for pruning.

        At deallocation every event that will ever reference this
        block's instructions already exists (operand/local releases are
        intra-block; regfwd releases and flush-cause resolver keys point
        only at *older* in-window blocks), so the cross-block references
        out of this block are registered now and the block is pruned
        once it falls ``max_blocks`` deallocations behind.
        """
        if self.max_blocks is None:
            return
        insts = self.insts
        refs = self._refs_into
        for key in self._by_uid.get(uid, ()):
            release = insts[key].release
            if release[0] in _PRODUCER_RELEASES:
                producer = release[1]
                if isinstance(producer, tuple) and producer[0] != uid:
                    refs.setdefault(producer[0], set()).add(producer)
        block = self.blocks.get(uid)
        if block is not None and block.cause and \
                isinstance(block.cause[0], str) and \
                block.cause[0].startswith("flush"):
            resolver = block.cause[1]
            if isinstance(resolver, tuple):
                refs.setdefault(resolver[0], set()).add(resolver)
        self._retired.append(uid)
        limit = max(self.max_blocks, 8)
        while len(self._retired) > limit:
            self._prune(self._retired.popleft())

    def _prune(self, uid: int) -> None:
        """Drop the block's events except the walker-reachable closure."""
        insts = self.insts
        seeds = self._refs_into.pop(uid, set())
        block = self.blocks.get(uid)
        if block is not None and len(block.complete_reason) == 2:
            producer = block.complete_reason[1]
            if isinstance(producer, tuple):
                seeds.add(producer)
        keep: Set[Key] = set()
        stack = [key for key in seeds if key in insts]
        while stack:
            key = stack.pop()
            if key in keep:
                continue
            keep.add(key)
            release = insts[key].release
            if release[0] in _PRODUCER_RELEASES:
                producer = release[1]
                if isinstance(producer, tuple) and producer[0] == uid \
                        and producer in insts and producer not in keep:
                    stack.append(producer)
        for key in self._by_uid.pop(uid, ()):
            if key not in keep:
                del insts[key]
