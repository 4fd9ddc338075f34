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

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

Key = Tuple[int, object]   # (block uid, body slot | ("R", read slot))


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
    """

    insts: Dict[Key, InstEvent] = field(default_factory=dict)
    blocks: Dict[int, BlockEvent] = field(default_factory=dict)
    final_block_uid: int = -1

    def inst(self, key: Key, mnemonic: str = "?") -> InstEvent:
        event = self.insts.get(key)
        if event is None:
            event = InstEvent(key=key, mnemonic=mnemonic)
            self.insts[key] = event
        return event

    def committed_blocks(self) -> List[BlockEvent]:
        return sorted((b for b in self.blocks.values()
                       if b.outcome == "committed"), key=lambda b: b.uid)
