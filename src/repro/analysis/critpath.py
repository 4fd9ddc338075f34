"""Critical-path construction and cycle attribution (Section 5.4).

The paper uses the methodology of Fields et al. [7]: build the dependence
graph of the execution, find the critical (longest) path, and attribute
each of its cycles to a microarchitectural activity.  tsim-proc records a
*last-arrival* edge for every dynamic event (which requirement completed
last), so the critical path here is reconstructed by walking those edges
backwards from the final block's commit acknowledgment to the first fetch.

Categories (the columns of Table 3):

* ``ifetch``          — instruction distribution: fetch pipeline + GDN delivery
* ``opn_hops``        — operand network hop latency between dependent insts
* ``opn_contention``  — operand network queueing beyond pure hop latency
* ``fanout``          — execution of mov/null instructions that replicate
                        operands (compiler fanout trees, predicate merges)
* ``block_complete``  — waiting for the GT to learn all outputs arrived
                        (GSN daisy-chains, DSN store counting)
* ``commit``          — commit command + architectural writes + ack + the
                        wait for a window slot bounded by older commits
* ``other``           — ALU execution, cache access, select stalls, memory
                        ordering waits: components a monolithic core has too
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..uarch.trace import BlockEvent, InstEvent, Trace

CATEGORIES = ("ifetch", "opn_hops", "opn_contention", "fanout",
              "block_complete", "commit", "other")

#: opcodes whose execution is operand-replication overhead, not real work.
_FANOUT_MNEMONICS = {"mov", "null"}


@dataclass
class CriticalPathReport:
    """Cycle attribution of one run's critical path."""

    cycles: Dict[str, int] = field(default_factory=lambda: {
        c: 0 for c in CATEGORIES})
    path_length: int = 0
    events_walked: int = 0

    def charge(self, category: str, cycles: int) -> None:
        if cycles > 0:
            self.cycles[category] += cycles
            self.path_length += cycles

    def percentages(self) -> Dict[str, float]:
        total = max(1, self.path_length)
        return {c: 100.0 * v / total for c, v in self.cycles.items()}

    def row(self) -> Dict[str, float]:
        """A Table 3 row: the seven categories as percentages."""
        p = self.percentages()
        return {
            "IFetch": p["ifetch"],
            "OPN Hops": p["opn_hops"],
            "OPN Cont.": p["opn_contention"],
            "Fanout Ops": p["fanout"],
            "Block Complete": p["block_complete"],
            "Block Commit": p["commit"],
            "Other": p["other"],
        }


class _Walker:
    """Backward walk over last-arrival edges."""

    MAX_STEPS = 5_000_000

    def __init__(self, trace: Trace, report: CriticalPathReport):
        self.trace = trace
        self.report = report
        self.steps = 0
        # committed blocks indexed once in uid order: predecessor lookups
        # during the walk become a bisect instead of a scan over every
        # traced block (the walk visits O(blocks) commit edges, so the
        # naive scan was quadratic in run length)
        self._committed_blocks = trace.committed_blocks()
        self._committed_uids = [b.uid for b in self._committed_blocks]

    # Each visit method returns the next (kind, ...) hop or None (done).
    def walk(self) -> None:
        final = self.trace.blocks.get(self.trace.final_block_uid)
        if final is None:      # nothing committed; nothing to attribute
            return
        hop: Optional[Tuple] = ("ack", final)
        while hop is not None:
            self.steps += 1
            if self.steps > self.MAX_STEPS:
                raise RuntimeError("critical-path walk did not terminate")
            kind = hop[0]
            if kind == "ack":
                hop = self._from_ack(hop[1])
            elif kind == "commit":
                hop = self._from_commit(hop[1])
            elif kind == "complete":
                hop = self._from_complete(hop[1])
            elif kind == "inst":
                hop = self._from_inst(hop[1], hop[2])
            elif kind == "fetch":
                hop = self._from_fetch(hop[1], hop[2])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown hop {hop!r}")
        self.report.events_walked = self.steps

    # ------------------------------------------------------------------
    def _block(self, uid: int) -> Optional[BlockEvent]:
        return self.trace.blocks.get(uid)

    def _from_ack(self, block: BlockEvent):
        self.report.charge("commit", block.ack_t - block.commit_t)
        return ("commit", block)

    def _from_commit(self, block: BlockEvent):
        """The commit command waited for completion and for older commits."""
        if block.commit_t > block.completed_t:
            # bounded by an older block's commit command (pipelined commit)
            older = self._previous_committed(block)
            if older is not None:
                self.report.charge("commit",
                                   block.commit_t - older.commit_t)
                return ("commit", older)
        self.report.charge("commit", max(0, block.commit_t - block.completed_t))
        return ("complete", block)

    def _previous_committed(self, block: BlockEvent) -> Optional[BlockEvent]:
        i = bisect_left(self._committed_uids, block.uid)
        return self._committed_blocks[i - 1] if i else None

    def _from_complete(self, block: BlockEvent):
        """Completion = last output + GSN/DSN signalling to the GT."""
        kind, producer_key = block.complete_reason if \
            len(block.complete_reason) == 2 else ("unknown", None)
        producer = self.trace.insts.get(producer_key) \
            if producer_key is not None else None
        if producer is None or producer.complete_t < 0:
            self.report.charge("block_complete",
                               block.completed_t - block.dispatch_done_t)
            return ("fetch", block, block.dispatch_done_t)
        # output value left the producer at complete_t; the remainder is
        # output delivery + completion-detection signalling
        self.report.charge("block_complete",
                           block.completed_t - producer.complete_t)
        return ("inst", producer, producer.complete_t)

    def _from_inst(self, inst: InstEvent, at_t: int):
        """Walk back through one dynamic instruction."""
        # execution interval: issue -> complete
        exec_cycles = max(0, inst.complete_t - inst.issue_t)
        if inst.mnemonic in _FANOUT_MNEMONICS:
            self.report.charge("fanout", exec_cycles)
        elif inst.mem_latency or inst.mem_hops or inst.mem_wait:
            # a load: split its round trip
            self.report.charge("opn_hops", inst.mem_hops)
            self.report.charge("opn_contention", inst.mem_queue)
            self.report.charge("other",
                               exec_cycles - inst.mem_hops - inst.mem_queue)
        else:
            self.report.charge("other", exec_cycles)
        # select / ALU-contention wait: ready -> issue (monolithic cores
        # have this too; the paper folds it into Other)
        if inst.ready_t >= 0:
            self.report.charge("other", max(0, inst.issue_t - inst.ready_t))

        release = inst.release
        kind = release[0]
        if kind == "operand":
            _, producer_key, send_t, hops, queue, arrive_t = release
            self.report.charge("opn_hops", hops)
            self.report.charge("opn_contention", queue)
            producer = self.trace.insts.get(producer_key)
            if producer is None:
                return self._fetch_of(inst, send_t)
            return ("inst", producer, send_t)
        if kind in ("local", "regfwd"):
            producer = self.trace.insts.get(release[1])
            if producer is None:
                return self._fetch_of(inst, release[2])
            if kind == "regfwd" and producer.complete_t >= 0:
                # producer ET -> RT network travel, then RT-side wait
                # (read buffered until the write-queue value landed)
                arrive_rt = release[3] if len(release) > 3 else release[2]
                self.report.charge("opn_hops",
                                   max(0, arrive_rt - producer.complete_t))
                self.report.charge("other",
                                   max(0, release[2] - arrive_rt))
            return ("inst", producer, release[2])
        # dispatch-released: charge GDN delivery as IFetch back to fetch
        return self._fetch_of(inst, release[1] if len(release) > 1 else -1)

    def _fetch_of(self, inst: InstEvent, at_t: int):
        block = self._block(inst.key[0])
        if block is None:
            return None
        arrive = inst.dispatch_t if inst.dispatch_t >= 0 else at_t
        self.report.charge("ifetch", max(0, arrive - block.fetch_t))
        return ("fetch", block, block.fetch_t)

    def _from_fetch(self, block: BlockEvent, at_t: int):
        """Why did this block's fetch happen when it did?"""
        cause = block.cause
        kind = cause[0]
        if kind == "init":
            return None
        if kind == "frame":
            dealloc_uid = cause[1]
            older = self._block(dealloc_uid) if dealloc_uid is not None \
                else None
            if older is None:
                self.report.charge("commit", 0)
                return None
            self.report.charge("commit", max(0, block.fetch_t - older.ack_t))
            return ("ack", older)
        if kind in ("pred", "resolved"):
            prev = self._block(cause[1])
            if prev is None:
                return None
            if kind == "resolved":
                # fetch waited for the previous block's branch to resolve
                self.report.charge("ifetch",
                                   max(0, block.fetch_t - cause[2]))
                resolver_key = self._branch_key_of(prev)
                resolver = self.trace.insts.get(resolver_key) \
                    if resolver_key is not None else None
                if resolver is not None:
                    # branch message travel to the GT
                    self.report.charge("opn_hops", max(
                        0, cause[2] - max(0, resolver.complete_t)))
                    return ("inst", resolver, cause[2])
                return ("fetch", prev, prev.fetch_t)
            self.report.charge("ifetch", max(0, block.fetch_t - prev.fetch_t))
            return ("fetch", prev, prev.fetch_t)
        if kind.startswith("flush"):
            # misprediction / violation recovery: a monolithic core pays
            # this too, so it lands in Other
            resolver_key = cause[1]
            resolver = self.trace.insts.get(resolver_key) \
                if resolver_key is not None else None
            self.report.charge("other", max(0, block.fetch_t - cause[2]))
            if resolver is not None and resolver.complete_t >= 0:
                self.report.charge("other",
                                   max(0, cause[2] - resolver.complete_t))
                return ("inst", resolver, resolver.complete_t)
            return None
        return None  # pragma: no cover - defensive

    def _branch_key_of(self, block: BlockEvent):
        # the branch producer key was recorded as the completion reason
        # when the branch was the last output; otherwise unknown
        if len(block.complete_reason) == 2 \
                and block.complete_reason[0] == "branch":
            return block.complete_reason[1]
        return None


def analyze_critical_path(trace: Trace) -> CriticalPathReport:
    """Attribute the traced run's critical path to Table 3 categories."""
    report = CriticalPathReport()
    _Walker(trace, report).walk()
    return report
