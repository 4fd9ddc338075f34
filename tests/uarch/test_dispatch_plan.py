"""The decoded GDN dispatch plan and the GT's O(1) bookkeeping.

``DecodedBlock.plan`` groups a block's header declarations, register
reads and body instructions by arrival cycle, and the processor
schedules one timed event per group.  ``_PerItemDispatch`` below keeps
the schedule the plan replaced — one event per header word, read and
instruction, each checking liveness itself — computed from the
``TripsBlock`` rather than from the plan.  Same-cycle events fire in
scheduling order, so the two must agree on every ``ProcStats`` field and
on every trace record: a reordered delivery inside a cycle can leave the
stats alone and still move the critical-path attribution, which reads
the trace's release edges.

The speculation depth (window blocks whose branch has not resolved) is
a counter kept at fetch, branch resolution and flush; ``_CheckedDepth``
recounts the window at every fetch on two flush-heavy workloads.
"""

import dataclasses

import pytest

from repro.compiler import compile_tir
from repro.uarch.proc import TripsProcessor
from repro.workloads import get_workload


class _PerItemDispatch(TripsProcessor):
    """The engine with one timed event per GDN arrival."""

    def _schedule_dispatch(self, block):
        t_d = block.dispatch_start
        last = t_d
        tb = block.decoded.block
        uid = block.uid
        # header: bank b's write declaration lands 2+b cycles in
        for bank in range(4):
            regs = tuple(w.reg for slot, w in sorted(tb.writes.items())
                         if slot // 8 == bank)
            decl_t = t_d + 2 + bank
            self.schedule(decl_t, self._declare, uid, bank, regs, decl_t)
            last = max(last, decl_t)
        self.stats.gdn_messages += len(tb.reads) + len(tb.body) + 4
        for slot, read in sorted(tb.reads.items()):
            arrive = t_d + 2 + slot // 4 + slot // 8 + 2
            self.schedule(arrive, self.rts[slot // 8].dispatch_read, uid,
                          slot, read, arrive)
            block.reads_count += 1
            last = max(last, arrive)
        # body rows: IT k+1 streams its row 4 per cycle, one hop per column
        rows = [[] for _ in range(4)]
        for slot, inst in sorted(tb.body.items()):
            rows[(slot % 16) // 4].append((slot, inst))
        for row, insts in enumerate(rows):
            base = t_d + 2 + (row + 1)
            for n, (slot, inst) in enumerate(insts):
                et = slot % 16
                arrive = base + 1 + n // 4 + (et % 4 + 1)
                self.schedule(arrive, self._dispatch_one, block, et, slot,
                              inst, arrive)
                last = max(last, arrive)
        block.dispatch_done = last
        self.schedule(last, self._dispatch_done, block)

    def _declare(self, uid, bank, regs, t):
        if uid in self.live_uids:
            self.rts[bank].declare_writes(uid, regs, t)

    def _dispatch_one(self, block, et, slot, inst, t):
        if block.uid in self.live_uids:
            self.ets[et].dispatch_inst(block.uid, block.seq, slot, inst, t,
                                       ("dispatch", t))


class _CheckedDepth(TripsProcessor):
    """Recounts the speculation depth at every fetch."""

    fetches = 0

    def _try_fetch(self, t):
        recount = sum(1 for b in self.window if b.resolved_next is None)
        assert self.unresolved == recount, (t, self.unresolved, recount)
        super()._try_fetch(t)
        recount = sum(1 for b in self.window if b.resolved_next is None)
        assert self.unresolved == recount, (t, self.unresolved, recount)
        self.fetches += 1


def _program(case):
    name, level = case.split("@")
    return compile_tir(get_workload(name), level=level).program


def _record(proc):
    trace = proc.trace
    return (proc.stats.to_dict(),
            [dataclasses.asdict(b) for b in trace.blocks.values()],
            {key: dataclasses.asdict(ev) for key, ev in trace.insts.items()})


@pytest.mark.parametrize("case", ["sha@hand", "dct8x8@hand", "tblook01@tcc",
                                  "mcf@tcc"])
def test_plan_matches_per_item_dispatch(case):
    program = _program(case)
    plan = TripsProcessor(program, trace=True)
    plan.run()
    per_item = _PerItemDispatch(program, trace=True)
    per_item.run()
    got, want = _record(plan), _record(per_item)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]


def test_plan_order_within_a_cycle():
    """Each plan entry keeps per-item order: declarations by bank, reads
    by slot, instructions by row then slot; only the last entry ends
    dispatch."""
    program = _program("sha@hand")
    proc = TripsProcessor(program)
    for addr in sorted(program.blocks):
        plan = proc.decoded_at(addr).plan
        offsets = [entry[0] for entry in plan]
        assert offsets == sorted(set(offsets))
        assert [entry[4] for entry in plan] == \
            [False] * (len(plan) - 1) + [True]
        for _offset, decls, reads, insts, _done in plan:
            assert [b for b, _ in decls] == sorted(b for b, _ in decls)
            assert [s for _, s, _ in reads] == sorted(s for _, s, _ in reads)
            order = [((slot % 16) // 4, slot) for _, slot, _ in insts]
            assert order == sorted(order)


@pytest.mark.parametrize("case", ["tblook01@tcc", "parser@tcc"])
def test_speculation_depth_counter_matches_recount(case):
    proc = _CheckedDepth(_program(case))
    stats = proc.run()
    assert proc.fetches > stats.blocks_fetched
    assert stats.flushes_mispredict > 100
    assert proc.unresolved == sum(1 for b in proc.window
                                  if b.resolved_next is None)
