"""A 4-wide out-of-order uniprocessor timing model (the Alpha 21264 role).

The functional pass (:func:`repro.baseline.srisc.run_functional`) resolves
the dynamic instruction stream — branch outcomes, memory addresses — and
this model replays it through a constraint-based OoO timing analysis:

* in-order fetch at ``fetch_width``/cycle, one-bubble taken-branch
  redirects, and a 21264-style tournament direction predictor whose
  mispredictions restart fetch after the branch resolves,
* register renaming expressed as ready-times per architectural register
  (write-after-write/read never stall, exactly what renaming buys),
* a finite reorder buffer and per-class functional-unit bandwidth
  (int ALUs, FP units, and — crucially for the paper's `vadd`/`conv`
  bandwidth argument — two L1D ports against TRIPS's four DTs),
* loads check a 64KB 2-way L1D for latency and forward from earlier
  stores at the stores' issue time (an idealized disambiguator: the 21264's
  memory speculation was very good),
* in-order commit at ``commit_width``/cycle.

This is the "timing-first, functional-ahead" style of model; it captures
dataflow ILP, bandwidth and misprediction effects without modelling wrong-
path execution (second-order for these kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..serialize import dataclass_from_dict, dataclass_to_dict
from ..uarch.caches import CacheBank
from .srisc import DynInst, FunctionalResult, SriscProgram, run_functional


@dataclass
class BaselineConfig:
    fetch_width: int = 4
    frontend_depth: int = 4        # fetch -> rename/queue latency
    rob_entries: int = 80
    int_alus: int = 4
    fp_units: int = 2
    mem_ports: int = 2             # the 21264's two L1D ports
    commit_width: int = 4
    mispredict_penalty: int = 7
    taken_bubble: int = 1
    l1d_kb: int = 64
    l1d_assoc: int = 2
    line_bytes: int = 64
    l1_hit_cycles: int = 3
    l2_hit_cycles: int = 12        # matched to the TRIPS config
    int_mul_latency: int = 7
    int_div_latency: int = 20
    fp_latency: int = 4
    fp_div_latency: int = 12
    # branch predictor budgets (local/global/choice)
    local_entries: int = 1024
    global_entries: int = 4096
    #: the 21264 splits its integer units into two clusters; a result
    #: consumed in the other cluster pays one extra bypass cycle
    cluster_penalty: int = 1


@dataclass
class BaselineStats:
    cycles: int = 0
    instructions: int = 0
    branches: int = 0
    mispredicts: int = 0
    l1d_hits: int = 0
    l1d_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # -- JSON round trip (simlab cache records, harness --json) ---------
    def to_dict(self) -> Dict[str, int]:
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "BaselineStats":
        return dataclass_from_dict(cls, data)


class _Tournament:
    """21264-style local/global/choice direction predictor."""

    def __init__(self, config: BaselineConfig):
        # counters start weakly-taken: backward loop branches predict
        # correctly from the first encounter, as a warm predictor would
        self.local_hist = [0] * config.local_entries
        self.local_pht = [2] * config.local_entries
        self.global_pht = [2] * config.global_entries
        self.choice = [1] * config.global_entries
        self.ghist = 0
        self.n_local = config.local_entries
        self.n_global = config.global_entries

    def predict(self, pc: int) -> bool:
        lh = self.local_hist[pc % self.n_local]
        local = self.local_pht[(pc ^ lh) % self.n_local] >= 2
        glob = self.global_pht[(pc ^ self.ghist) % self.n_global] >= 2
        use_global = self.choice[(pc ^ self.ghist) % self.n_global] >= 2
        return glob if use_global else local

    def update(self, pc: int, taken: bool) -> None:
        lh = self.local_hist[pc % self.n_local]
        li = (pc ^ lh) % self.n_local
        gi = (pc ^ self.ghist) % self.n_global
        local_ok = (self.local_pht[li] >= 2) == taken
        global_ok = (self.global_pht[gi] >= 2) == taken
        if local_ok != global_ok:
            self.choice[gi] = min(3, self.choice[gi] + 1) if global_ok \
                else max(0, self.choice[gi] - 1)
        self.local_pht[li] = min(3, self.local_pht[li] + 1) if taken \
            else max(0, self.local_pht[li] - 1)
        self.global_pht[gi] = min(3, self.global_pht[gi] + 1) if taken \
            else max(0, self.global_pht[gi] - 1)
        self.local_hist[pc % self.n_local] = ((lh << 1) | taken) & 0x3FF
        self.ghist = ((self.ghist << 1) | taken) & 0xFFF


class _SlotTable:
    """Earliest-cycle-with-free-slot finder for a W-wide resource.

    The issue-side tables (int/fp/mem) see arbitrary ``earliest``
    requests — operand readiness moves backwards between neighbouring
    instructions — so they keep the sparse per-cycle dict.  Fetch and
    commit request monotonically non-decreasing cycles and use the
    counter-pair fast path (:meth:`reserve_mono`): once the cursor moves
    past a cycle, that cycle is either full or can never be requested
    again, so a (cycle, used) pair replaces the dict probe loop.
    """

    def __init__(self, width: int):
        self.width = width
        self.used: Dict[int, int] = {}
        self._cur = -1
        self._n = 0

    def reserve(self, earliest: int) -> int:
        t = earliest
        used = self.used
        while used.get(t, 0) >= self.width:
            t += 1
        used[t] = used.get(t, 0) + 1
        return t

    def reserve_mono(self, earliest: int) -> int:
        if earliest > self._cur:
            self._cur = earliest
            self._n = 1
        elif self._n >= self.width:
            self._cur += 1
            self._n = 1
        else:
            self._n += 1
        return self._cur


class OooCore:
    """Replay a resolved SRISC stream through the timing constraints."""

    def __init__(self, config: BaselineConfig = None):
        self.config = config or BaselineConfig()

    def run(self, program: SriscProgram,
            functional: FunctionalResult = None) -> BaselineStats:
        cfg = self.config
        if functional is None:
            functional = run_functional(program)
        stream = functional.stream
        stats = BaselineStats(instructions=len(stream))
        bpred = _Tournament(cfg)
        cache = CacheBank(cfg.l1d_kb * 1024, cfg.l1d_assoc, cfg.line_bytes)

        int_slots = _SlotTable(cfg.int_alus)
        fp_slots = _SlotTable(cfg.fp_units)
        mem_slots = _SlotTable(cfg.mem_ports)
        commit_slots = _SlotTable(cfg.commit_width)
        fetch_slots = _SlotTable(cfg.fetch_width)

        # per-static-instruction wakeup descriptors, indexed by the
        # static instruction index the stream already carries: operand
        # registers, the functional-unit class, and the fixed latency,
        # so the replay loop does no string compares or property calls
        K_LD, K_ST, K_FP, K_INT = 0, 1, 2, 3
        descs = []
        for inst in program.insts:
            op = inst.op
            ra = inst.ra if inst.ra >= 0 else -1
            rb = inst.rb if inst.rb is not None and inst.rb >= 0 else -1
            if op == "ld":
                kind, latency = K_LD, 0
            elif op == "st":
                kind, latency = K_ST, 1
            elif inst.is_fp:
                kind = K_FP
                latency = cfg.fp_div_latency if op == "fdiv" \
                    else cfg.fp_latency
            else:
                kind = K_INT
                if op == "mul":
                    latency = cfg.int_mul_latency
                elif op in ("div", "rem"):
                    latency = cfg.int_div_latency
                else:
                    latency = 1
            ctl = 1 if op in ("bz", "bnz") else (2 if op == "jmp" else 0)
            descs.append((kind, latency, ra, rb, inst.rd, inst.size, ctl))

        reg_ready = [0] * 64
        reg_cluster = [0] * 64           # which cluster produced the value
        store_visible: Dict[int, int] = {}   # 8-byte granule -> data time
        commit_t: List[int] = []
        fetch_floor = 0

        cluster_penalty = cfg.cluster_penalty
        frontend_depth = cfg.frontend_depth
        rob_entries = cfg.rob_entries
        l1_hit = cfg.l1_hit_cycles
        l1_miss = cfg.l1_hit_cycles + cfg.l2_hit_cycles
        reserve_fetch = fetch_slots.reserve_mono
        reserve_commit = commit_slots.reserve_mono
        reserve_int = int_slots.reserve
        reserve_fp = fp_slots.reserve
        reserve_mem = mem_slots.reserve
        sv_get = store_visible.get
        prev_commit = 0

        for i, rec in enumerate(stream):
            kind, latency, ra, rb, rd, size, ctl = descs[rec.index]
            fetch = reserve_fetch(fetch_floor)
            ready = fetch + frontend_depth
            if i >= rob_entries:
                rob_gate = commit_t[i - rob_entries]
                if rob_gate > ready:
                    ready = rob_gate

            # 21264-style clustering: integer instructions steer to one of
            # two clusters; consuming a value produced by the other
            # cluster costs an extra bypass cycle
            cluster = i & 1
            if ra >= 0:
                t = reg_ready[ra]
                if t > 0 and reg_cluster[ra] != cluster:
                    t += cluster_penalty
                if t > ready:
                    ready = t
            if rb >= 0:
                t = reg_ready[rb]
                if t > 0 and reg_cluster[rb] != cluster:
                    t += cluster_penalty
                if t > ready:
                    ready = t

            if kind == K_INT:
                wb = reserve_int(ready) + latency
            elif kind == K_LD:
                address = rec.address
                for g in range(address >> 3, (address + size - 1 >> 3) + 1):
                    t = sv_get(g, 0)
                    if t > ready:
                        ready = t
                issue = reserve_mem(ready)
                if cache.lookup(address):
                    stats.l1d_hits += 1
                    wb = issue + l1_hit
                else:
                    stats.l1d_misses += 1
                    wb = issue + l1_miss
                    cache.fill(address)
            elif kind == K_ST:
                address = rec.address
                wb = reserve_mem(ready) + 1
                cache.fill(address)
                for g in range(address >> 3, (address + size - 1 >> 3) + 1):
                    store_visible[g] = wb
            else:
                wb = reserve_fp(ready) + latency

            if rd >= 0:
                reg_ready[rd] = wb
                reg_cluster[rd] = cluster

            # control flow: redirects and mispredicts gate later fetch
            if ctl:
                if ctl == 1:
                    stats.branches += 1
                    predicted = bpred.predict(rec.index)
                    bpred.update(rec.index, rec.taken)
                    if predicted != rec.taken:
                        stats.mispredicts += 1
                        t = wb + cfg.mispredict_penalty
                        if t > fetch_floor:
                            fetch_floor = t
                    elif rec.taken:
                        t = fetch + cfg.taken_bubble
                        if t > fetch_floor:
                            fetch_floor = t
                else:
                    t = fetch + cfg.taken_bubble
                    if t > fetch_floor:
                        fetch_floor = t

            prev_commit = reserve_commit(
                wb if wb > prev_commit else prev_commit)
            commit_t.append(prev_commit)

        stats.cycles = (commit_t[-1] + 1) if commit_t else 0
        return stats


def run_baseline(program: SriscProgram, config: BaselineConfig = None):
    """Convenience: functional + timing in one call.

    Returns (FunctionalResult, BaselineStats).
    """
    functional = run_functional(program)
    stats = OooCore(config).run(program, functional)
    return functional, stats
