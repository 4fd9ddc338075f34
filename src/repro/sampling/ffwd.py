"""Compiled functional fast-forward: the sampling engine's block skipper.

Sampled simulation (SMARTS/SimPoint style) spends almost all of its time
*between* measurement windows, executing blocks only for their
architectural effect.  The stock :class:`~repro.uarch.functional.FunctionalSim`
interprets each block's dataflow graph with a token pump — faithful, but
only ~5x faster than the cycle engine, nowhere near enough to amortize a
sampled run.  This module compiles each :class:`~repro.isa.block.TripsBlock`
to a straight-line Python function once (the block's static dataflow DAG
is topologically sorted at compile time, so the token pump disappears)
and executes that function per block visit.

Semantics are identical to ``FunctionalSim`` by construction:

* null tokens poison downstream dataflow; a store or register write
  receiving null signals completion without touching state,
* predicated instructions fire (bit 0 of the predicate token matches) or
  die; dead producers leave their consumers unfired,
* stores buffer until block commit; loads execute only after every
  earlier-LSID store has signalled and forward bytes from earlier-LSID
  buffered stores,
* ``FunctionalStats`` counters (``fired`` — which equals the detailed
  engine's ``insts_committed`` — ``reads``, ``loads``, ``stores``,
  ``nullified_outputs``, ``branches_by_exit``) count exactly as the
  interpreter counts them.

Blocks the compiler cannot prove acyclic (a static dataflow cycle is
legal dead code) or that use a shape it does not model fall back to the
inherited interpreter per visit — ``fallback_blocks`` counts them.

The fast-forwarder also maintains *warm microarchitectural state* for
checkpoints: a :class:`~repro.uarch.predictor.NextBlockPredictor` trained
with each block's architectural outcome, and I-cache / D-cache / NUCA
bank LRU state touched with each fetch and memory access, mirroring the
detailed engine's ``lookup``/``fill`` discipline.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from ..isa import EXIT_ADDRESS, OperandKind, Program, TripsBlock
from ..isa.alu import _BINOP, _IMMOP, _UNOP
from ..isa.opcodes import ACCESS_SIZE, Opcode, OpClass, SIGNED_LOADS
from ..mem.mt import BANK_ASSOC, BANK_KB, LINE_BYTES
from ..tir import semantics
from ..uarch.caches import CacheBank
from ..uarch.config import PROTOTYPE, TripsConfig
from ..uarch.functional import NULL_TOKEN, FunctionalSim, SimError
from ..uarch.predictor import BT_BRANCH, BT_CALL, BT_RETURN, NextBlockPredictor

MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN = 0x8000000000000000

#: FP opcodes whose IEEE-double bit casts are inlined into the compiled
#: source instead of routed through ``semantics.binop`` — that call
#: (measured when it was an if-chain) plus per-call ``bits_to_float``/
#: ``float_to_bits`` round-trips was ~half the fast-forward time on
#: FP-dense workloads (basefp01).
#: Python floats *are* C doubles, so ``+``/``-``/``*`` and the ordered
#: comparisons (NaN-unordered, like the lambdas they replace) are
#: bit-identical to the ``semantics`` path.  FDIV keeps the call: its
#: zero-divisor special cases don't belong in a template.
_FINLINE = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*",
            Opcode.FEQ: "==", Opcode.FNE: "!=", Opcode.FLT: "<",
            Opcode.FLE: "<=", Opcode.FGT: ">", Opcode.FGE: ">="}
_FARITH = {Opcode.FADD, Opcode.FSUB, Opcode.FMUL}
_QS = struct.Struct("<Q")
_DS = struct.Struct("<d")


class BlockCompileError(Exception):
    """This block cannot be compiled; execute it with the interpreter."""


# ----------------------------------------------------------------------
# runtime helper shared by every compiled block
def _ld(mem, sb, addr, size, lsid):
    """A load's raw bytes: memory overlaid with earlier-LSID buffered
    stores (same answer as ``FunctionalSim._load_with_forwarding``)."""
    if not sb:
        return mem.read(addr, size)
    result = bytearray(mem.read_bytes(addr, size))
    for s_lsid, s_addr, s_size, s_value in sorted(sb):
        if s_lsid >= lsid:
            break
        lo = max(addr, s_addr)
        hi = min(addr + size, s_addr + s_size)
        if lo >= hi:
            continue
        s_bytes = (s_value & ((1 << (8 * s_size)) - 1)).to_bytes(
            s_size, "little")
        for b in range(lo, hi):
            result[b - addr] = s_bytes[b - s_addr]
    return int.from_bytes(result, "little")


# ----------------------------------------------------------------------
# expression templates (operands are plain local names holding 64-bit
# patterns; every produced value is already masked to 64 bits)
def _expr(inst, A: str, B: str) -> str:
    op = inst.opcode
    if op is Opcode.ADD:
        return f"({A} + {B}) & {MASK64}"
    if op is Opcode.SUB:
        return f"({A} - {B}) & {MASK64}"
    if op is Opcode.MUL:
        return f"({A} * {B}) & {MASK64}"
    if op is Opcode.AND:
        return f"{A} & {B}"
    if op is Opcode.OR:
        return f"{A} | {B}"
    if op is Opcode.XOR:
        return f"{A} ^ {B}"
    if op is Opcode.SLL:
        return f"({A} << ({B} & 63)) & {MASK64}"
    if op is Opcode.SRL:
        return f"{A} >> ({B} & 63)"
    if op is Opcode.SRA:
        return f"(({A} - (({A} >> 63) << 64)) >> ({B} & 63)) & {MASK64}"
    if op is Opcode.TEQ:
        return f"1 if {A} == {B} else 0"
    if op is Opcode.TNE:
        return f"1 if {A} != {B} else 0"
    if op is Opcode.TLT:
        return f"1 if ({A} ^ {_SIGN}) < ({B} ^ {_SIGN}) else 0"
    if op is Opcode.TLE:
        return f"1 if ({A} ^ {_SIGN}) <= ({B} ^ {_SIGN}) else 0"
    if op is Opcode.TGT:
        return f"1 if ({A} ^ {_SIGN}) > ({B} ^ {_SIGN}) else 0"
    if op is Opcode.TGE:
        return f"1 if ({A} ^ {_SIGN}) >= ({B} ^ {_SIGN}) else 0"
    if op is Opcode.TLTU:
        return f"1 if {A} < {B} else 0"
    if op is Opcode.TGEU:
        return f"1 if {A} >= {B} else 0"
    if op is Opcode.NOT:
        return f"{A} ^ {MASK64}"
    if op is Opcode.MOV:
        return A
    if op is Opcode.MOVI:
        return str(inst.const & MASK64)
    if op is Opcode.MOVIH:
        return f"(({A} << 16) | {inst.const & 0xFFFF}) & {MASK64}"
    if op in _IMMOP:
        ib = inst.imm & MASK64
        name = _IMMOP[op]
        if name == "add":
            return f"({A} + {ib}) & {MASK64}"
        if name == "sub":
            return f"({A} - {ib}) & {MASK64}"
        if name == "mul":
            return f"({A} * {ib}) & {MASK64}"
        if name == "and":
            return f"{A} & {ib}"
        if name == "or":
            return f"{A} | {ib}"
        if name == "xor":
            return f"{A} ^ {ib}"
        if name == "shl":
            return f"({A} << {ib & 63}) & {MASK64}"
        if name == "shr":
            return f"{A} >> {ib & 63}"
        if name == "sra":
            return f"(({A} - (({A} >> 63) << 64)) >> {ib & 63}) & {MASK64}"
        if name == "eq":
            return f"1 if {A} == {ib} else 0"
        if name == "ne":
            return f"1 if {A} != {ib} else 0"
        if name == "lt":
            return f"1 if ({A} ^ {_SIGN}) < {ib ^ _SIGN} else 0"
        if name == "le":
            return f"1 if ({A} ^ {_SIGN}) <= {ib ^ _SIGN} else 0"
        if name == "gt":
            return f"1 if ({A} ^ {_SIGN}) > {ib ^ _SIGN} else 0"
        if name == "ge":
            return f"1 if ({A} ^ {_SIGN}) >= {ib ^ _SIGN} else 0"
        raise BlockCompileError(f"immediate op {name!r}")
    if op in _FINLINE:
        fa, fb = f"_du(_qp({A}))[0]", f"_du(_qp({B}))[0]"
        if op in _FARITH:
            return f"_qu(_dp({fa} {_FINLINE[op]} {fb}))[0]"
        return f"1 if {fa} {_FINLINE[op]} {fb} else 0"
    if op in _BINOP:        # divide + FDIV
        return f"_binop({_BINOP[op]!r}, {A}, {B})"
    if op in _UNOP:
        return f"_unop({_UNOP[op]!r}, {A})"
    raise BlockCompileError(f"no expression template for {op.mnemonic}")


# ----------------------------------------------------------------------
class _Compiler:
    """Emits one block's Python source (see module docstring)."""

    def __init__(self, block: TripsBlock, addr: int):
        self.block = block
        self.addr = addr
        self.lines: List[str] = []
        # (slot, kind) -> producer var names; write slot -> producer names
        self.ops: Dict[Tuple[int, OperandKind], List[str]] = {}
        self.wops: Dict[int, List[str]] = {}
        self.certain: Dict[str, bool] = {}      # var fires unconditionally
        self.nonnull: Dict[str, bool] = {}      # var is never a null token
        self.fired_const = 0
        self.loads_const = 0
        self.stores_const = 0
        self.n_branches = sum(
            1 for i in block.body.values() if i.opcode.is_branch)

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    # -- producer wiring ------------------------------------------------
    def _route(self, target, var: str) -> None:
        if target.kind is OperandKind.WRITE:
            if target.slot not in self.block.writes:
                raise BlockCompileError(f"write target {target.slot} unmapped")
            self.wops.setdefault(target.slot, []).append(var)
        else:
            if target.slot not in self.block.body:
                raise BlockCompileError(f"target slot {target.slot} empty")
            self.ops.setdefault((target.slot, target.kind), []).append(var)

    def _wire(self) -> None:
        for rslot, read in sorted(self.block.reads.items()):
            var = f"r{rslot}"
            self.certain[var] = True
            self.nonnull[var] = True
            for target in read.targets:
                self._route(target, var)
        for slot, inst in sorted(self.block.body.items()):
            op = inst.opcode
            if op.is_store:
                continue
            if op.is_branch and op is not Opcode.CALLO:
                continue
            var = f"t{slot}"
            targets = inst.targets[:1] if op is Opcode.CALLO \
                else inst.targets
            for target in targets:
                self._route(target, var)

    # -- topological order (store -> later-LSID load edges included) ----
    def _order(self) -> List[int]:
        body = self.block.body
        deps: Dict[int, Set[int]] = {s: set() for s in body}
        for (cslot, _kind), plist in self.ops.items():
            for p in plist:
                if p[0] == "t":
                    deps[cslot].add(int(p[1:]))
        stores = [(inst.lsid, slot) for slot, inst in body.items()
                  if inst.opcode.is_store]
        for slot, inst in body.items():
            if inst.opcode.is_load:
                deps[slot].update(s for lsid, s in stores
                                  if lsid < inst.lsid)
        order: List[int] = []
        remaining = dict(deps)
        while remaining:
            ready = sorted(s for s, d in remaining.items() if not d)
            if not ready:
                raise BlockCompileError("static dataflow cycle")
            for s in ready:
                del remaining[s]
            for d in remaining.values():
                d.difference_update(ready)
            order.extend(ready)
        return order

    # -- operand resolution ---------------------------------------------
    def _operand(self, slot: int, kind: OperandKind,
                 temp: str) -> Optional[Tuple[str, bool, bool]]:
        """(name, present_certain, nonnull) or None when no producer."""
        plist = self.ops.get((slot, kind))
        if not plist:
            return None
        if len(plist) == 1:
            p = plist[0]
            return p, self.certain[p], self.nonnull[p]
        # predicated phi: at most one producer fires dynamically
        expr = plist[-1]
        for p in reversed(plist[:-1]):
            expr = f"({p} if {p} is not None else {expr})"
        self.emit(f"{temp} = {expr}")
        return (temp, any(self.certain[p] for p in plist),
                all(self.nonnull[p] for p in plist))

    # -- per-instruction emission ---------------------------------------
    def _emit_inst(self, slot: int) -> None:
        inst = self.block.body[slot]
        op = inst.opcode
        need = op.num_operands
        produces = not op.is_store and (
            not op.is_branch or op is Opcode.CALLO)
        var = f"t{slot}"

        operands = []
        dead = False
        for kind, required in ((OperandKind.LEFT, need >= 1),
                               (OperandKind.RIGHT, need >= 2),
                               (OperandKind.PRED, inst.pred is not None)):
            if not required:
                operands.append(None)
                continue
            got = self._operand(slot, kind, f"{var}{kind.name[0].lower()}")
            if got is None:
                dead = True         # a required operand can never arrive
                break
            operands.append(got)
        if dead:
            if produces:
                self.certain[var] = False
                self.nonnull[var] = False
                self.emit(f"{var} = None")
            return
        left, right, pred = operands

        conds: List[str] = []
        if pred is not None:
            pname, pcert, pnn = pred
            if not pcert:
                conds.append(f"{pname} is not None")
            if not pnn:
                conds.append(f"{pname} is not N")
            conds.append(f"{pname} & 1 == {int(inst.pred)}")
        for o in (left, right):
            if o is not None and not o[1]:
                conds.append(f"{o[0]} is not None")
        fires_certain = not conds

        nulls = [o[0] for o in (left, right)
                 if o is not None and not o[2]]

        if produces:
            self.certain[var] = fires_certain
        if op.is_store:
            self._emit_store(inst, var, left, right, conds, nulls)
        elif op.is_load:
            self._emit_load(inst, var, left, conds, nulls)
        elif op.is_branch:
            self._emit_branch(inst, var, left, conds, nulls, fires_certain)
        elif op.opclass is OpClass.NULLIFY:
            self.nonnull[var] = False
            if fires_certain:
                self.fired_const += 1
                self.emit(f"{var} = N")
            else:
                self.emit(f"{var} = None")
                self.emit(f"if {' and '.join(conds)}:")
                self.emit("f += 1", 2)
                self.emit(f"{var} = N", 2)
        else:
            self._emit_alu(inst, var, left, right, conds, nulls,
                           fires_certain)

    def _emit_alu(self, inst, var, left, right, conds, nulls,
                  fires_certain) -> None:
        value = _expr(inst, left and left[0], right and right[0])
        self.nonnull[var] = not nulls
        if fires_certain and not nulls:
            self.fired_const += 1
            self.emit(f"{var} = {value}")
            return
        depth = 1
        if not fires_certain:
            self.emit(f"{var} = None")
            self.emit(f"if {' and '.join(conds)}:")
            self.emit("f += 1", 2)
            depth = 2
        else:
            self.fired_const += 1
        if nulls:
            null_test = " or ".join(f"{n} is N" for n in nulls)
            self.emit(f"{var} = N if {null_test} else ({value})", depth)
        else:
            self.emit(f"{var} = {value}", depth)

    def _emit_load(self, inst, var, left, conds, nulls) -> None:
        size = ACCESS_SIZE[inst.opcode]
        ib = inst.imm & MASK64
        raw = f"_ld(mem, sb, _a, {size}, {inst.lsid})"
        if inst.opcode in SIGNED_LOADS and size < 8:
            hs, fs = 1 << (8 * size - 1), 1 << (8 * size)
            value = (f"(_v - {fs}) & {MASK64} if _v >= {hs} else _v")
        else:
            value = "_v"
        self.nonnull[var] = not nulls
        depth = 1
        if conds:
            self.emit(f"{var} = None")
            self.emit(f"if {' and '.join(conds)}:")
            depth = 2
            self.emit("lc += 1", depth)
        else:
            self.loads_const += 1
        if nulls:
            self.emit(f"if {nulls[0]} is N:", depth)
            self.emit(f"{var} = N", depth + 1)
            self.emit("else:", depth)
            depth += 1
        self.emit(f"_a = ({left[0]} + {ib}) & {MASK64}", depth)
        self.emit("ma.append(_a)", depth)
        self.emit(f"_v = {raw}", depth)
        self.emit(f"{var} = {value}", depth)

    def _emit_store(self, inst, var, left, right, conds, nulls) -> None:
        size = ACCESS_SIZE[inst.opcode]
        ib = inst.imm & MASK64
        depth = 1
        if conds:
            self.emit(f"if {' and '.join(conds)}:")
            depth = 2
            self.emit("sc += 1", depth)
        else:
            self.stores_const += 1
        self.emit(f"sd |= {1 << inst.lsid}", depth)
        if nulls:
            null_test = " or ".join(f"{n} is N" for n in nulls)
            self.emit(f"if {null_test}:", depth)
            self.emit("nul += 1", depth + 1)
            self.emit("else:", depth)
            depth += 1
        self.emit(f"_a = ({left[0]} + {ib}) & {MASK64}", depth)
        self.emit(f"sb.append(({inst.lsid}, _a, {size}, {right[0]}))",
                  depth)

    def _emit_branch(self, inst, var, left, conds, nulls,
                     fires_certain) -> None:
        op = inst.opcode
        delivers_link = op is Opcode.CALLO and inst.targets
        depth = 1
        if conds:
            if delivers_link:
                self.emit(f"{var} = None")
            self.emit(f"if {' and '.join(conds)}:")
            depth = 2
            self.emit("f += 1", depth)
        else:
            self.fired_const += 1
        if self.n_branches > 1:
            self.emit("if nx is not None:", depth)
            self.emit(f"raise SimError('block {self.block.name}: two "
                      "branches fired')", depth + 1)
        self.emit(f"ex = {inst.exit_no}", depth)
        if op is Opcode.HALT:
            self.emit(f"nx = {EXIT_ADDRESS}", depth)
            self.emit(f"bt = {BT_BRANCH}", depth)
        elif op in (Opcode.BRO, Opcode.CALLO):
            target = (self.addr + inst.offset) & MASK64
            self.emit(f"nx = {target}", depth)
            self.emit(f"bt = {BT_CALL if op is Opcode.CALLO else BT_BRANCH}",
                      depth)
            if delivers_link:
                link = (self.addr + self.block.size_bytes) & MASK64
                self.nonnull[var] = True
                self.emit(f"{var} = {link}", depth)
        else:                       # BR / RET: target is the left operand
            if nulls:
                self.emit(f"if {left[0]} is N:", depth)
                self.emit("raise SimError('branch received a null target "
                          "address')", depth + 1)
            self.emit(f"nx = {left[0]}", depth)
            self.emit(f"bt = {BT_RETURN if op is Opcode.RET else BT_BRANCH}",
                      depth)

    # -- whole-function emission ----------------------------------------
    def compile(self):
        block, addr = self.block, self.addr
        regs_written = [w.reg for w in block.writes.values()]
        if len(set(regs_written)) != len(regs_written):
            raise BlockCompileError("two write slots share a register")
        self._wire()
        order = self._order()

        name = f"_blk_{addr:x}"
        self.lines.append(f"def {name}(sim):")
        self.emit("st = sim.stats")
        self.emit("regs = sim.regs")
        self.emit("mem = sim.memory")
        self.emit("sb = []; ma = []")
        self.emit("f = 0; lc = 0; sc = 0; nul = 0; sd = 0")
        self.emit("nx = None; ex = 0; bt = 0")
        for rslot, read in sorted(block.reads.items()):
            self.emit(f"r{rslot} = regs[{read.reg}]")
        for slot in order:
            self._emit_inst(slot)

        # completion + commit
        self.emit("if nx is None:")
        self.emit(f"raise SimError('block {block.name}: no branch fired "
                  "(deadlock?)')", 2)
        if block.store_mask:
            self.emit(f"if sd != {block.store_mask}:")
            self.emit(f"raise SimError('block {block.name}: store LSIDs "
                      "never signalled')", 2)
        for wslot, write in sorted(block.writes.items()):
            plist = self.wops.get(wslot, [])
            if not plist:
                self.emit(f"raise SimError('block {block.name}: write slot "
                          f"{wslot} never received a value')")
                continue
            if len(plist) == 1 and self.certain[plist[0]] \
                    and self.nonnull[plist[0]]:
                self.emit(f"regs[{write.reg}] = {plist[0]}")
                continue
            expr = plist[-1]
            for p in reversed(plist[:-1]):
                expr = f"({p} if {p} is not None else {expr})"
            self.emit(f"_w = {expr}")
            self.emit("if _w is None:")
            self.emit(f"raise SimError('block {block.name}: write slot "
                      f"{wslot} never received a value')", 2)
            self.emit("elif _w is N:")
            self.emit("nul += 1", 2)
            self.emit("else:")
            self.emit(f"regs[{write.reg}] = _w", 2)
        if any(i.opcode.is_store for i in block.body.values()):
            self.emit("if sb:")
            self.emit("sb.sort()", 2)
            self.emit("for _s in sb:", 2)
            self.emit("mem.write(_s[1], _s[3], _s[2])", 3)
            self.emit("msa = [_s[1] for _s in sb]")
        else:
            self.emit("msa = ()")
        fired_all = self.fired_const + self.loads_const + self.stores_const
        self.emit(f"st.fired += {fired_all} + f + lc + sc")
        if self.loads_const or any(i.opcode.is_load
                                   for i in block.body.values()):
            self.emit(f"st.loads += {self.loads_const} + lc")
        if self.stores_const or any(i.opcode.is_store
                                    for i in block.body.values()):
            self.emit(f"st.stores += {self.stores_const} + sc")
        if block.reads:
            self.emit(f"st.reads += {len(block.reads)}")
        self.emit("if nul:")
        self.emit("st.nullified_outputs += nul", 2)
        self.emit("_b = st.branches_by_exit")
        self.emit("_b[ex] = _b.get(ex, 0) + 1")
        self.emit("return nx, ex, bt, ma, msa")

        source = "\n".join(self.lines) + "\n"
        namespace = {"N": NULL_TOKEN, "SimError": SimError, "_ld": _ld,
                     "_binop": semantics.binop, "_unop": semantics.unop,
                     "_qp": _QS.pack, "_qu": _QS.unpack,
                     "_dp": _DS.pack, "_du": _DS.unpack}
        exec(compile(source, f"<ffwd:{block.name}>", "exec"), namespace)
        fn = namespace[name]
        fn.__ffwd_source__ = source
        return fn


def compile_block(block: TripsBlock, addr: int):
    """Compile one block to an executor ``fn(sim) -> (next_pc, exit_no,
    btype, load_addrs, store_addrs)``; raises :class:`BlockCompileError`
    when the block needs the interpreter."""
    return _Compiler(block, addr).compile()


# ----------------------------------------------------------------------
class FastForwarder(FunctionalSim):
    """Block-compiled functional simulator with warm-state tracking.

    Drop-in for :class:`FunctionalSim` (same ``regs``/``memory``/``stats``
    /``pc``/``halted``), plus:

    * ``predictor`` — a :class:`NextBlockPredictor` given one
      predict/train round per block transition with the architectural
      outcome (the in-order equivalent of the detailed engine's
      fetch-time predict / commit-time train),
    * ``icache`` / ``dcache`` / ``mt_banks`` — LRU tag state touched per
      fetch and per memory access exactly as the detailed tiles touch
      theirs (``mt_banks`` is ``None`` under ``perfect_l2``),
    * ``run_blocks(n)`` — stop at a block boundary for checkpointing.

    ``warm=False`` skips all of that and just executes fast (~3.5x the
    warm throughput); ``unwarmed_blocks`` counts how many blocks ran
    that way, so a checkpoint can report how stale its warm state is.

    ``bbv_interval=N`` additionally accumulates one basic-block vector
    (static block address -> committed count) per N retired blocks — the
    raw material for :mod:`~repro.sampling.phases`.  The counts ride the
    per-block dispatch that ``step_block`` already does, so collection
    costs one dict increment per block on top of the compiled closures.
    """

    def __init__(self, program: Program, config: TripsConfig = PROTOTYPE,
                 warm: bool = True, max_blocks: int = 2_000_000,
                 bbv_interval: Optional[int] = None):
        super().__init__(program, max_blocks)
        self.config = config
        self.warm = warm
        self.unwarmed_blocks = 0
        self.bbv_interval = bbv_interval
        self.bbvs: List[Dict[int, int]] = []
        self._bbv_cur: Optional[Dict[int, int]] = \
            {} if bbv_interval else None
        self.predictor = NextBlockPredictor(config.predictor)
        self.icache = [CacheBank(config.l1i_bank_kb * 1024,
                                 config.l1i_assoc, 128) for _ in range(5)]
        self.dcache = [CacheBank(config.l1d_bank_kb * 1024,
                                 config.l1d_assoc, config.line_bytes)
                       for _ in range(4)]
        self.mt_banks = None if config.perfect_l2 else \
            [CacheBank(BANK_KB * 1024, BANK_ASSOC, LINE_BYTES)
             for _ in range(16)]
        self.fallback_blocks = 0
        self._fns: Dict[int, object] = {}
        self._meta: Dict[int, Tuple[int, int]] = {}  # addr -> (chunks, fall)
        # MRU memos: skip cache touches that provably change no tag state
        # (a re-access of a set's MRU line only bumps hit counters, which
        # the fast-forwarder's private banks don't report anywhere)
        self._ic_last: int = -1          # last block addr warmed in the I$
        self._dc_last = [-1, -1, -1, -1]  # per-DT-bank MRU line tag

    # ------------------------------------------------------------------
    def _fn_for(self, addr: int):
        try:
            return self._fns[addr]
        except KeyError:
            block = self.program.block_at(addr)
            try:
                fn = compile_block(block, addr)
            except BlockCompileError:
                fn = None
            self._fns[addr] = fn
            self._meta[addr] = (1 + block.num_body_chunks,
                               addr + block.size_bytes)
            return fn

    def step_block(self) -> None:
        addr = self.pc
        fn = self._fn_for(addr)
        st = self.stats
        if fn is None:
            # interpreter fallback: architecturally exact, but this
            # block's visit contributes no warm state (no branch-type /
            # address introspection on the token-pump path)
            block = self.program.block_at(addr)
            nx, reg_writes = self._execute_block(block)
            for reg, value in reg_writes.items():
                self.regs[reg] = value
            self.fallback_blocks += 1
        else:
            nx, ex, bt, ma, msa = fn(self)
            if self.warm:
                self._warm_block(addr, nx, ex, bt, ma, msa)
            else:
                self.unwarmed_blocks += 1
        st.blocks += 1
        st.block_visits[addr] = st.block_visits.get(addr, 0) + 1
        cur = self._bbv_cur
        if cur is not None:
            cur[addr] = cur.get(addr, 0) + 1
            if st.blocks % self.bbv_interval == 0:
                self.bbvs.append(cur)
                self._bbv_cur = {}
        if nx == EXIT_ADDRESS:
            self.halted = True
        else:
            self.pc = nx

    def bbv_vectors(self) -> List[Dict[int, int]]:
        """The per-interval basic-block vectors collected so far,
        including the trailing partial interval (if any)."""
        out = list(self.bbvs)
        if self._bbv_cur:
            out.append(dict(self._bbv_cur))
        return out

    def restore_arch(self, ckpt) -> None:
        """Jump *forward* to an architectural snapshot taken by an
        earlier cold pass over the same program (deterministic functional
        execution makes its state at any block boundary exact).

        Only ``pc``/``regs``/``memory`` and the exact-progress counters
        are overwritten; warm predictor/cache state is left untouched —
        exactly what executing the skipped stretch with ``warm=False``
        would have done — so a bounded-warming (``warm_horizon``)
        measurement pass can skip its cold stretches outright instead of
        re-executing them.  The skipped blocks are charged to
        ``unwarmed_blocks`` to keep staleness provenance honest."""
        st = self.stats
        if ckpt.blocks < st.blocks:
            raise ValueError("restore_arch only jumps forward")
        self.unwarmed_blocks += ckpt.blocks - st.blocks
        self.pc = ckpt.pc
        self.halted = ckpt.halted
        self.regs[:] = ckpt.regs
        for addr, image in ckpt.pages.items():
            self.memory.write_bytes(addr, image)
        st.blocks = ckpt.blocks
        st.fired = ckpt.insts
        st.reads = ckpt.reads

    def run_blocks(self, n: int) -> int:
        """Execute until ``stats.blocks`` reaches ``n`` (or HALT);
        returns the block count actually reached."""
        st = self.stats
        while not self.halted and st.blocks < n:
            if st.blocks >= self.max_blocks:
                raise SimError(f"block budget {self.max_blocks} exhausted")
            self.step_block()
        return st.blocks

    # ------------------------------------------------------------------
    def _warm_block(self, addr, nx, ex, bt, ma, msa) -> None:
        nchunks, fallthrough = self._meta[addr]
        self.predictor.warm_update(addr, fallthrough, nx, ex, bt)
        if addr != self._ic_last:       # re-fetch of the MRU block: no-op
            icache = self.icache
            for k in range(nchunks):
                bank = icache[k]
                if not bank.lookup(addr):
                    bank.fill(addr)
            self._ic_last = addr
        dcache = self.dcache
        dc_last = self._dc_last
        mt = self.mt_banks
        for a in ma:                    # loads: lookup, fill on miss
            line = a >> 6
            b = line & 3
            if line == dc_last[b]:      # already the set's MRU line
                continue
            bank = dcache[b]
            if not bank.lookup(a):
                bank.fill(a)
                if mt is not None:
                    mb = mt[line % 16]
                    if not mb.lookup(a):
                        mb.fill(a)
            dc_last[b] = line
        for a in msa:                   # committed stores: unconditional fill
            line = a >> 6
            b = line & 3
            if line != dc_last[b]:
                dcache[b].fill(a)
                dc_last[b] = -1         # fill doesn't promote present lines
