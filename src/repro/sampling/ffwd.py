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

The generated code does at compile time everything that does not depend
on register or memory contents:

* certain, never-null producers fold: MOVI/MOVIH chains, and integer ops
  whose operands are all constants, are evaluated once with the opcode's
  own ``alu`` evaluator (FP ops, and any evaluation that raises, stay at
  run time).  A certain MOV is an alias, so fan-out trees emit no
  lines.  Folded instructions still count in ``fired``;
* a load with no earlier-LSID store in its block reads its page in line
  (``struct.unpack_from`` on the backing store's page) and falls back to
  ``BackingStore.read`` when the page is absent or the access crosses a
  page, so pages are allocated exactly as the interpreter allocates
  them;
* counters, buffers and completion checks appear only where they can
  change a result.  Exactly one branch fires in a block that commits, so
  branches add a constant 1 to ``fired``; the "two branches fired" check
  is dropped between branches guarded by opposite values of one certain,
  never-null predicate, and the "no branch fired" check where an
  unconditional branch or such a pair guarantees one.

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

import math
import struct
from typing import Dict, List, Optional, Set, Tuple

from ..isa import EXIT_ADDRESS, OperandKind, Program, TripsBlock
from ..isa.alu import _BINOP, _IMMOP, _UNOP
from ..isa.opcodes import Opcode, OpClass
from ..mem.backing import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
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

#: names the generated code calls: the ``semantics`` operator functions
#: for the ops without a template (``_b_div``, ``_u_ftoi``, ...), and the
#: in-line page readers ``_u<size>`` (zero-extending) and ``_s<size>``
#: (sign-extending, masked to 64 bits by the generated code)
_HELPERS = {**{f"_b_{name}": fn for name, fn in semantics.BINOPS.items()},
            **{f"_u_{name}": fn for name, fn in semantics.UNOPS.items()}}
for _size, _fmt in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
    _HELPERS[f"_u{_size}"] = struct.Struct("<" + _fmt).unpack_from
    _HELPERS[f"_s{_size}"] = struct.Struct("<" + _fmt.lower()).unpack_from
del _size, _fmt


class BlockCompileError(Exception):
    """This block cannot be compiled; execute it with the interpreter."""


# ----------------------------------------------------------------------
# runtime helpers shared by every compiled block
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


def _rd(mem, addr, size, signed):
    """An in-line page read's fallback, for an absent page (which
    ``BackingStore.read`` allocates) or an access crossing a page."""
    value = mem.read(addr, size)
    if signed and value >> (8 * size - 1):
        value = (value - (1 << (8 * size))) & MASK64
    return value


# ----------------------------------------------------------------------
# expression templates (operands are plain local names or literals
# holding 64-bit patterns; every produced value is already masked)
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
        fa, fb = _double(A), _double(B)
        if op in _FARITH:
            return f"_qu(_dp({fa} {_FINLINE[op]} {fb}))[0]"
        return f"1 if {fa} {_FINLINE[op]} {fb} else 0"
    if op in _BINOP:        # divide + FDIV
        return f"_b_{_BINOP[op]}({A}, {B})"
    if op in _UNOP:
        return f"_u_{_UNOP[op]}({A})"
    raise BlockCompileError(f"no expression template for {op.mnemonic}")


def _double(name: str) -> str:
    """The IEEE double a 64-bit operand holds: a float literal for a
    finite constant (``repr`` round-trips exactly, ``-0.0`` included),
    else the bit cast at run time (which keeps a NaN's payload)."""
    if name.isdigit():
        value = _DS.unpack(_QS.pack(int(name)))[0]
        if math.isfinite(value):
            return f"({value!r})"
    return f"_du(_qp({name}))[0]"


def _fold(inst, left, right) -> Optional[int]:
    """A certain op's value from constant operands, by the opcode's own
    evaluator (the engine's semantics); ``None`` when it must run: an FP
    op, an operand that is not constant, or an evaluation that raises."""
    op = inst.opcode
    if op.opclass is OpClass.FP:
        return None
    if any(o is not None and o[3] is None for o in (left, right)):
        return None
    try:
        value = op.alu(inst, left and left[3], right and right[3])
    except Exception:
        return None
    return value if 0 <= value <= MASK64 else None


# ----------------------------------------------------------------------
class _Compiler:
    """Emits one block's Python source (see module docstring).

    An operand is ``(name, certain, nonnull, constant)``: ``name`` is the
    variable (or literal) holding the value, ``certain`` says it always
    arrives, ``nonnull`` that it is never a null token, and ``constant``
    is its folded value or ``None``.
    """

    def __init__(self, block: TripsBlock, addr: int):
        self.block = block
        self.addr = addr
        self.lines: List[str] = []
        # (slot, kind) -> producer var names; write slot -> producer names
        self.ops: Dict[Tuple[int, OperandKind], List[str]] = {}
        self.wops: Dict[int, List[str]] = {}
        self.certain: Dict[str, bool] = {}      # var fires unconditionally
        self.nonnull: Dict[str, bool] = {}      # var is never a null token
        self.ref: Dict[str, str] = {}           # alias or folded literal
        self.const: Dict[str, int] = {}         # folded values
        self.never: Set[str] = set()            # producers that never fire
        self.assigned: Set[str] = set()         # folded vars given a line
        self.used: Set[str] = set()             # runtime locals emitted
        self.fired_const = 0
        self.loads_const = 0
        self.stores_const = 0
        self.stores_done = 0                    # LSIDs of certain stores
        self.guards: List[Optional[Tuple[str, int]]] = []  # live branches
        self.branch_certain = False
        self.store_lsids = [i.lsid for i in block.body.values()
                            if i.opcode.is_store]

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def _forwards(self, inst) -> bool:
        """A load that may forward from an earlier-LSID store."""
        return inst.opcode.is_load and \
            any(lsid < inst.lsid for lsid in self.store_lsids)

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
    def _live(self, producers) -> List[str]:
        return [p for p in producers if p not in self.never]

    def _var(self, p: str) -> str:
        """A variable holding ``p``'s value.  A folded constant gets its
        line here: ``is not None`` needs a name, and on a literal it is
        a SyntaxWarning and wrong code."""
        if p in self.const:
            if p not in self.assigned:
                self.emit(f"{p} = {self.ref[p]}")
                self.assigned.add(p)
            return p
        return self.ref.get(p, p)

    def _phi(self, plist: List[str]) -> str:
        """A predicated phi: at most one producer fires dynamically."""
        names = [self._var(p) for p in plist]
        expr = names[-1]
        for name in reversed(names[:-1]):
            expr = f"({name} if {name} is not None else {expr})"
        return expr

    def _operand(self, slot: int, kind: OperandKind, temp: str):
        """The operand (see class docstring), or None when no producer
        can fire."""
        plist = self._live(self.ops.get((slot, kind), ()))
        if not plist:
            return None
        if len(plist) == 1:
            p = plist[0]
            return (self.ref.get(p, p), self.certain[p], self.nonnull[p],
                    self.const.get(p))
        self.emit(f"{temp} = {self._phi(plist)}")
        return (temp, any(self.certain[p] for p in plist),
                all(self.nonnull[p] for p in plist), None)

    def _alias(self, var: str, name: str, value: Optional[int]) -> None:
        self.ref[var] = name
        if value is not None:
            self.const[var] = value

    # -- per-instruction emission ---------------------------------------
    def _emit_inst(self, slot: int) -> None:
        inst = self.block.body[slot]
        op = inst.opcode
        need = op.num_operands
        produces = not op.is_store and (
            not op.is_branch or op is Opcode.CALLO)
        var = f"t{slot}"

        operands = []
        for kind, required in ((OperandKind.LEFT, need >= 1),
                               (OperandKind.RIGHT, need >= 2),
                               (OperandKind.PRED, inst.pred is not None)):
            if not required:
                operands.append(None)
                continue
            got = self._operand(slot, kind, f"{var}{kind.name[0].lower()}")
            if got is None:         # a required operand can never arrive
                if produces:
                    self.never.add(var)
                return
            operands.append(got)
        left, right, pred = operands

        conds: List[str] = []
        if pred is not None:
            pname, pcert, pnn, pconst = pred
            if pconst is not None:  # a folded predicate decides now
                if pconst & 1 != int(inst.pred):
                    if produces:
                        self.never.add(var)
                    return
            else:
                if not pcert:
                    conds.append(f"{pname} is not None")
                if not pnn:
                    conds.append(f"{pname} is not N")
                conds.append(f"{pname} & 1 == {int(inst.pred)}")
        for o in (left, right):
            if o is not None and not o[1]:
                conds.append(f"{o[0]} is not None")
        nulls = [o[0] for o in (left, right)
                 if o is not None and not o[2]]

        if produces:
            self.certain[var] = not conds
        if op.is_store:
            self._emit_store(inst, left, right, conds, nulls)
        elif op.is_load:
            self._emit_load(inst, var, left, conds, nulls)
        elif op.is_branch:
            self._emit_branch(inst, var, left, pred, conds, nulls)
        elif op.opclass is OpClass.NULLIFY:
            self.nonnull[var] = False
            if not conds:
                self.fired_const += 1
                self.emit(f"{var} = N")
            else:
                self._guard(var, conds)
                self.emit(f"{var} = N", 2)
        else:
            self._emit_alu(inst, var, left, right, conds, nulls)

    def _guard(self, var: str, conds: List[str]) -> None:
        """Open an uncertain instruction's ``if``: it fires (and counts)
        only when its conditions hold."""
        self.emit(f"{var} = None")
        self.emit(f"if {' and '.join(conds)}:")
        self.emit("f += 1", 2)
        self.used.add("f")

    def _emit_alu(self, inst, var, left, right, conds, nulls) -> None:
        op = inst.opcode
        self.nonnull[var] = not nulls
        if not conds:
            self.fired_const += 1
            if op is Opcode.MOV:            # a certain copy is an alias
                self._alias(var, left[0], left[3])
                return
            value = None if nulls else _fold(inst, left, right)
            if value is not None:
                self._alias(var, str(value), value)
                return
        expr = _expr(inst, left and left[0], right and right[0])
        if nulls:
            null_test = " or ".join(f"{n} is N" for n in nulls)
            expr = f"N if {null_test} else ({expr})"
        if conds:
            self._guard(var, conds)
            self.emit(f"{var} = {expr}", 2)
        else:
            self.emit(f"{var} = {expr}")

    def _address(self, inst, base, temp: str, depth: int):
        """A memory op's effective address as ``(name, constant)``: a
        literal for a constant base, the base itself at offset 0, else
        ``temp``, assigned here."""
        ib = inst.imm & MASK64
        if base[3] is not None:
            value = (base[3] + ib) & MASK64
            return str(value), value
        if not ib:
            return base[0], None
        self.emit(f"{temp} = ({base[0]} + {ib}) & {MASK64}", depth)
        return temp, None

    def _page_read(self, addr: str, const: Optional[int], size: int,
                   signed: bool) -> str:
        """In-line read of a load no store can forward to: ``unpack_from``
        on the page, or ``_rd`` when the page is absent or the access
        crosses into the next page (the test for that is left out where
        it cannot happen)."""
        self.used.add("mem")
        fallback = f"_rd(mem, {addr}, {size}, {int(signed)})"
        if const is not None:
            if (const & PAGE_MASK) + size > PAGE_SIZE:
                return fallback
            page, off, test = (str(const >> PAGE_SHIFT),
                               str(const & PAGE_MASK), "")
        elif size == 1:
            page, off, test = (f"{addr} >> {PAGE_SHIFT}",
                               f"{addr} & {PAGE_MASK}", "")
        else:
            page, off, test = (f"{addr} >> {PAGE_SHIFT}", "_o",
                               f" and (_o := {addr} & {PAGE_MASK}) <= "
                               f"{PAGE_SIZE - size}")
        self.used.add("pg")
        reader = f"_{'s' if signed else 'u'}{size}"
        mask = f" & {MASK64}" if signed else ""
        return (f"{reader}(_p, {off})[0]{mask} if (_p := _pg({page})) "
                f"is not None{test} else {fallback}")

    def _emit_load(self, inst, var, left, conds, nulls) -> None:
        op = inst.opcode
        size = op.access_size
        signed = op.sign_extends and size < 8
        self.nonnull[var] = not nulls
        self.used.add("ma")
        depth = 1
        if conds:
            self.emit(f"{var} = None")
            self.emit(f"if {' and '.join(conds)}:")
            depth = 2
            self.emit("lc += 1", depth)
            self.used.add("lc")
        else:
            self.loads_const += 1
        if nulls:
            self.emit(f"if {nulls[0]} is N:", depth)
            self.emit(f"{var} = N", depth + 1)
            self.emit("else:", depth)
            depth += 1
        addr, const = self._address(inst, left, "_a", depth)
        self.emit(f"ma.append({addr})", depth)
        if not self._forwards(inst):
            self.emit(f"{var} = {self._page_read(addr, const, size, signed)}",
                      depth)
            return
        self.used.update(("mem", "sb"))
        self.emit(f"_v = _ld(mem, sb, {addr}, {size}, {inst.lsid})", depth)
        if signed:
            hs, fs = 1 << (8 * size - 1), 1 << (8 * size)
            self.emit(f"{var} = (_v - {fs}) & {MASK64} if _v >= {hs} "
                      "else _v", depth)
        else:
            self.emit(f"{var} = _v", depth)

    def _emit_store(self, inst, left, right, conds, nulls) -> None:
        size = inst.opcode.access_size
        self.used.add("mem")
        depth = 1
        if conds:
            self.emit(f"if {' and '.join(conds)}:")
            depth = 2
            self.emit("sc += 1", depth)
            self.emit(f"sd |= {1 << inst.lsid}", depth)
            self.used.update(("sc", "sd"))
        else:
            self.stores_const += 1
            self.stores_done |= 1 << inst.lsid
        if nulls:
            null_test = " or ".join(f"{n} is N" for n in nulls)
            self.emit(f"if {null_test}:", depth)
            self.emit("nul += 1", depth + 1)
            self.emit("else:", depth)
            depth += 1
            self.used.add("nul")
        addr, _ = self._address(inst, left, "_a", depth)
        self.used.add("sb")
        self.emit(f"sb.append(({inst.lsid}, {addr}, {size}, {right[0]}))",
                  depth)

    def _emit_branch(self, inst, var, left, pred, conds, nulls) -> None:
        op = inst.opcode
        delivers_link = op is Opcode.CALLO and inst.targets
        # a branch whose only condition is a certain, never-null
        # predicate cannot fire together with one guarded by the
        # predicate's opposite value
        guard = (pred[0], int(inst.pred)) if pred is not None \
            and pred[3] is None and pred[1] and pred[2] \
            and len(conds) == 1 else None
        exclusive = guard is not None and all(
            g is not None and g[0] == guard[0] and g[1] != guard[1]
            for g in self.guards)
        if not conds:
            self.branch_certain = True
        depth = 1
        if conds:
            if delivers_link:
                self.emit(f"{var} = None")
            self.emit(f"if {' and '.join(conds)}:")
            depth = 2
        if self.guards and not exclusive:
            self.used.add("nx")
            self.emit("if nx is not None:", depth)
            self.emit(f"raise SimError('block {self.block.name}: two "
                      "branches fired')", depth + 1)
        self.guards.append(guard)
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
                if conds:
                    self.emit(f"{var} = {link}", depth)
                else:
                    self._alias(var, str(link), link)
        else:                       # BR / RET: target is the left operand
            if nulls:
                self.emit(f"if {left[0]} is N:", depth)
                self.emit("raise SimError('branch received a null target "
                          "address')", depth + 1)
            self.emit(f"nx = {left[0]}", depth)
            self.emit(f"bt = {BT_RETURN if op is Opcode.RET else BT_BRANCH}",
                      depth)

    def _one_branch_fires(self) -> bool:
        """Some branch always fires: an unconditional one, or two
        guarded by opposite values of one certain predicate."""
        if self.branch_certain:
            return True
        guards = {g for g in self.guards if g is not None}
        return any((name, 1 - value) in guards for name, value in guards)

    # -- whole-function emission ----------------------------------------
    def _emit_commit(self) -> None:
        block = self.block
        if not self._one_branch_fires():
            self.used.add("nx")
            self.emit("if nx is None:")
            self.emit(f"raise SimError('block {block.name}: no branch fired "
                      "(deadlock?)')", 2)
        missing = block.store_mask & ~self.stores_done
        if missing:
            raise_stores = (f"raise SimError('block {block.name}: store "
                            "LSIDs never signalled')")
            if "sd" in self.used:
                self.emit(f"if sd & {missing} != {missing}:")
                self.emit(raise_stores, 2)
            else:
                self.emit(raise_stores)
        for wslot, write in sorted(block.writes.items()):
            self._emit_write(wslot, write.reg)
        if self.store_lsids:
            self.used.add("sb")
            self.emit("if sb:")
            if len(self.store_lsids) > 1:
                self.emit("sb.sort()", 2)
            self.emit("for _s in sb:", 2)
            self.emit("mem.write(_s[1], _s[3], _s[2])", 3)

    def _emit_write(self, wslot: int, reg: int) -> None:
        never = (f"raise SimError('block {self.block.name}: write slot "
                 f"{wslot} never received a value')")
        plist = self._live(self.wops.get(wslot, ()))
        if not plist:
            self.emit(never)
            return
        self.used.add("regs")
        if len(plist) == 1:
            p = plist[0]
            if self.certain[p] and self.nonnull[p]:
                self.emit(f"regs[{reg}] = {self.ref.get(p, p)}")
                return
            name = self._var(p)
        else:
            name = "_w"
            self.emit(f"_w = {self._phi(plist)}")
        tests = []
        if not any(self.certain[p] for p in plist):
            tests.append((f"{name} is None", never))
        if not all(self.nonnull[p] for p in plist):
            tests.append((f"{name} is N", "nul += 1"))
            self.used.add("nul")
        if not tests:
            self.emit(f"regs[{reg}] = {name}")
            return
        for k, (test, action) in enumerate(tests):
            self.emit(f"{'elif' if k else 'if'} {test}:")
            self.emit(action, 2)
        self.emit("else:")
        self.emit(f"regs[{reg}] = {name}", 2)

    def _emit_stats(self) -> None:
        # exactly one branch fires in a block that commits
        fired = self.fired_const + self.loads_const + self.stores_const \
            + (1 if self.guards else 0)
        terms = [str(fired)] + [c for c in ("f", "lc", "sc")
                                if c in self.used]
        self.emit(f"st.fired += {' + '.join(terms)}")
        if self.loads_const or "lc" in self.used:
            self.emit(f"st.loads += {self.loads_const}"
                      + (" + lc" if "lc" in self.used else ""))
        if self.stores_const or "sc" in self.used:
            self.emit(f"st.stores += {self.stores_const}"
                      + (" + sc" if "sc" in self.used else ""))
        if self.block.reads:
            self.emit(f"st.reads += {len(self.block.reads)}")
        if "nul" in self.used:
            self.emit("if nul:")
            self.emit("st.nullified_outputs += nul", 2)
        self.emit("_b = st.branches_by_exit")
        self.emit("_b[ex] = _b.get(ex, 0) + 1")
        loads = "ma" if "ma" in self.used else "()"
        stores = "[_s[1] for _s in sb]" if self.store_lsids else "()"
        self.emit(f"return nx, ex, bt, {loads}, {stores}")

    def _prologue(self, name: str) -> List[str]:
        used = self.used
        head = [f"def {name}(sim):", "    st = sim.stats"]
        if self.block.reads or "regs" in used:
            head.append("    regs = sim.regs")
        if "mem" in used:
            head.append("    mem = sim.memory")
        if "pg" in used:
            head.append("    _pg = mem.peek_page")
        for local, init in (("sb", "[]"), ("ma", "[]"), ("f", "0"),
                            ("lc", "0"), ("sc", "0"), ("nul", "0"),
                            ("sd", "0"), ("nx", "None")):
            if local in used:
                head.append(f"    {local} = {init}")
        for rslot, read in sorted(self.block.reads.items()):
            head.append(f"    r{rslot} = regs[{read.reg}]")
        return head

    def compile(self):
        block, addr = self.block, self.addr
        regs_written = [w.reg for w in block.writes.values()]
        if len(set(regs_written)) != len(regs_written):
            raise BlockCompileError("two write slots share a register")
        self._wire()
        for slot in self._order():
            self._emit_inst(slot)
        self._emit_commit()
        self._emit_stats()

        name = f"_blk_{addr:x}"
        source = "\n".join(self._prologue(name) + self.lines) + "\n"
        namespace = {"N": NULL_TOKEN, "SimError": SimError, "_ld": _ld,
                     "_rd": _rd, "_qp": _QS.pack, "_qu": _QS.unpack,
                     "_dp": _DS.pack, "_du": _DS.unpack, **_HELPERS}
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

    ``warm=False`` skips all of that and just executes fast;
    ``unwarmed_blocks`` counts how many blocks ran that way, so a
    checkpoint can report how stale its warm state is.  A cold
    ``run_blocks`` stretch runs in one loop with the pc, block count and
    BBV in locals.

    ``bbv_interval=N`` additionally accumulates one basic-block vector
    (static block address -> committed count) per N retired blocks — the
    raw material for :mod:`~repro.sampling.phases`.  The counts ride the
    per-block dispatch, so collection costs one dict increment per block
    on top of the compiled closures.
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
        self._images: Dict[int, bytes] = {}     # last page_images() result
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

    def page_images(self) -> Dict[int, bytes]:
        """Every touched page's image (page base address -> 4KB), in
        address order, for a checkpoint.  A page still equal to its image
        in this fast-forwarder's previous call is that same ``bytes``
        object, so consecutive snapshots share unchanged pages instead of
        holding a copy each."""
        last = self._images
        images: Dict[int, bytes] = {}
        for addr, image in self.memory.touched_pages():
            kept = last.get(addr)
            images[addr] = kept if kept == image else image
        self._images = images
        return images

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
        if not self.warm:
            return self._run_cold(n)
        st = self.stats
        while not self.halted and st.blocks < n:
            if st.blocks >= self.max_blocks:
                raise SimError(f"block budget {self.max_blocks} exhausted")
            self.step_block()
        return st.blocks

    def _run_cold(self, n: int) -> int:
        """``run_blocks`` with ``warm=False``: :meth:`step_block`'s steps
        in one loop, with the pc, block count and BBV in locals (written
        back on the way out, an exception included)."""
        st = self.stats
        fns = self._fns
        pc, blocks, halted = self.pc, st.blocks, self.halted
        bbv, interval = self._bbv_cur, self.bbv_interval
        budget = self.max_blocks
        start, fallbacks = blocks, 0
        try:
            while not halted and blocks < n:
                if blocks >= budget:
                    raise SimError(f"block budget {budget} exhausted")
                try:
                    fn = fns[pc]
                except KeyError:
                    fn = self._fn_for(pc)
                if fn is None:      # the interpreter, on written-back state
                    self.pc, st.blocks, self._bbv_cur = pc, blocks, bbv
                    self.step_block()
                    pc, blocks, halted = self.pc, st.blocks, self.halted
                    bbv = self._bbv_cur
                    fallbacks += 1
                    continue
                nx = fn(self)[0]
                blocks += 1
                if bbv is not None:
                    bbv[pc] = bbv.get(pc, 0) + 1
                    if blocks % interval == 0:
                        self.bbvs.append(bbv)
                        bbv = {}
                if nx == EXIT_ADDRESS:
                    halted = True
                else:
                    pc = nx
        finally:
            self.pc, st.blocks, self.halted = pc, blocks, halted
            self._bbv_cur = bbv
            self.unwarmed_blocks += blocks - start - fallbacks
        return blocks

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
