"""Per-TRIPS-block dataflow graph construction and materialization.

One :class:`BlockDag` accumulates the dataflow graph of a TRIPS block while
linear statements are fed in: expression trees become value nodes (with
structural CSE and immediate folding), scalar live-ins become read nodes on
demand, constants become ``movi``/``movih`` chains, if-converted regions
become predicated-mov merges and null-token store operands (the Figure 5a
pattern), and the terminator becomes one or two (predicated) branches.

The builder supports snapshot/rollback so the block former can split a
basic block when it would exceed an ISA constraint (128 instructions,
32 memory operations, 8 reads/writes per register bank).

Materialization performs dead-code elimination from the sinks, expands
fanout (``mov`` trees) for producers with more consumers than their target
fields allow, compacts LSIDs, schedules instructions onto the ET grid, and
emits a :class:`repro.isa.TripsBlock`, which the program's image
validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa import (
    Instruction,
    MAX_BODY_INSTS,
    MAX_MEM_OPS,
    OpClass,
    Opcode,
    OperandKind,
    ReadInstruction,
    SLOTS_PER_BANK,
    Target,
    TripsBlock,
    WriteInstruction,
    reg_bank,
)
from ..isa.encoding import IMM_I_BITS
from ..tir import semantics
from ..tir.ir import MASK64, bits_to_int, int_to_bits
from .cfg import CompileError

# --- TIR operator -> TRIPS opcode tables --------------------------------
GOP = {
    "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL,
    "div": Opcode.DIVS, "and": Opcode.AND, "or": Opcode.OR,
    "xor": Opcode.XOR, "shl": Opcode.SLL, "shr": Opcode.SRL,
    "sra": Opcode.SRA,
    "eq": Opcode.TEQ, "ne": Opcode.TNE, "lt": Opcode.TLT,
    "le": Opcode.TLE, "gt": Opcode.TGT, "ge": Opcode.TGE,
    "ltu": Opcode.TLTU, "geu": Opcode.TGEU,
    "fadd": Opcode.FADD, "fsub": Opcode.FSUB, "fmul": Opcode.FMUL,
    "fdiv": Opcode.FDIV,
    "feq": Opcode.FEQ, "fne": Opcode.FNE, "flt": Opcode.FLT,
    "fle": Opcode.FLE, "fgt": Opcode.FGT, "fge": Opcode.FGE,
}
#: FP-class opcodes whose result is nonetheless a 0/1 boolean.
_BOOL_FP_OPS = frozenset({Opcode.FEQ, Opcode.FNE, Opcode.FLT,
                          Opcode.FLE, Opcode.FGT, Opcode.FGE})

IOP = {
    "add": Opcode.ADDI, "sub": Opcode.SUBI, "mul": Opcode.MULI,
    "and": Opcode.ANDI, "or": Opcode.ORI, "xor": Opcode.XORI,
    "shl": Opcode.SLLI, "shr": Opcode.SRLI, "sra": Opcode.SRAI,
    "eq": Opcode.TEQI, "ne": Opcode.TNEI, "lt": Opcode.TLTI,
    "ge": Opcode.TGEI, "gt": Opcode.TGTI, "le": Opcode.TLEI,
}
UOP = {"not": Opcode.NOT, "itof": Opcode.ITOF, "ftoi": Opcode.FTOI}
COMMUTATIVE = {"add", "mul", "and", "or", "xor", "eq", "ne"}
#: comparison flipped when its operands are swapped.
FLIP_CMP = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le",
            "ltu": None, "geu": None}

LOAD_OPC = {"i64": Opcode.LD, "u64": Opcode.LD, "f64": Opcode.LD,
            "i32": Opcode.LW, "u32": Opcode.LWU,
            "i16": Opcode.LH, "u16": Opcode.LHU,
            "i8": Opcode.LB, "u8": Opcode.LBU}
STORE_OPC = {1: Opcode.SB, 2: Opcode.SH, 4: Opcode.SW, 8: Opcode.SD}


def _fits_imm(value: int) -> bool:
    signed = bits_to_int(value)
    return -(1 << (IMM_I_BITS - 1)) <= signed < (1 << (IMM_I_BITS - 1))


def _fits_const16(value: int) -> bool:
    signed = bits_to_int(value)
    return -32768 <= signed < 32768


# ----------------------------------------------------------------------
class DNode:
    """One node of the block dataflow graph."""

    __slots__ = ("uid", "kind", "opcode", "inputs", "pred", "imm", "const",
                 "lsid", "reg", "label", "exit_no", "bits", "slot", "depth")

    def __init__(self, uid: int, kind: str, opcode: Optional[Opcode] = None,
                 inputs: Tuple = (), pred=None, imm: int = 0, const: int = 0,
                 lsid: int = -1, reg: int = -1, label: Optional[str] = None,
                 exit_no: int = 0, bits: Optional[int] = None):
        self.uid = uid
        self.kind = kind          # op | const | read | merge | branch
        self.opcode = opcode
        self.inputs = tuple(inputs)
        self.pred = pred          # (DNode, bool) or None
        self.imm = imm
        self.const = const
        self.lsid = lsid
        self.reg = reg
        self.label = label
        self.exit_no = exit_no
        self.bits = bits          # known constant value, for folding
        self.slot = -1            # assigned at scheduling
        self.depth = 0

    @property
    def is_body(self) -> bool:
        return self.kind in ("op", "const", "branch")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.opcode.mnemonic if self.opcode else self.kind
        return f"<D{self.uid} {name}>"


def target_capacity(node: DNode) -> int:
    """How many consumers this producer can feed without fanout movs."""
    if node.kind == "read":
        return 2
    opcode = node.opcode
    return 0 if opcode is None else opcode.max_targets


# ----------------------------------------------------------------------
@dataclass
class _Snapshot:
    n_nodes: int
    var_values: Dict[str, DNode]
    dirty: Set[str]
    const_cache: Dict[int, DNode]
    cse: Dict[Tuple, DNode]
    read_cache: Dict[str, DNode]
    next_lsid: int


class BlockDag:
    """Accumulates one TRIPS block's dataflow graph."""

    #: reserve for the terminator: cond (maybe) + two branches + one mov.
    BRANCH_RESERVE = 4

    def __init__(self, var_regs: Dict[str, int], array_addrs: Dict[str, int],
                 arrays):
        self.var_regs = var_regs
        self.array_addrs = array_addrs
        self.arrays = arrays
        self.nodes: List[DNode] = []
        self.var_values: Dict[str, DNode] = {}
        self.dirty: Set[str] = set()
        self.const_cache: Dict[int, DNode] = {}
        self.cse: Dict[Tuple, DNode] = {}
        self.read_cache: Dict[str, DNode] = {}
        self.next_lsid = 0
        self._uid = 0
        self.branches: List[DNode] = []
        self.writes: List[Tuple[int, DNode]] = []   # (reg, value)

    # -- snapshot / rollback ------------------------------------------
    def snapshot(self) -> _Snapshot:
        return _Snapshot(len(self.nodes), dict(self.var_values),
                         set(self.dirty), dict(self.const_cache),
                         dict(self.cse), dict(self.read_cache),
                         self.next_lsid)

    def rollback(self, snap: _Snapshot) -> None:
        del self.nodes[snap.n_nodes:]
        self.var_values = snap.var_values
        self.dirty = snap.dirty
        self.const_cache = snap.const_cache
        self.cse = snap.cse
        self.read_cache = snap.read_cache
        self.next_lsid = snap.next_lsid

    # -- node creation --------------------------------------------------
    def _new(self, **kwargs) -> DNode:
        self._uid += 1
        node = DNode(self._uid, **kwargs)
        self.nodes.append(node)
        return node

    def const(self, bits: int) -> DNode:
        """A node producing the 64-bit pattern ``bits`` (movi/movih chain)."""
        bits &= MASK64
        cached = self.const_cache.get(bits)
        if cached is not None:
            return cached
        if _fits_const16(bits):
            node = self._new(kind="const", opcode=Opcode.MOVI,
                             const=bits_to_int(bits), bits=bits)
        else:
            top = bits >> 16
            if top >> 47:                      # sign-extend from bit 47
                top |= ((1 << 16) - 1) << 48
            prev = self.const(top)
            chunk = bits & 0xFFFF
            if chunk >= 0x8000:   # C-format constants are signed; the ALU
                chunk -= 0x10000  # masks back to the low 16 bits
            node = self._new(kind="const", opcode=Opcode.MOVIH,
                             inputs=(prev,), const=chunk, bits=bits)
        self.const_cache[bits] = node
        return node

    def read_var(self, name: str) -> DNode:
        """Current value of a scalar: local def, or a register read."""
        node = self.var_values.get(name)
        if node is not None:
            return node
        cached = self.read_cache.get(name)
        if cached is None:
            reg = self.var_regs[name]
            cached = self._new(kind="read", reg=reg)
            self.read_cache[name] = cached
        self.var_values[name] = cached
        return cached

    def set_var(self, name: str, node: DNode) -> None:
        self.var_values[name] = node
        self.dirty.add(name)

    # -- expression lowering --------------------------------------------
    def expr(self, e) -> DNode:
        from ..tir.ir import BinOp, Const, Load, UnOp, Var
        if isinstance(e, Const):
            return self.const(e.bits)
        if isinstance(e, Var):
            return self.read_var(e.name)
        if isinstance(e, Load):
            return self._load(e.array, e.index)
        if isinstance(e, BinOp):
            return self._binop(e.op, e.a, e.b)
        if isinstance(e, UnOp):
            return self._unop(e.op, e.a)
        raise CompileError(f"cannot lower expression {e!r}")

    def _binop(self, op: str, ea, eb) -> DNode:
        if op == "rem":           # a - div(a, b) * b
            from ..tir.ir import BinOp
            return self._binop("sub", ea,
                               BinOp("mul", BinOp("div", ea, eb), eb))
        a = self.expr(ea)
        b = self.expr(eb)
        if a.bits is not None and b.bits is not None:
            return self.const(semantics.binop(op, a.bits, b.bits))
        # Prefer the immediate form: constant on the right, or swappable.
        if a.bits is not None and b.bits is None:
            if op in COMMUTATIVE:
                a, b = b, a
            elif op in FLIP_CMP and FLIP_CMP[op]:
                a, b = b, a
                op = FLIP_CMP[op]
        if b.bits is not None and op in IOP and _fits_imm(b.bits):
            return self._cse_op(IOP[op], (a,), imm=bits_to_int(b.bits))
        return self._cse_op(GOP[op], (a, b))

    def as_pred(self, node: DNode) -> DNode:
        """``node`` normalized for use as a predicate or branch condition.

        TIR conditions mean "value != 0", but hardware predication tests
        only bit 0 of the arriving token (``uarch/functional.py``), so a
        raw value like ``~1`` would take the wrong arm.  Values already
        known to be 0/1 — test-class and float-compare results, constants
        — pass through; anything else gets a ``tnei #0``.
        """
        if node.bits is not None:
            return self.const(1 if node.bits & MASK64 else 0)
        if node.opcode is not None:
            if node.opcode.opclass is OpClass.TEST or \
                    node.opcode in _BOOL_FP_OPS:
                return node
        return self._cse_op(Opcode.TNEI, (node,), imm=0)

    def _unop(self, op: str, ea) -> DNode:
        a = self.expr(ea)
        if a.bits is not None:
            return self.const(semantics.unop(op, a.bits))
        if op == "neg":
            return self._cse_op(Opcode.SUB, (self.const(0), a))
        return self._cse_op(UOP[op], (a,))

    def _cse_op(self, opcode: Opcode, inputs: Tuple[DNode, ...],
                imm: int = 0) -> DNode:
        key = (opcode, tuple(n.uid for n in inputs), imm)
        cached = self.cse.get(key)
        if cached is not None:
            return cached
        node = self._new(kind="op", opcode=opcode, inputs=inputs, imm=imm)
        self.cse[key] = node
        return node

    # -- memory -----------------------------------------------------------
    def _address(self, array: str, index) -> Tuple[DNode, int]:
        """(address node, folded immediate) for ``array[index]``.

        Constant index offsets fold into the load/store's 9-bit signed
        immediate — ``a[i+k]`` for all k of an unrolled body shares one
        scaled-base computation (classic strength reduction; essential for
        the streaming kernels to reach the fetch-bandwidth bound).
        """
        from ..tir.ir import BinOp, Const
        from ..isa.encoding import IMM_LS_BITS
        arr = self.arrays[array]
        lim = 1 << (IMM_LS_BITS - 1)
        if isinstance(index, BinOp) and index.op in ("add", "sub"):
            if index.op == "add":
                variants = [(index.a, index.b, 1), (index.b, index.a, 1)]
            else:
                variants = [(index.a, index.b, -1)]
            for rest, const_part, sign in variants:
                if isinstance(const_part, Const):
                    off = sign * bits_to_int(const_part.bits) * arr.elem_size
                    if -lim <= off < lim:
                        node, imm0 = self._address(array, rest)
                        if -lim <= imm0 + off < lim:
                            return node, imm0 + off
        base = self.array_addrs[array]
        idx = self.expr(index)
        if idx.bits is not None:
            return self.const(base + bits_to_int(idx.bits) * arr.elem_size), 0
        shift = arr.elem_size.bit_length() - 1
        scaled = idx if shift == 0 else self._cse_op(
            Opcode.SLLI, (idx,), imm=shift)
        return self._cse_op(Opcode.ADD, (self.const(base), scaled)), 0

    def _load(self, array: str, index) -> DNode:
        addr, imm = self._address(array, index)
        arr = self.arrays[array]
        opcode = LOAD_OPC[arr.dtype]
        lsid = self._alloc_lsid()
        # Loads are NOT CSE'd: intervening stores could change the answer;
        # the LSQ would disambiguate, the compiler stays conservative.
        return self._new(kind="op", opcode=opcode, inputs=(addr,),
                         imm=imm, lsid=lsid)

    def store(self, array: str, index, value,
              pred: Optional[Tuple[DNode, bool]] = None) -> None:
        """Emit a store.  If ``pred`` is given, the store's operands are
        routed through predicated movs and an opposite-polarity ``null``,
        so the store itself always fires (Section 4.2's nullification)."""
        addr, imm = self._address(array, index)
        data = self.expr(value)
        arr = self.arrays[array]
        opcode = STORE_OPC[arr.elem_size]
        if pred is not None:
            cond, polarity = pred
            mov_a = self._new(kind="op", opcode=Opcode.MOV, inputs=(addr,),
                              pred=(cond, polarity))
            mov_d = self._new(kind="op", opcode=Opcode.MOV, inputs=(data,),
                              pred=(cond, polarity))
            null = self._new(kind="op", opcode=Opcode.NULL,
                             pred=(cond, not polarity))
            addr = self._merge2(mov_a, null)
            data = self._merge2(mov_d, null)
        lsid = self._alloc_lsid()
        self._new(kind="op", opcode=opcode, inputs=(addr, data),
                  imm=imm, lsid=lsid)

    def _alloc_lsid(self) -> int:
        lsid = self.next_lsid
        if lsid >= MAX_MEM_OPS:
            raise _SplitNeeded("out of LSIDs")
        self.next_lsid += 1
        return lsid

    # -- merges (phi) ------------------------------------------------------
    def _merge2(self, a: DNode, b: DNode) -> DNode:
        return self._new(kind="merge", inputs=(a, b))

    def phi(self, cond: DNode, tval: DNode, fval: DNode) -> DNode:
        """Value that is ``tval`` when cond is 1, else ``fval``."""
        if tval is fval:
            return tval
        if cond.bits is not None:    # constant condition: fold the merge
            return tval if cond.bits & 1 else fval
        mov_t = self._new(kind="op", opcode=Opcode.MOV, inputs=(tval,),
                          pred=(cond, True))
        mov_f = self._new(kind="op", opcode=Opcode.MOV, inputs=(fval,),
                          pred=(cond, False))
        return self._merge2(mov_t, mov_f)

    # -- terminators ------------------------------------------------------
    def branch_jump(self, label: str) -> None:
        node = self._new(kind="branch", opcode=Opcode.BRO, label=label,
                         exit_no=len(self.branches))
        self.branches.append(node)

    def branch_halt(self) -> None:
        node = self._new(kind="branch", opcode=Opcode.HALT,
                         exit_no=len(self.branches))
        self.branches.append(node)

    def branch_cond(self, cond: DNode, if_true: str, if_false: str) -> None:
        t = self._new(kind="branch", opcode=Opcode.BRO, label=if_true,
                      pred=(cond, True), exit_no=len(self.branches))
        self.branches.append(t)
        f = self._new(kind="branch", opcode=Opcode.BRO, label=if_false,
                      pred=(cond, False), exit_no=len(self.branches))
        self.branches.append(f)

    def add_write(self, reg: int, node: DNode) -> None:
        self.writes.append((reg, node))

    # -- size estimation ---------------------------------------------------
    def estimate(self, pending_writes: Sequence[str],
                 include_branch_reserve: bool = True) -> Dict[str, int]:
        """Estimated resource usage if the block were closed now.

        ``pending_writes`` are variables that would get write instructions.
        Estimation is conservative (pre-DCE).
        """
        consumers: Dict[int, int] = {}

        def feed(producer: DNode) -> None:
            for real in _resolve(producer):
                consumers[real.uid] = consumers.get(real.uid, 0) + 1

        for node in self.nodes:
            if node.kind == "merge":
                continue
            for inp in node.inputs:
                feed(inp)
            if node.pred is not None:
                feed(node.pred[0])
        for name in pending_writes:
            node = self.var_values.get(name)
            if node is not None:
                feed(node)

        body = 0
        reads_by_bank = [0, 0, 0, 0]
        for node in self.nodes:
            if node.kind == "merge":
                continue
            if node.kind == "read":
                reads_by_bank[reg_bank(node.reg)] += 1
            else:
                body += 1
            extra = consumers.get(node.uid, 0) - target_capacity(node)
            if extra > 0:
                body += extra
        if include_branch_reserve:
            body += self.BRANCH_RESERVE
        writes_by_bank = [0, 0, 0, 0]
        for name in pending_writes:
            writes_by_bank[reg_bank(self.var_regs[name])] += 1
        return {
            "body": body,
            "mem": self.next_lsid,
            "max_reads": max(reads_by_bank),
            "max_writes": max(writes_by_bank),
        }

    def fits(self, pending_writes: Sequence[str]) -> bool:
        est = self.estimate(pending_writes)
        return (est["body"] <= MAX_BODY_INSTS
                and est["mem"] <= MAX_MEM_OPS
                and est["max_reads"] <= SLOTS_PER_BANK
                and est["max_writes"] <= SLOTS_PER_BANK)


class _SplitNeeded(Exception):
    """Internal: the current statement cannot fit; the caller must split."""


def _resolve(node: DNode) -> List[DNode]:
    """Transparent view through merge nodes to real producers."""
    if node.kind != "merge":
        return [node]
    out: List[DNode] = []
    for inp in node.inputs:
        out.extend(_resolve(inp))
    return out
