"""TIR node definitions and 64-bit value helpers."""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

MASK64 = (1 << 64) - 1


class TirError(ValueError):
    """Malformed TIR."""


# ----------------------------------------------------------------------
# 64-bit value helpers: every TIR value is a 64-bit pattern (unsigned int).
# ----------------------------------------------------------------------
def int_to_bits(value: int) -> int:
    """Two's-complement encode a Python int into a 64-bit pattern."""
    return value & MASK64


def bits_to_int(bits: int) -> int:
    """Decode a 64-bit pattern as a signed integer."""
    bits &= MASK64
    return bits - (1 << 64) if bits >> 63 else bits


def float_to_bits(value: float) -> int:
    """IEEE-754 double -> 64-bit pattern."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """64-bit pattern -> IEEE-754 double."""
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


#: dtype name -> element size in bytes.
DTYPE_SIZE = {"i8": 1, "u8": 1, "i16": 2, "u16": 2, "i32": 4, "u32": 4,
              "i64": 8, "u64": 8, "f64": 8}
SIGNED_DTYPES = {"i8", "i16", "i32", "i64"}

#: element size -> (unsigned, signed) ``array`` typecodes of that size
_TYPECODES: Dict[int, Tuple[str, str]] = {}
for _code in "BbHhIiLlQq":
    _TYPECODES.setdefault(array(_code).itemsize, (_code, _code.lower()))
del _code


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
#: binary operators: TIR op name -> python-level signed semantics are
#: defined in interp.py; this set is the authoritative vocabulary.
BINOPS = {
    "add", "sub", "mul", "div", "rem",
    "and", "or", "xor", "shl", "shr", "sra",
    "eq", "ne", "lt", "le", "gt", "ge", "ltu", "geu",
    "fadd", "fsub", "fmul", "fdiv",
    "flt", "fle", "fgt", "fge", "feq", "fne",
}
UNOPS = {"not", "neg", "itof", "ftoi"}


class Expr:
    """Base of all expressions, with operator-overloaded sugar."""

    def __add__(self, other):  return BinOp("add", self, _wrap(other))
    def __radd__(self, other): return BinOp("add", _wrap(other), self)
    def __sub__(self, other):  return BinOp("sub", self, _wrap(other))
    def __rsub__(self, other): return BinOp("sub", _wrap(other), self)
    def __mul__(self, other):  return BinOp("mul", self, _wrap(other))
    def __rmul__(self, other): return BinOp("mul", _wrap(other), self)
    def __and__(self, other):  return BinOp("and", self, _wrap(other))
    def __or__(self, other):   return BinOp("or", self, _wrap(other))
    def __xor__(self, other):  return BinOp("xor", self, _wrap(other))
    def __lshift__(self, other): return BinOp("shl", self, _wrap(other))
    def __rshift__(self, other): return BinOp("sra", self, _wrap(other))

    # Comparisons intentionally do NOT overload ==/< to keep hashability;
    # use the named helpers below.
    def eq(self, other):  return BinOp("eq", self, _wrap(other))
    def ne(self, other):  return BinOp("ne", self, _wrap(other))
    def lt(self, other):  return BinOp("lt", self, _wrap(other))
    def le(self, other):  return BinOp("le", self, _wrap(other))
    def gt(self, other):  return BinOp("gt", self, _wrap(other))
    def ge(self, other):  return BinOp("ge", self, _wrap(other))


def _wrap(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TirError("use 0/1 integers, not bools")
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, float):
        return Const(float_to_bits(value), is_float=True)
    raise TirError(f"cannot use {value!r} as an expression")


@dataclass(frozen=True)
class Const(Expr):
    """A 64-bit constant.  ``bits`` is the raw pattern."""

    bits: int
    is_float: bool = False

    def __post_init__(self):
        object.__setattr__(self, "bits", int_to_bits(self.bits))


def F(value: float) -> Const:
    """Float constant helper: ``F(0.5)``."""
    return Const(float_to_bits(value), is_float=True)


@dataclass(frozen=True)
class Var(Expr):
    """A named scalar variable."""

    name: str


def V(name: str) -> Var:
    """Shorthand for :class:`Var`."""
    return Var(name)


@dataclass(frozen=True)
class Load(Expr):
    """``array[index]``, index in elements; dtype from the declaration."""

    array: str
    index: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    a: Expr
    b: Expr

    def __post_init__(self):
        if self.op not in BINOPS:
            raise TirError(f"unknown binop {self.op!r}")


@dataclass(frozen=True)
class UnOp(Expr):
    op: str
    a: Expr

    def __post_init__(self):
        if self.op not in UNOPS:
            raise TirError(f"unknown unop {self.op!r}")


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Stmt:
    """Base of all statements."""


@dataclass
class Assign(Stmt):
    var: str
    expr: Expr


@dataclass
class Store(Stmt):
    """``array[index] = value``, index in elements."""

    array: str
    index: Expr
    value: Expr


@dataclass
class For(Stmt):
    """Counted loop: ``for var in range(start, stop, step)``.

    ``start``/``stop`` are evaluated once at entry.  ``step`` is a nonzero
    literal.  ``unroll`` is a hand-optimization hint honoured only at the
    "hand" compilation level (the trip count must divide evenly).
    """

    var: str
    start: Union[Expr, int]
    stop: Union[Expr, int]
    step: int
    body: List[Stmt]
    unroll: int = 1

    def __post_init__(self):
        self.start = _wrap(self.start)
        self.stop = _wrap(self.stop)
        if self.step == 0:
            raise TirError("zero loop step")
        if self.unroll < 1:
            raise TirError("unroll factor must be >= 1")


@dataclass
class While(Stmt):
    """``while cond != 0``."""

    cond: Expr
    body: List[Stmt]


@dataclass
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
@dataclass
class Array:
    """A named memory region of typed elements.

    ``data`` holds initial element values: raw int patterns for integer
    dtypes, Python floats for ``f64``.
    """

    dtype: str
    data: List[Union[int, float]]

    def __post_init__(self):
        if self.dtype not in DTYPE_SIZE:
            raise TirError(f"unknown dtype {self.dtype!r}")

    @property
    def elem_size(self) -> int:
        return DTYPE_SIZE[self.dtype]

    @property
    def signed(self) -> bool:
        return self.dtype in SIGNED_DTYPES

    @property
    def nbytes(self) -> int:
        return len(self.data) * self.elem_size

    def encode(self) -> bytes:
        """Initial contents as little-endian bytes, packed in one call.

        An int element is a raw pattern and keeps its low ``elem_size``
        bytes (``-1`` and ``255`` both encode as ``ff`` in a ``u8``
        array); in an ``f64`` array a float is stored as its IEEE-754
        bits.  The packed array is the only buffer built besides the
        result.
        """
        data = self.data
        size = self.elem_size
        if self.dtype == "f64" and all(
                issubclass(kind, float) for kind in set(map(type, data))):
            packed = array("d", data)
        else:
            unsigned, signed = _TYPECODES[size]
            packed = None
            for code in ((signed, unsigned) if self.signed
                         else (unsigned, signed)):
                try:
                    packed = array(code, data)
                    break
                except (OverflowError, TypeError):
                    pass
            if packed is None:
                # wider than an element, both signs past half range, or
                # floats among the ints: reduce each to its pattern first
                mask = (1 << (8 * size)) - 1
                packed = array(unsigned, (
                    (float_to_bits(v) if isinstance(v, float) and
                     self.dtype == "f64" else int(v)) & mask for v in data))
        if sys.byteorder == "big":
            packed.byteswap()
        return packed.tobytes()


@dataclass
class TirProgram:
    """A complete workload: declarations + body + observable outputs."""

    name: str
    arrays: Dict[str, Array] = field(default_factory=dict)
    scalars: Dict[str, int] = field(default_factory=dict)
    body: List[Stmt] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)

    def validate(self) -> None:
        names = set(self.arrays) | set(self.scalars)
        if len(names) != len(self.arrays) + len(self.scalars):
            raise TirError("array and scalar namespaces collide")
        for out in self.outputs:
            if out not in names:
                raise TirError(f"output {out!r} undeclared")
        _check_stmts(self.body, self, dict(self.scalars))

    def all_variables(self) -> List[str]:
        """Every scalar name mentioned anywhere, in first-seen order."""
        seen: Dict[str, None] = dict.fromkeys(self.scalars)
        def walk_expr(e: Expr) -> None:
            if isinstance(e, Var):
                seen.setdefault(e.name)
            elif isinstance(e, BinOp):
                walk_expr(e.a); walk_expr(e.b)
            elif isinstance(e, UnOp):
                walk_expr(e.a)
            elif isinstance(e, Load):
                walk_expr(e.index)
        def walk(stmts: Sequence[Stmt]) -> None:
            for s in stmts:
                if isinstance(s, Assign):
                    walk_expr(s.expr); seen.setdefault(s.var)
                elif isinstance(s, Store):
                    walk_expr(s.index); walk_expr(s.value)
                elif isinstance(s, For):
                    walk_expr(s.start); walk_expr(s.stop)
                    seen.setdefault(s.var); walk(s.body)
                elif isinstance(s, While):
                    walk_expr(s.cond); walk(s.body)
                elif isinstance(s, If):
                    walk_expr(s.cond); walk(s.then_body); walk(s.else_body)
        walk(self.body)
        return list(seen)


def _check_stmts(stmts: Sequence[Stmt], prog: TirProgram, defined: Dict) -> None:
    def check_expr(e: Expr) -> None:
        if isinstance(e, Load):
            if e.array not in prog.arrays:
                raise TirError(f"load from undeclared array {e.array!r}")
            check_expr(e.index)
        elif isinstance(e, BinOp):
            check_expr(e.a); check_expr(e.b)
        elif isinstance(e, UnOp):
            check_expr(e.a)
        elif isinstance(e, Var):
            if e.name not in defined:
                raise TirError(f"use of undefined variable {e.name!r}")
        elif not isinstance(e, Const):
            raise TirError(f"not an expression: {e!r}")

    for s in stmts:
        if isinstance(s, Assign):
            check_expr(s.expr)
            defined[s.var] = None
        elif isinstance(s, Store):
            if s.array not in prog.arrays:
                raise TirError(f"store to undeclared array {s.array!r}")
            check_expr(s.index); check_expr(s.value)
        elif isinstance(s, For):
            check_expr(s.start); check_expr(s.stop)
            defined[s.var] = None
            _check_stmts(s.body, prog, defined)
        elif isinstance(s, While):
            check_expr(s.cond)
            _check_stmts(s.body, prog, defined)
        elif isinstance(s, If):
            check_expr(s.cond)
            # both arms see the same incoming scope; defs in one arm are
            # visible after (conservative: we merge)
            _check_stmts(s.then_body, prog, defined)
            _check_stmts(s.else_body, prog, defined)
        else:
            raise TirError(f"not a statement: {s!r}")
