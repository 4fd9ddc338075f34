"""Seeded, deterministic random TIR program generator.

Every program drawn from :func:`generate` is valid by construction:

* it passes ``TirProgram.validate()``,
* every loop terminates (``For`` trip counts are literal; ``While``
  loops run on a dedicated down-counter the body cannot touch), so the
  fuel-less reference interpreter is safe to run on it,
* every array index is masked to the (power-of-two) array length, so no
  access can leave its region,
* it stays far inside the compiler's block-shape envelope (≤128 body
  instructions, ≤32 LSIDs per block — the compiler splits oversized
  regions itself, and the generator's statement budget keeps single
  statements small enough to split).

The same ``(seed, GenConfig)`` pair always produces the identical
program — byte-identical under :func:`repro.tir.serialize.program_to_dict`
— which is what makes corpus entries and simlab cache keys meaningful.

Operator coverage is deliberately nasty: div/rem (including by zero and
INT64_MIN / −1), unmasked shift amounts, the full float menu (±0.0,
±inf, NaN, doubles beyond 2⁶³) and int↔float conversions, drawn from the
single-source-of-truth semantics in :mod:`repro.tir.semantics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import List, Optional

from ..serialize import dataclass_from_dict, dataclass_to_dict
from ..tir import (
    Array,
    Assign,
    BinOp,
    Const,
    Expr,
    For,
    If,
    Load,
    Stmt,
    Store,
    TirProgram,
    UnOp,
    V,
    While,
    float_to_bits,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: interesting integer constants, weighted into the random draw.
SPECIAL_INTS = [0, 1, -1, 2, -2, 7, 63, 64, 65, 127, 255,
                INT64_MIN, INT64_MAX, INT64_MIN + 1, 1 << 62, -(1 << 31)]

#: interesting doubles (as Python floats).
SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1.5e300, -1.5e300,
                  float("inf"), float("-inf"), float("nan"),
                  9.3e18,            # > 2**63: ftoi saturation territory
                  4503599627370497.0]

INT_BINOPS = ["add", "sub", "mul", "div", "rem",
              "and", "or", "xor", "shl", "shr", "sra",
              "eq", "ne", "lt", "le", "gt", "ge", "ltu", "geu"]
FLOAT_BINOPS = ["fadd", "fsub", "fmul", "fdiv"]
FCMP_OPS = ["flt", "fle", "fgt", "fge", "feq", "fne"]

INT_DTYPES = ["i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64"]


@dataclass(frozen=True)
class GenConfig:
    """Shape knobs for :func:`generate`.  Frozen so it can key caches."""

    max_top_stmts: int = 6        # statements in the program body
    max_block_stmts: int = 3      # statements per nested body
    max_expr_depth: int = 3
    max_loop_depth: int = 2
    max_trip: int = 4             # loop trip counts stay tiny
    array_lens: tuple = (8, 16)   # powers of two only (index masking)
    p_float: float = 0.30         # chance a statement works on floats
    p_nested: float = 0.45        # chance a statement is a loop/branch

    def to_dict(self) -> dict:
        return {**dataclass_to_dict(self),
                "array_lens": list(self.array_lens)}

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        data = dict(data)
        if "array_lens" in data:
            data["array_lens"] = tuple(data["array_lens"])
        return dataclass_from_dict(cls, data)


class _Gen:
    def __init__(self, rng: Random, config: GenConfig):
        self.rng = rng
        self.config = config
        self.int_arrays: List[str] = []
        self.float_arrays: List[str] = []
        self.int_vars: List[str] = []
        self.float_vars: List[str] = []
        self.loop_vars: List[str] = []   # in-scope loop counters (ints)
        self.array_lens = {}
        self.counter_id = 0

    # ---------------- leaves -------------------------------------------
    def int_const(self) -> Const:
        r = self.rng
        if r.random() < 0.5:
            return Const(r.choice(SPECIAL_INTS))
        if r.random() < 0.5:
            return Const(r.randint(-100, 100))
        return Const(r.getrandbits(64))

    def float_const(self) -> Const:
        r = self.rng
        if r.random() < 0.6:
            value = r.choice(SPECIAL_FLOATS)
        else:
            value = r.uniform(-1e6, 1e6)
        return Const(float_to_bits(value), is_float=True)

    def index(self, array: str, depth: int) -> Expr:
        """An index provably inside ``array``: ``expr & (len - 1)``."""
        mask = self.array_lens[array] - 1
        if depth <= 0 or self.rng.random() < 0.4:
            return Const(self.rng.randint(0, mask))
        return BinOp("and", self.int_expr(depth - 1), Const(mask))

    # ---------------- expressions --------------------------------------
    def int_expr(self, depth: int) -> Expr:
        r = self.rng
        if depth <= 0:
            roll = r.random()
            pool = self.int_vars + self.loop_vars
            if roll < 0.4 and pool:
                return V(r.choice(pool))
            if roll < 0.6 and self.int_arrays:
                arr = r.choice(self.int_arrays)
                return Load(arr, self.index(arr, 0))
            return self.int_const()
        roll = r.random()
        if roll < 0.55:
            return BinOp(r.choice(INT_BINOPS),
                         self.int_expr(depth - 1), self.int_expr(depth - 1))
        if roll < 0.65:
            return UnOp(r.choice(["not", "neg"]), self.int_expr(depth - 1))
        if roll < 0.75 and (self.float_vars or self.float_arrays):
            return UnOp("ftoi", self.float_expr(depth - 1))
        if roll < 0.85 and (self.float_vars or self.float_arrays):
            return BinOp(r.choice(FCMP_OPS),
                         self.float_expr(depth - 1),
                         self.float_expr(depth - 1))
        if roll < 0.92 and self.int_arrays:
            arr = r.choice(self.int_arrays)
            return Load(arr, self.index(arr, depth - 1))
        return self.int_expr(0)

    def float_expr(self, depth: int) -> Expr:
        r = self.rng
        if depth <= 0:
            roll = r.random()
            if roll < 0.4 and self.float_vars:
                return V(r.choice(self.float_vars))
            if roll < 0.6 and self.float_arrays:
                arr = r.choice(self.float_arrays)
                return Load(arr, self.index(arr, 0))
            return self.float_const()
        roll = r.random()
        if roll < 0.55:
            return BinOp(r.choice(FLOAT_BINOPS),
                         self.float_expr(depth - 1),
                         self.float_expr(depth - 1))
        if roll < 0.7:
            return UnOp("itof", self.int_expr(depth - 1))
        if roll < 0.85 and self.float_arrays:
            arr = r.choice(self.float_arrays)
            return Load(arr, self.index(arr, depth - 1))
        return self.float_expr(0)

    # ---------------- statements ----------------------------------------
    def simple_stmt(self, depth: int) -> Stmt:
        r = self.rng
        use_float = r.random() < self.config.p_float and (
            self.float_vars or self.float_arrays)
        edepth = r.randint(1, self.config.max_expr_depth)
        if use_float:
            if r.random() < 0.5 and self.float_arrays:
                arr = r.choice(self.float_arrays)
                return Store(arr, self.index(arr, 1), self.float_expr(edepth))
            if self.float_vars:
                return Assign(r.choice(self.float_vars),
                              self.float_expr(edepth))
        if r.random() < 0.35 and self.int_arrays:
            arr = r.choice(self.int_arrays)
            return Store(arr, self.index(arr, 1), self.int_expr(edepth))
        return Assign(r.choice(self.int_vars), self.int_expr(edepth))

    def stmt(self, loop_depth: int) -> Stmt:
        r = self.rng
        if loop_depth < self.config.max_loop_depth and \
                r.random() < self.config.p_nested:
            kind = r.random()
            if kind < 0.45:
                return self.for_stmt(loop_depth)
            if kind < 0.65:
                return self.while_stmt(loop_depth)
            return self.if_stmt(loop_depth)
        return self.simple_stmt(loop_depth)

    def body(self, loop_depth: int, max_stmts: Optional[int] = None) \
            -> List[Stmt]:
        n = self.rng.randint(1, max_stmts or self.config.max_block_stmts)
        return [self.stmt(loop_depth) for _ in range(n)]

    def for_stmt(self, loop_depth: int) -> For:
        r = self.rng
        var = f"i{loop_depth}_{self.counter_id}"
        self.counter_id += 1
        trip = r.randint(1, self.config.max_trip)
        step = r.choice([1, 1, 2, -1])
        start = r.randint(-3, 3)
        stop = start + trip * step
        self.loop_vars.append(var)
        try:
            body = self.body(loop_depth + 1)
        finally:
            self.loop_vars.pop()
        return For(var, Const(start), Const(stop), step, body)

    def while_stmt(self, loop_depth: int) -> List[Stmt]:
        # A While that provably terminates: its own down-counter, drawn
        # from a namespace the statement generator never assigns to.
        r = self.rng
        ctr = f"w{self.counter_id}"
        self.counter_id += 1
        trip = r.randint(1, self.config.max_trip)
        body = self.body(loop_depth + 1)
        body.append(Assign(ctr, BinOp("sub", V(ctr), Const(1))))
        return _Seq([Assign(ctr, Const(trip)),
                     While(BinOp("gt", V(ctr), Const(0)), body)])

    def if_stmt(self, loop_depth: int) -> If:
        r = self.rng
        cond = self.int_expr(r.randint(1, 2))
        then_body = self.body(loop_depth + 1)
        else_body = self.body(loop_depth + 1) if r.random() < 0.6 else []
        return If(cond, then_body, else_body)


class _Seq(Stmt):
    """Internal marker: a statement that expands to a sequence."""

    def __init__(self, stmts: List[Stmt]):
        self.stmts = stmts


def _flatten(stmts: List[Stmt]) -> List[Stmt]:
    out: List[Stmt] = []
    for s in stmts:
        if isinstance(s, _Seq):
            out.extend(_flatten(s.stmts))
        else:
            if isinstance(s, For) or isinstance(s, While):
                s.body = _flatten(s.body)
            elif isinstance(s, If):
                s.then_body = _flatten(s.then_body)
                s.else_body = _flatten(s.else_body)
            out.append(s)
    return out


def generate(seed: int, config: GenConfig = GenConfig()) -> TirProgram:
    """The deterministic program for ``(seed, config)``."""
    rng = Random(seed)
    g = _Gen(rng, config)

    arrays = {}
    n_int_arrays = rng.randint(1, 2)
    for i in range(n_int_arrays):
        name = f"a{i}"
        dtype = rng.choice(INT_DTYPES)
        length = rng.choice(config.array_lens)
        data = [rng.choice(SPECIAL_INTS) if rng.random() < 0.4
                else rng.randint(-128, 127) for _ in range(length)]
        arrays[name] = Array(dtype, data)
        g.int_arrays.append(name)
        g.array_lens[name] = length
    if rng.random() < 0.6:
        length = rng.choice(config.array_lens)
        data = [rng.choice(SPECIAL_FLOATS) if rng.random() < 0.5
                else rng.uniform(-100.0, 100.0) for _ in range(length)]
        arrays["fa"] = Array("f64", data)
        g.float_arrays.append("fa")
        g.array_lens["fa"] = length

    scalars = {}
    for i in range(rng.randint(2, 4)):
        name = f"v{i}"
        scalars[name] = rng.choice(SPECIAL_INTS) if rng.random() < 0.4 \
            else rng.randint(-64, 64)
        g.int_vars.append(name)
    if g.float_arrays or rng.random() < 0.4:
        for i in range(rng.randint(1, 2)):
            name = f"f{i}"
            value = rng.choice(SPECIAL_FLOATS) if rng.random() < 0.5 \
                else rng.uniform(-50.0, 50.0)
            scalars[name] = float_to_bits(value)
            g.float_vars.append(name)

    body = _flatten([g.stmt(0)
                     for _ in range(rng.randint(2, config.max_top_stmts))])

    prog = TirProgram(
        name=f"fuzz_{seed:08x}",
        arrays=arrays,
        scalars=scalars,
        body=body,
        outputs=sorted(arrays) + sorted(scalars),
    )
    prog.validate()
    return prog
