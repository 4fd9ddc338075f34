"""Single source of truth for operator semantics on 64-bit patterns.

Shared by the TIR interpreter, the TRIPS execution tiles and the baseline
core's ALU so that all three produce bit-identical results.

Conventions:

* integers are 64-bit two's complement; arithmetic wraps,
* shift amounts are taken mod 64,
* signed division truncates toward zero; division by zero yields 0 and
  remainder by zero yields the dividend (a defined, testable behaviour in
  place of a fault, since the workload suite never divides by zero),
* comparisons produce 0 or 1,
* ``f*`` operators reinterpret patterns as IEEE doubles.
"""

from __future__ import annotations

import math

from .ir import MASK64, TirError, bits_to_float, bits_to_int, float_to_bits, int_to_bits


def _fdiv(x: float, y: float) -> float:
    if y == 0.0:
        # IEEE-754: 0/0 and nan/0 are nan; x/±0 is ±inf with the sign of
        # x*y, so the *sign* of a zero divisor matters (1.0/-0.0 == -inf).
        if x != x or x == 0.0:
            return float("nan")
        return math.copysign(float("inf"), x) * math.copysign(1.0, y)
    return x / y


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _sdiv(a, b) * b


def _sra(a: int, b: int) -> int:
    a &= MASK64
    return ((a - ((a >> 63) << 64)) >> (b & 63)) & MASK64


def _ftoi(a: int) -> int:
    f = bits_to_float(a)
    if f != f or f in (float("inf"), float("-inf")):
        return 0
    return int_to_bits(int(f))


# XOR with the sign bit turns a signed comparison of patterns into an
# unsigned one.
_SIGN = 1 << 63

#: binary operator name -> its function on two 64-bit patterns.  Each
#: function masks what it reads, so any Python int is a valid operand;
#: the ISA's per-opcode ALU evaluators bind these functions directly.
BINOPS = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "mul": lambda a, b: (a * b) & MASK64,
    "and": lambda a, b: a & b & MASK64,
    "or": lambda a, b: (a | b) & MASK64,
    "xor": lambda a, b: (a ^ b) & MASK64,
    "shl": lambda a, b: (a << (b & 63)) & MASK64,
    "shr": lambda a, b: (a & MASK64) >> (b & 63),
    "sra": _sra,
    "div": lambda a, b: int_to_bits(_sdiv(bits_to_int(a), bits_to_int(b))),
    "rem": lambda a, b: int_to_bits(_srem(bits_to_int(a), bits_to_int(b))),
    "eq": lambda a, b: 1 if a & MASK64 == b & MASK64 else 0,
    "ne": lambda a, b: 1 if a & MASK64 != b & MASK64 else 0,
    "lt": lambda a, b: 1 if (a & MASK64) ^ _SIGN < (b & MASK64) ^ _SIGN else 0,
    "le": lambda a, b: 1 if (a & MASK64) ^ _SIGN <= (b & MASK64) ^ _SIGN else 0,
    "gt": lambda a, b: 1 if (a & MASK64) ^ _SIGN > (b & MASK64) ^ _SIGN else 0,
    "ge": lambda a, b: 1 if (a & MASK64) ^ _SIGN >= (b & MASK64) ^ _SIGN else 0,
    "ltu": lambda a, b: 1 if a & MASK64 < b & MASK64 else 0,
    "geu": lambda a, b: 1 if a & MASK64 >= b & MASK64 else 0,
    "fadd": lambda a, b: float_to_bits(bits_to_float(a) + bits_to_float(b)),
    "fsub": lambda a, b: float_to_bits(bits_to_float(a) - bits_to_float(b)),
    "fmul": lambda a, b: float_to_bits(bits_to_float(a) * bits_to_float(b)),
    "fdiv": lambda a, b: float_to_bits(_fdiv(bits_to_float(a),
                                             bits_to_float(b))),
    "feq": lambda a, b: 1 if bits_to_float(a) == bits_to_float(b) else 0,
    "fne": lambda a, b: 1 if bits_to_float(a) != bits_to_float(b) else 0,
    "flt": lambda a, b: 1 if bits_to_float(a) < bits_to_float(b) else 0,
    "fle": lambda a, b: 1 if bits_to_float(a) <= bits_to_float(b) else 0,
    "fgt": lambda a, b: 1 if bits_to_float(a) > bits_to_float(b) else 0,
    "fge": lambda a, b: 1 if bits_to_float(a) >= bits_to_float(b) else 0,
}

#: unary operator name -> its function on a 64-bit pattern.
UNOPS = {
    "not": lambda a: ~a & MASK64,
    "neg": lambda a: -a & MASK64,
    "itof": lambda a: float_to_bits(float(bits_to_int(a))),
    "ftoi": _ftoi,
}


def binop(op: str, a: int, b: int) -> int:
    """Apply binary operator ``op`` to two 64-bit patterns."""
    fn = BINOPS.get(op)
    if fn is None:
        raise TirError(f"unknown binop {op!r}")
    return fn(a, b)


def unop(op: str, a: int) -> int:
    """Apply unary operator ``op`` to a 64-bit pattern."""
    fn = UNOPS.get(op)
    if fn is None:
        raise TirError(f"unknown unop {op!r}")
    return fn(a)


def truncate_load(bits: int, size: int, signed: bool) -> int:
    """Model a ``size``-byte load of the low bytes of ``bits``."""
    mask = (1 << (8 * size)) - 1
    value = bits & mask
    if signed and value >> (8 * size - 1):
        value -= 1 << (8 * size)
    return int_to_bits(value)
