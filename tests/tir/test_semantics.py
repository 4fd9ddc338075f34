"""Property and unit tests for the shared 64-bit operator semantics."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from repro.tir import bits_to_float, bits_to_int, float_to_bits, int_to_bits
from repro.tir import semantics
from repro.tir.ir import MASK64
from repro.tir.semantics import binop, truncate_load, unop

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestIntOps:
    @given(u64, u64)
    def test_add_wraps(self, a, b):
        assert binop("add", a, b) == (a + b) % (1 << 64)

    @given(u64, u64)
    def test_sub_add_inverse(self, a, b):
        assert binop("add", binop("sub", a, b), b) == a

    @given(i64, i64)
    def test_signed_compare_matches_python(self, a, b):
        ab, bb = int_to_bits(a), int_to_bits(b)
        assert binop("lt", ab, bb) == int(a < b)
        assert binop("ge", ab, bb) == int(a >= b)
        assert binop("eq", ab, bb) == int(a == b)

    @given(u64, u64)
    def test_unsigned_compare(self, a, b):
        assert binop("ltu", a, b) == int(a < b)
        assert binop("geu", a, b) == int(a >= b)

    @given(u64, st.integers(min_value=0, max_value=63))
    def test_shl_shr_roundtrip_low_bits(self, a, s):
        low = a & ((1 << (64 - s)) - 1)
        assert binop("shr", binop("shl", low, s), s) == low

    @given(i64, st.integers(min_value=0, max_value=63))
    def test_sra_matches_python_floor_shift(self, a, s):
        assert bits_to_int(binop("sra", int_to_bits(a), s)) == a >> s

    @given(i64, i64)
    def test_div_truncates_toward_zero(self, a, b):
        got = bits_to_int(binop("div", int_to_bits(a), int_to_bits(b)))
        if b == 0:
            assert got == 0
        else:
            expect = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                expect = -expect
            assert got == int_to_bits_saturate(expect)

    @given(i64, i64)
    def test_div_rem_identity(self, a, b):
        if b == 0:
            return
        q = bits_to_int(binop("div", int_to_bits(a), int_to_bits(b)))
        r = bits_to_int(binop("rem", int_to_bits(a), int_to_bits(b)))
        assert bits_to_int(int_to_bits(q * b + r)) == a

    @given(u64)
    def test_not_involution(self, a):
        assert unop("not", unop("not", a)) == a

    @given(u64)
    def test_neg_is_zero_minus(self, a):
        assert unop("neg", a) == binop("sub", 0, a)


def int_to_bits_saturate(v):
    """Helper: -2^63 // -1 overflows; we define wrapping semantics."""
    return bits_to_int(int_to_bits(v))


class TestFloatOps:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_fadd_matches_ieee(self, x, y):
        got = bits_to_float(binop("fadd", float_to_bits(x), float_to_bits(y)))
        assert got == x + y or (math.isnan(got) and math.isnan(x + y))

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_float_bits_roundtrip(self, x):
        assert bits_to_float(float_to_bits(x)) == x

    def test_fdiv_by_zero(self):
        inf = bits_to_float(binop("fdiv", float_to_bits(1.0), float_to_bits(0.0)))
        assert math.isinf(inf) and inf > 0

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_fcmp(self, x, y):
        xb, yb = float_to_bits(x), float_to_bits(y)
        assert binop("flt", xb, yb) == int(x < y)
        assert binop("fge", xb, yb) == int(x >= y)

    @given(st.integers(min_value=-(1 << 52), max_value=1 << 52))
    def test_itof_ftoi_roundtrip_exact_range(self, n):
        assert bits_to_int(unop("ftoi", unop("itof", int_to_bits(n)))) == n


class TestTruncateLoad:
    @given(u64, st.sampled_from([1, 2, 4, 8]))
    def test_unsigned_truncation(self, bits, size):
        got = truncate_load(bits, size, signed=False)
        assert got == bits & ((1 << (8 * size)) - 1)

    @given(u64, st.sampled_from([1, 2, 4]))
    def test_signed_extension(self, bits, size):
        got = truncate_load(bits, size, signed=True)
        width = 8 * size
        raw = bits & ((1 << width) - 1)
        expect = raw - (1 << width) if raw >> (width - 1) else raw
        assert bits_to_int(got) == expect

    def test_full_width_signed_identity(self):
        assert truncate_load(2**64 - 1, 8, signed=True) == 2**64 - 1

    def test_unknown_ops_rejected(self):
        with pytest.raises(Exception):
            binop("bogus", 0, 0)
        with pytest.raises(Exception):
            unop("bogus", 0)


# ----------------------------------------------------------------------
# Reference: the masking if-chain that BINOPS/UNOPS replaced, written in
# terms of signed integers and doubles rather than patterns, so a slip in
# a table entry's masking or sign trick shows up as a mismatch.
def _reference_binop(op, a, b):
    a &= MASK64
    b &= MASK64
    sa, sb = bits_to_int(a), bits_to_int(b)
    fa, fb = bits_to_float(a), bits_to_float(b)
    ints = {"add": a + b, "sub": a - b, "mul": a * b, "and": a & b,
            "or": a | b, "xor": a ^ b, "shl": a << (b & 63),
            "shr": a >> (b & 63), "sra": sa >> (b & 63)}
    if op in ints:
        return int_to_bits(ints[op])
    cmps = {"eq": sa == sb, "ne": sa != sb, "lt": sa < sb, "le": sa <= sb,
            "gt": sa > sb, "ge": sa >= sb, "ltu": a < b, "geu": a >= b,
            "feq": fa == fb, "fne": fa != fb, "flt": fa < fb,
            "fle": fa <= fb, "fgt": fa > fb, "fge": fa >= fb}
    if op in cmps:
        return 1 if cmps[op] else 0
    if op in ("div", "rem"):
        if sb == 0:
            return 0 if op == "div" else a
        q = abs(sa) // abs(sb)
        q = -q if (sa < 0) != (sb < 0) else q
        return int_to_bits(q if op == "div" else sa - q * sb)
    if op == "fdiv" and fb == 0.0:
        if fa != fa or fa == 0.0:
            return float_to_bits(float("nan"))
        return float_to_bits(math.copysign(float("inf"), fa)
                             * math.copysign(1.0, fb))
    return float_to_bits({"fadd": lambda: fa + fb, "fsub": lambda: fa - fb,
                          "fmul": lambda: fa * fb,
                          "fdiv": lambda: fa / fb}[op]())


def _reference_unop(op, a):
    a &= MASK64
    if op == "not":
        return a ^ MASK64
    if op == "neg":
        return (-a) & MASK64
    if op == "itof":
        return float_to_bits(float(bits_to_int(a)))
    f = bits_to_float(a)
    if f != f or f in (float("inf"), float("-inf")):
        return 0
    return int_to_bits(int(f))


#: 0, 1, -1, INT64_MIN/MAX, shift counts at and past 64, NaN/+-0.0/+-inf
#: and ordinary doubles, plus unmasked Python ints (negative and wider
#: than 64 bits) to check that every entry masks what it reads
_GRID = [0, 1, int_to_bits(-1), 1 << 63, (1 << 63) - 1, 2, 7, 63, 64, 65,
         127, float_to_bits(float("nan")), float_to_bits(-0.0),
         float_to_bits(float("inf")), float_to_bits(float("-inf")),
         float_to_bits(1.5), float_to_bits(-2.5), float_to_bits(1e300),
         -1, -7, -(1 << 63), 1 << 64, (1 << 65) + 3]


class TestOperatorTable:
    def test_table_names_every_operator(self):
        assert set(semantics.BINOPS) == {
            "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sra",
            "div", "rem", "eq", "ne", "lt", "le", "gt", "ge", "ltu", "geu",
            "fadd", "fsub", "fmul", "fdiv",
            "feq", "fne", "flt", "fle", "fgt", "fge"}
        assert set(semantics.UNOPS) == {"not", "neg", "itof", "ftoi"}

    @pytest.mark.parametrize("op", sorted(semantics.BINOPS))
    def test_binop_matches_reference(self, op):
        for a, b in itertools.product(_GRID, _GRID):
            assert binop(op, a, b) == _reference_binop(op, a, b), (a, b)

    @pytest.mark.parametrize("op", sorted(semantics.UNOPS))
    def test_unop_matches_reference(self, op):
        for a in _GRID:
            assert unop(op, a) == _reference_unop(op, a), a
