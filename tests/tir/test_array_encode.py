"""``Array.encode`` packs a whole array at once; it must produce exactly
the bytes of a per-element loop over the same data.

The reference below is that loop: each element reduced to its 64-bit
pattern (a float in an ``f64`` array by its IEEE-754 bits, anything else
by ``int``), masked to the element width and written little-endian.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tir.ir import DTYPE_SIZE, Array, bits_to_float, float_to_bits, \
    int_to_bits


def reference_encode(arr: Array) -> bytes:
    out = bytearray()
    for value in arr.data:
        bits = float_to_bits(value) if arr.dtype == "f64" and \
            isinstance(value, float) else int_to_bits(int(value))
        out += (bits & ((1 << (8 * arr.elem_size)) - 1)).to_bytes(
            arr.elem_size, "little")
    return bytes(out)


def _int_lists(size: int):
    bits = 8 * size
    return st.one_of(
        # every element in the unsigned range, or every one in the signed
        # range: the packed paths
        st.lists(st.integers(0, (1 << bits) - 1), max_size=40),
        st.lists(st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1),
                 max_size=40),
        # negative values beside patterns >= 2**63, and values wider than
        # 64 bits: each must keep its low bytes
        st.lists(st.one_of(st.integers(-(1 << 70), 1 << 70),
                           st.integers(1 << 63, (1 << 64) - 1),
                           st.integers(-(1 << 63), -1)), max_size=40),
    )


#: floats including -0.0, infinities and NaNs with arbitrary payloads
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0]),
    st.integers(0, (1 << 64) - 1).map(bits_to_float),
)

#: f64 data: all floats, all int patterns, or the two mixed
_f64_lists = st.one_of(
    st.lists(_floats, max_size=40),
    _int_lists(8),
    st.lists(st.one_of(_floats, st.integers(-(1 << 64), 1 << 65)),
             max_size=40),
)

_cases = st.sampled_from(sorted(DTYPE_SIZE)).flatmap(
    lambda dtype: st.tuples(
        st.just(dtype),
        _f64_lists if dtype == "f64" else _int_lists(DTYPE_SIZE[dtype])))


@settings(max_examples=400, deadline=None)
@given(_cases)
def test_encode_matches_per_element_loop(case):
    dtype, data = case
    arr = Array(dtype, data)
    assert arr.encode() == reference_encode(arr)


@given(st.sampled_from(sorted(set(DTYPE_SIZE) - {"f64"})),
       st.lists(st.one_of(st.floats(-1e15, 1e15), st.integers(-9, 9)),
                max_size=20))
def test_floats_in_integer_arrays_truncate(dtype, data):
    arr = Array(dtype, data)
    assert arr.encode() == reference_encode(arr)


def test_empty_arrays():
    for dtype in DTYPE_SIZE:
        assert Array(dtype, []).encode() == b""


def test_patterns_are_little_endian_and_exact():
    assert Array("u16", [0x1234]).encode() == b"\x34\x12"
    assert Array("i8", [-1, 255, 256 + 7]).encode() == b"\xff\xff\x07"
    assert Array("i64", [1 << 63, -1]).encode() == \
        struct.pack("<QQ", 1 << 63, (1 << 64) - 1)
    nan = bits_to_float(0x7FF0000000000001)       # a signalling payload
    assert Array("f64", [nan, -0.0, 0x7FF8000000000005]).encode() == \
        struct.pack("<QQQ", 0x7FF0000000000001, 1 << 63,
                    0x7FF8000000000005)
    assert float_to_bits(-0.0) == 1 << 63
