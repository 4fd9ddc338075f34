"""Tests for the sparse backing store."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.backing import PAGE_SHIFT, PAGE_SIZE, BackingStore


class TestBackingStore:
    def test_zero_initialised(self):
        mem = BackingStore()
        assert mem.read(0x123456, 8) == 0

    def test_write_read_roundtrip(self):
        mem = BackingStore()
        mem.write(0x1000, 0xDEADBEEF, 4)
        assert mem.read(0x1000, 4) == 0xDEADBEEF
        assert mem.read(0x1002, 2) == 0xDEAD

    def test_cross_page_access(self):
        mem = BackingStore()
        mem.write(0xFFE, 0x11223344AABBCCDD, 8)
        assert mem.read(0xFFE, 8) == 0x11223344AABBCCDD
        assert mem.read(0x1000, 2) == 0xAABB  # bytes BB AA, little-endian

    def test_truncation_on_write(self):
        mem = BackingStore()
        mem.write(0x0, 0x1FF, 1)
        assert mem.read(0x0, 2) == 0xFF

    def test_load_image(self):
        mem = BackingStore()
        mem.load_image({0x100: b"\x01\x02", 0x5000: b"\xff"})
        assert mem.read(0x100, 2) == 0x0201
        assert mem.read(0x5000, 1) == 0xFF

    def test_peek_page_never_allocates(self):
        mem = BackingStore()
        assert mem.peek_page(0x100000 >> PAGE_SHIFT) is None
        assert list(mem.touched_pages()) == []
        mem.write(0x100008, 0xAB, 1)
        assert mem.peek_page(0x100000 >> PAGE_SHIFT)[8] == 0xAB

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BackingStore().read(0, 0)

    @given(st.integers(0, 2**20), st.integers(0, 2**64 - 1),
           st.sampled_from([1, 2, 4, 8]))
    def test_roundtrip_property(self, addr, value, size):
        mem = BackingStore()
        mem.write(addr, value, size)
        assert mem.read(addr, size) == value & ((1 << (8 * size)) - 1)

    @given(st.integers(0, 300),
           st.one_of(st.integers(0, PAGE_SIZE - 8),
                     st.integers(PAGE_SIZE - 7, PAGE_SIZE - 1)),
           st.integers(-2**80, 2**80), st.sampled_from([1, 2, 4, 8]))
    def test_write_matches_write_bytes(self, page_no, offset, value, size):
        """``write``'s one-page fast path and its fall-back across a page
        boundary store exactly what ``write_bytes`` does, over bytes
        already there, for values wider than the access."""
        address = (page_no << PAGE_SHIFT) + offset
        fast, ref = BackingStore(), BackingStore()
        for mem in (fast, ref):
            mem.write_bytes(max(0, address - 8), bytes(range(1, 25)))
        fast.write(address, value, size)
        ref.write_bytes(address, (value & ((1 << (8 * size)) - 1))
                        .to_bytes(size, "little"))
        assert list(fast.touched_pages()) == list(ref.touched_pages())
