"""Flat byte-addressable backing store.

Used directly by the functional simulator and the baseline core, and as the
DRAM behind the NUCA cache hierarchy in the detailed model.  Storage is a
dict of 4KB pages allocated on first touch, so sparse address spaces (code
at 0x1000, data at 0x100000) cost nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

#: address ``a`` lives at offset ``a & PAGE_MASK`` of page ``a >> PAGE_SHIFT``
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class BackingStore:
    """Sparse 64-bit byte-addressable memory, little-endian."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        #: ``peek_page(page_no)``: that page's bytes, or None if it was
        #: never touched.  It never allocates; it is the page dict's own
        #: ``get``, so an in-line reader pays no extra call.
        self.peek_page = self._pages.get

    def _page(self, address: int) -> bytearray:
        page_no = address >> PAGE_SHIFT
        page = self._pages.get(page_no)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_no] = page
        return page

    # ------------------------------------------------------------------
    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes as an unsigned little-endian integer."""
        if size <= 0:
            raise ValueError("size must be positive")
        end_page = (address + size - 1) >> PAGE_SHIFT
        if end_page == address >> PAGE_SHIFT:
            off = address & PAGE_MASK
            return int.from_bytes(self._page(address)[off:off + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    def write(self, address: int, value: int, size: int) -> None:
        """Write the low ``size`` bytes of ``value``, little-endian."""
        if size <= 0:
            raise ValueError("size must be positive")
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        off = address & PAGE_MASK
        if off + size <= PAGE_SIZE:
            self._page(address)[off:off + size] = data
        else:
            self.write_bytes(address, data)

    def read_bytes(self, address: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            off = address & PAGE_MASK
            chunk = min(size, PAGE_SIZE - off)
            out += self._page(address)[off:off + chunk]
            address += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            off = (address + pos) & PAGE_MASK
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            self._page(address + pos)[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk

    # ------------------------------------------------------------------
    def load_image(self, image: Mapping[int, bytes]) -> None:
        """Install a program's memory image (address -> bytes)."""
        for address, payload in image.items():
            self.write_bytes(address, payload)

    def touched_pages(self) -> Iterable[Tuple[int, bytes]]:
        """All allocated pages, for snapshot/diff in tests."""
        for page_no in sorted(self._pages):
            yield page_no << PAGE_SHIFT, bytes(self._pages[page_no])
