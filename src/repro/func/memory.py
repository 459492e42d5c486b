"""Sparse byte-addressable memory for the functional simulator.

Memory is organised as fixed-size pages allocated on first touch, so a
program can scatter data across the 32-bit address space (text, static data,
heap, stack) without the simulator allocating 4 GiB.  All multi-byte
accesses are little-endian and must be naturally aligned, as on the R3000.
"""

from __future__ import annotations

import struct

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

_WORD = struct.Struct("<i")
_UWORD = struct.Struct("<I")
_HALF = struct.Struct("<h")
_UHALF = struct.Struct("<H")
_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")


class MemoryError_(Exception):
    """Raised on unaligned or otherwise illegal accesses."""


class SparseMemory:
    """Byte-addressable sparse memory with on-demand zero-filled pages."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, address: int) -> bytearray:
        number = address >> PAGE_SHIFT
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[number] = page
        return page

    @property
    def resident_bytes(self) -> int:
        """Bytes of backing store currently allocated."""
        return len(self._pages) * PAGE_SIZE

    def load_initial(self, data: dict[int, int]) -> None:
        """Install a Program's initialised-data image (addr -> byte)."""
        for address, value in data.items():
            self._page(address)[address & PAGE_MASK] = value & 0xFF

    # ------------------------------------------------------------ raw bytes

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray(length)
        for i in range(length):
            a = address + i
            page = self._pages.get(a >> PAGE_SHIFT)
            out[i] = page[a & PAGE_MASK] if page is not None else 0
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            a = address + i
            self._page(a)[a & PAGE_MASK] = byte

    # ------------------------------------------------------------ aligned
    # An aligned access of 8 bytes or fewer never crosses a page, so these
    # work in place on one page; reading an untouched page allocates nothing.

    def read_word(self, address: int) -> int:
        """Read a signed 32-bit word (naturally aligned)."""
        if address & 3:
            raise MemoryError_(f"unaligned word read at {address:#x}")
        page = self._pages.get(address >> PAGE_SHIFT)
        return 0 if page is None else _WORD.unpack_from(page, address & PAGE_MASK)[0]

    def write_word(self, address: int, value: int) -> None:
        if address & 3:
            raise MemoryError_(f"unaligned word write at {address:#x}")
        _UWORD.pack_into(self._page(address), address & PAGE_MASK, value & 0xFFFFFFFF)

    def read_half(self, address: int, signed: bool = True) -> int:
        if address & 1:
            raise MemoryError_(f"unaligned halfword read at {address:#x}")
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        return (_HALF if signed else _UHALF).unpack_from(page, address & PAGE_MASK)[0]

    def write_half(self, address: int, value: int) -> None:
        if address & 1:
            raise MemoryError_(f"unaligned halfword write at {address:#x}")
        _UHALF.pack_into(self._page(address), address & PAGE_MASK, value & 0xFFFF)

    def read_byte(self, address: int, signed: bool = True) -> int:
        page = self._pages.get(address >> PAGE_SHIFT)
        value = page[address & PAGE_MASK] if page is not None else 0
        if signed and value >= 0x80:
            value -= 0x100
        return value

    def write_byte(self, address: int, value: int) -> None:
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    def read_float(self, address: int) -> float:
        if address & 3:
            raise MemoryError_(f"unaligned float read at {address:#x}")
        page = self._pages.get(address >> PAGE_SHIFT)
        return 0.0 if page is None else _FLOAT.unpack_from(page, address & PAGE_MASK)[0]

    def write_float(self, address: int, value: float) -> None:
        if address & 3:
            raise MemoryError_(f"unaligned float write at {address:#x}")
        _FLOAT.pack_into(self._page(address), address & PAGE_MASK, value)

    def read_double(self, address: int) -> float:
        if address & 7:
            raise MemoryError_(f"unaligned double read at {address:#x}")
        page = self._pages.get(address >> PAGE_SHIFT)
        return 0.0 if page is None else _DOUBLE.unpack_from(page, address & PAGE_MASK)[0]

    def write_double(self, address: int, value: float) -> None:
        if address & 7:
            raise MemoryError_(f"unaligned double write at {address:#x}")
        _DOUBLE.pack_into(self._page(address), address & PAGE_MASK, value)
