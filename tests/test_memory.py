"""Unit + property tests for the sparse memory."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.func.memory import MemoryError_, SparseMemory

ALIGNED_ADDR = st.integers(min_value=0, max_value=0x7FFF_FFF0).map(lambda a: a & ~3)
WORD_VALUE = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestWords:
    def test_default_zero(self):
        assert SparseMemory().read_word(0x1000) == 0

    def test_write_read(self):
        mem = SparseMemory()
        mem.write_word(0x1000, 0x12345678)
        assert mem.read_word(0x1000) == 0x12345678

    def test_negative_roundtrip(self):
        mem = SparseMemory()
        mem.write_word(0x1000, -1)
        assert mem.read_word(0x1000) == -1

    def test_unaligned_raises(self):
        mem = SparseMemory()
        with pytest.raises(MemoryError_):
            mem.read_word(0x1001)
        with pytest.raises(MemoryError_):
            mem.write_word(0x1002, 1)

    def test_cross_page_bytes(self):
        mem = SparseMemory()
        mem.write_bytes(0xFFE, b"\x01\x02\x03\x04")
        assert mem.read_bytes(0xFFE, 4) == b"\x01\x02\x03\x04"

    def test_resident_accounting(self):
        mem = SparseMemory()
        assert mem.resident_bytes == 0
        mem.write_byte(0, 1)
        mem.write_byte(0x10_0000, 1)
        assert mem.resident_bytes == 2 * 4096

    @given(addr=ALIGNED_ADDR, value=WORD_VALUE)
    @settings(max_examples=60)
    def test_word_roundtrip_property(self, addr, value):
        mem = SparseMemory()
        mem.write_word(addr, value)
        assert mem.read_word(addr) == value


class TestHalvesAndBytes:
    def test_half_signed_unsigned(self):
        mem = SparseMemory()
        mem.write_half(0x2000, 0x8001)
        assert mem.read_half(0x2000, signed=False) == 0x8001
        assert mem.read_half(0x2000, signed=True) == 0x8001 - 0x10000

    def test_half_unaligned(self):
        with pytest.raises(MemoryError_):
            SparseMemory().read_half(0x2001)

    def test_byte_signed_unsigned(self):
        mem = SparseMemory()
        mem.write_byte(0x2000, 0xFF)
        assert mem.read_byte(0x2000, signed=False) == 255
        assert mem.read_byte(0x2000, signed=True) == -1

    def test_little_endian_word_assembly(self):
        mem = SparseMemory()
        for i, b in enumerate((0x78, 0x56, 0x34, 0x12)):
            mem.write_byte(0x3000 + i, b)
        assert mem.read_word(0x3000) == 0x12345678


class TestFloats:
    def test_float_roundtrip(self):
        mem = SparseMemory()
        mem.write_float(0x1000, 1.5)
        assert mem.read_float(0x1000) == 1.5

    def test_double_roundtrip(self):
        mem = SparseMemory()
        mem.write_double(0x1008, 3.141592653589793)
        assert mem.read_double(0x1008) == 3.141592653589793

    def test_double_alignment(self):
        with pytest.raises(MemoryError_):
            SparseMemory().read_double(0x1004)
        with pytest.raises(MemoryError_):
            SparseMemory().write_double(0x1004, 1.0)

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60)
    def test_double_roundtrip_property(self, value):
        mem = SparseMemory()
        mem.write_double(0x4000, value)
        assert mem.read_double(0x4000) == value

    def test_float32_rounds_inexact_value(self):
        mem = SparseMemory()
        mem.write_float(0x1000, 0.1)
        rounded = mem.read_float(0x1000)
        assert rounded != 0.1
        assert rounded == struct.unpack("<f", struct.pack("<f", 0.1))[0]

    def test_load_initial(self):
        mem = SparseMemory()
        mem.load_initial({0x1000: 0x78, 0x1001: 0x56, 0x1002: 0x34, 0x1003: 0x12})
        assert mem.read_word(0x1000) == 0x12345678


class TestAlignedFastPath:
    """Aligned accessors work in place on one page's bytearray."""

    def test_word_and_double_at_end_of_page(self):
        mem = SparseMemory()
        mem.write_word(0x5000 + 4092, -123456789)
        mem.write_double(0x6000 + 4088, -2.5)
        assert mem.read_word(0x5000 + 4092) == -123456789
        assert mem.read_double(0x6000 + 4088) == -2.5
        assert mem.read_bytes(0x5000 + 4092, 4) == struct.pack("<i", -123456789)
        assert mem.read_bytes(0x6000 + 4088, 8) == struct.pack("<d", -2.5)
        assert mem.resident_bytes == 2 * 4096  # no neighbouring page touched

    def test_untouched_page_reads_allocate_nothing(self):
        mem = SparseMemory()
        assert mem.read_word(0x7000) == 0
        assert mem.read_half(0x7002) == 0
        assert mem.read_half(0x7002, signed=False) == 0
        assert mem.read_byte(0x7003) == 0
        assert mem.read_float(0x7004) == 0.0
        assert mem.read_double(0x7008) == 0.0
        assert mem.resident_bytes == 0

    @pytest.mark.parametrize(
        "name,width,value",
        [("word", 4, 1), ("half", 2, 1), ("float", 4, 1.0), ("double", 8, 1.0)],
    )
    def test_every_misaligned_offset_raises(self, name, width, value):
        mem = SparseMemory()
        read = getattr(mem, f"read_{name}")
        write = getattr(mem, f"write_{name}")
        for offset in range(1, width):
            with pytest.raises(MemoryError_, match="unaligned"):
                read(0x1000 + offset)
            with pytest.raises(MemoryError_, match="unaligned"):
                write(0x1000 + offset, value)
        assert mem.resident_bytes == 0

    def test_half_sign_and_zero_extension(self):
        mem = SparseMemory()
        mem.write_half(0x2000 + 4094, -2)
        mem.write_half(0x2000 + 4092, 0x7FFF)
        assert mem.read_half(0x2000 + 4094, signed=True) == -2
        assert mem.read_half(0x2000 + 4094, signed=False) == 0xFFFE
        assert mem.read_half(0x2000 + 4092, signed=True) == 0x7FFF
        assert mem.read_half(0x2000 + 4092, signed=False) == 0x7FFF
