"""Unit tests for the physical memory backing store."""

import pytest

from repro.errors import UnmappedAddressError
from repro.mem.phys_memory import PhysicalMemory

MB = 1024 * 1024


class TestConstruction:
    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(4097)
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_num_frames(self):
        assert PhysicalMemory(MB).num_frames == 256


class TestReadWrite:
    def test_unwritten_memory_reads_zero(self):
        phys = PhysicalMemory(MB)
        assert phys.read(0x1000, 16) == bytes(16)

    def test_roundtrip(self):
        phys = PhysicalMemory(MB)
        phys.write(0x2345, b"hello world")
        assert phys.read(0x2345, 11) == b"hello world"

    def test_cross_frame_write_and_read(self):
        phys = PhysicalMemory(MB)
        data = bytes(range(256)) * 40  # 10240 bytes, spans 3+ frames
        phys.write(0x0F00, data)
        assert phys.read(0x0F00, len(data)) == data

    def test_out_of_bounds_read(self):
        phys = PhysicalMemory(MB)
        with pytest.raises(UnmappedAddressError):
            phys.read(MB - 4, 8)

    def test_out_of_bounds_write(self):
        phys = PhysicalMemory(MB)
        with pytest.raises(UnmappedAddressError):
            phys.write(MB, b"x")

    def test_negative_length(self):
        phys = PhysicalMemory(MB)
        with pytest.raises(ValueError):
            phys.read(0, -1)

    def test_u64_helpers(self):
        phys = PhysicalMemory(MB)
        phys.write_u64(0x100, 0xDEADBEEF12345678)
        assert phys.read_u64(0x100) == 0xDEADBEEF12345678

    def test_u64_truncates_to_64_bits(self):
        phys = PhysicalMemory(MB)
        phys.write_u64(0, 2**64 + 5)
        assert phys.read_u64(0) == 5


class TestZeroRange:
    def test_zero_full_frame_drops_backing(self):
        phys = PhysicalMemory(MB)
        phys.write(0x1000, b"x" * 4096)
        assert phys.resident_bytes == 4096
        phys.zero_range(0x1000, 4096)
        assert phys.read(0x1000, 4096) == bytes(4096)
        assert phys.resident_bytes == 0

    def test_zero_partial_frame(self):
        phys = PhysicalMemory(MB)
        phys.write(0x1000, b"abcdef")
        phys.zero_range(0x1002, 2)
        assert phys.read(0x1000, 6) == b"ab\x00\x00ef"

    def test_zero_spanning_frames(self):
        phys = PhysicalMemory(MB)
        phys.write(0x0FF0, b"y" * 64)
        phys.zero_range(0x0FF0, 64)
        assert phys.read(0x0FF0, 64) == bytes(64)


class TestResidency:
    def test_lazy_allocation(self):
        phys = PhysicalMemory(64 * MB)
        assert phys.resident_bytes == 0
        phys.write(5 * MB, b"z")
        assert phys.resident_bytes == 4096

    def test_touched_frames_sorted(self):
        phys = PhysicalMemory(MB)
        phys.write(0x5000, b"b")
        phys.write(0x1000, b"a")
        frames = [f for f, _ in phys.touched_frames()]
        assert frames == [1, 5]

    def test_contains(self):
        phys = PhysicalMemory(MB)
        assert phys.contains(0)
        assert phys.contains(MB - 1)
        assert not phys.contains(MB)
        assert not phys.contains(MB - 1, 2)


class TestWordAndByteAccess:
    """The one-frame u64/u8 paths and their fall-backs to read/write."""

    def test_u64_at_last_in_frame_offset_touches_one_frame(self):
        phys = PhysicalMemory(MB)
        phys.write_u64(0x1000 + 4088, 0x0102030405060708)
        assert phys.resident_bytes == 4096
        assert phys.read_u64(0x1000 + 4088) == 0x0102030405060708
        assert phys.read(0x1000 + 4088, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])

    def test_u64_straddling_frames_round_trips(self):
        phys = PhysicalMemory(MB)
        phys.write_u64(0x1000 + 4092, 0x0102030405060708)
        assert phys.resident_bytes == 2 * 4096
        assert phys.read_u64(0x1000 + 4092) == 0x0102030405060708
        assert phys.read(0x2000, 4) == bytes([4, 3, 2, 1])

    def test_u64_at_top_of_memory(self):
        phys = PhysicalMemory(MB)
        phys.write_u64(MB - 8, 7)
        assert phys.read_u64(MB - 8) == 7
        for paddr in (MB - 4, MB, -8, -1):
            with pytest.raises(UnmappedAddressError):
                phys.read_u64(paddr)
            with pytest.raises(UnmappedAddressError):
                phys.write_u64(paddr, 1)

    def test_u8_bounds(self):
        phys = PhysicalMemory(MB)
        phys.write_u8(MB - 1, 0xAB)
        assert phys.read_u8(MB - 1) == 0xAB
        for paddr in (MB, -1):
            with pytest.raises(UnmappedAddressError):
                phys.read_u8(paddr)
            with pytest.raises(UnmappedAddressError):
                phys.write_u8(paddr, 1)

    def test_reading_unwritten_frames_allocates_nothing(self):
        phys = PhysicalMemory(MB)
        phys.write_u8(0, 1)
        assert phys.read_u64(0x3000) == 0
        assert phys.read_u64(0x3000 + 4092) == 0  # straddling, generic path
        assert phys.read_u8(0x5FFF) == 0
        assert phys.resident_bytes == 4096

    def test_protection_table_field_in_a_frames_last_byte(self):
        from repro.core.permissions import Perm
        from repro.core.protection_table import ProtectionTable

        phys = PhysicalMemory(64 * MB)  # 16384 pages: a 4 KB table
        table = ProtectionTable(phys, 0x1000, 16384)
        last = 4 * 4095 + 3  # highest 2-bit field of the table's only frame
        table.set(last, Perm.W)
        table.set(last - 1, Perm.R)
        assert table.get(last) is Perm.W
        assert table.get(last - 1) is Perm.R
        assert phys.read_u8(0x1000 + 4095) == 0b10_01_00_00
        assert phys.read_u8(0x2000) == 0  # the next frame is untouched
        assert phys.resident_bytes == 4096
