"""Byte-addressable physical memory with real backing data.

The functional model stores actual bytes so that safety properties are
observable end to end: a secret written by one process is *really there*
in physical memory, and a blocked border crossing *really* fails to read
it. Storage is allocated lazily at frame (4 KB) granularity so a 16 GB
simulated address space costs only what is touched.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Tuple

from repro.errors import UnmappedAddressError
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE, ppn_of

__all__ = ["PhysicalMemory"]

_U64 = struct.Struct("<Q")
_U64_MASK = 2**64 - 1
# Highest in-frame offset at which a u64 does not straddle into the next frame.
_LAST_U64_OFFSET = PAGE_SIZE - 8


class PhysicalMemory:
    """Lazily backed simulated physical memory.

    Reads of never-written frames return zeros (DRAM content after the OS
    scrubs a frame); writes allocate the frame's backing store on demand.
    Accesses beyond ``size`` raise :class:`UnmappedAddressError` — physical
    memory has a hard top, which is what Border Control's bounds register
    checks against.
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError("physical memory size must be a positive multiple of 4 KB")
        self.size = size
        self.num_frames = size >> PAGE_SHIFT
        self._frames: Dict[int, bytearray] = {}

    # -- bounds ------------------------------------------------------------

    def contains(self, paddr: int, length: int = 1) -> bool:
        return 0 <= paddr and paddr + length <= self.size

    def _check(self, paddr: int, length: int) -> None:
        if length < 0:
            raise ValueError("negative access length")
        if not self.contains(paddr, max(1, length)):
            raise UnmappedAddressError(
                f"physical access [{paddr:#x}, +{length}) beyond top of memory "
                f"({self.size:#x})"
            )

    # -- data access ---------------------------------------------------------

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical address ``paddr``."""
        self._check(paddr, length)
        out = bytearray(length)
        pos = 0
        addr = paddr
        while pos < length:
            frame = ppn_of(addr)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - offset)
            backing = self._frames.get(frame)
            if backing is not None:
                out[pos : pos + chunk] = backing[offset : offset + chunk]
            pos += chunk
            addr += chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` starting at physical address ``paddr``."""
        self._check(paddr, len(data))
        pos = 0
        addr = paddr
        length = len(data)
        while pos < length:
            frame = ppn_of(addr)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - offset)
            backing = self._frames.get(frame)
            if backing is None:
                backing = bytearray(PAGE_SIZE)
                self._frames[frame] = backing
            backing[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk
            addr += chunk

    # -- word helpers ---------------------------------------------------------
    #
    # Page-table entries and Protection Table fields are read one word or
    # byte at a time. When the access lies inside one frame these index the
    # frame's backing directly; a never-written frame reads as 0 without
    # allocating backing. Anything else (straddling frames, out of bounds)
    # takes the generic path, which raises the same errors.

    def read_u64(self, paddr: int) -> int:
        if 0 <= paddr <= self.size - 8 and paddr & (PAGE_SIZE - 1) <= _LAST_U64_OFFSET:
            backing = self._frames.get(paddr >> PAGE_SHIFT)
            if backing is None:
                return 0
            return _U64.unpack_from(backing, paddr & (PAGE_SIZE - 1))[0]
        return int.from_bytes(self.read(paddr, 8), "little")

    def write_u64(self, paddr: int, value: int) -> None:
        if 0 <= paddr <= self.size - 8 and paddr & (PAGE_SIZE - 1) <= _LAST_U64_OFFSET:
            frame = paddr >> PAGE_SHIFT
            backing = self._frames.get(frame)
            if backing is None:
                backing = self._frames[frame] = bytearray(PAGE_SIZE)
            _U64.pack_into(backing, paddr & (PAGE_SIZE - 1), value & _U64_MASK)
        else:
            self.write(paddr, (value & _U64_MASK).to_bytes(8, "little"))

    def read_u8(self, paddr: int) -> int:
        if not 0 <= paddr < self.size:
            self._check(paddr, 1)
        backing = self._frames.get(paddr >> PAGE_SHIFT)
        return 0 if backing is None else backing[paddr & (PAGE_SIZE - 1)]

    def write_u8(self, paddr: int, value: int) -> None:
        if not 0 <= paddr < self.size:
            self._check(paddr, 1)
        frame = paddr >> PAGE_SHIFT
        backing = self._frames.get(frame)
        if backing is None:
            backing = self._frames[frame] = bytearray(PAGE_SIZE)
        backing[paddr & (PAGE_SIZE - 1)] = value

    # -- frame management -------------------------------------------------------

    def zero_range(self, paddr: int, length: int) -> None:
        """Zero ``[paddr, paddr+length)``, dropping fully covered frames."""
        if length == PAGE_SIZE and not paddr & (PAGE_SIZE - 1) and 0 <= paddr < self.size:
            self._frames.pop(paddr >> PAGE_SHIFT, None)  # exactly one frame
            return
        self._check(paddr, length)
        end = paddr + length
        addr = paddr
        while addr < end:
            frame = ppn_of(addr)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(end - addr, PAGE_SIZE - offset)
            if chunk == PAGE_SIZE:
                self._frames.pop(frame, None)
            else:
                backing = self._frames.get(frame)
                if backing is not None:
                    backing[offset : offset + chunk] = bytes(chunk)
            addr += chunk

    def reset(self) -> None:
        """Warm-reuse reset: drop all backing store (all-zero memory)."""
        self._frames.clear()

    def touched_frames(self) -> Iterator[Tuple[int, bytearray]]:
        """Iterate over (frame number, backing) for frames ever written."""
        return iter(sorted(self._frames.items()))

    @property
    def resident_bytes(self) -> int:
        """Host-side memory actually allocated for backing store."""
        return len(self._frames) * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PhysicalMemory(size={self.size / 2**20:g} MiB, "
            f"resident={self.resident_bytes / 2**20:g} MiB)"
        )
