"""The Protection Table (paper §3.1.1, Fig. 2).

A flat, physically indexed table with a read bit and a write bit for every
physical page number, resident in (simulated) physical memory. For a page
size of 4 KB this costs 2 bits per 4 KB page = 0.006% of physical memory
per active accelerator — 1 MB for a 16 GB system.

Layout (Fig. 2): the 2-bit field for PPN ``p`` lives at byte offset
``p >> 2``, bit offset ``2 * (p & 3)``; bit 0 of the field is Read, bit 1
is Write. A 128-byte memory block therefore holds permissions for 512
pages, which is what gives the Border Control Cache its reach (§3.1.2).

The table is addressed through *base* and *bounds* registers the OS
programs at process initialization (§3.2.1); any checked physical address
at or beyond the bounds is out of range and the access is refused.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.core.permissions import PERM_BY_VALUE, Perm
from repro.errors import ConfigurationError
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE, align_up
from repro.mem.phys_memory import PhysicalMemory
from repro.vm.frame_allocator import FrameAllocator

__all__ = ["ProtectionTable"]

PAGES_PER_BYTE = 4
PAGES_PER_BLOCK = BLOCK_SIZE * PAGES_PER_BYTE  # 512


class ProtectionTable:
    """One accelerator's Protection Table, resident in physical memory."""

    def __init__(
        self,
        phys: PhysicalMemory,
        base_paddr: int,
        covered_pages: int,
    ) -> None:
        if base_paddr % PAGE_SIZE:
            raise ConfigurationError("protection table base must be page aligned")
        if covered_pages <= 0:
            raise ConfigurationError("protection table must cover at least one page")
        self.phys = phys
        self.base_paddr = base_paddr  # the base register
        self.covered_pages = covered_pages  # the bounds register (in pages)
        self.size_bytes = align_up(
            (covered_pages + PAGES_PER_BYTE - 1) // PAGES_PER_BYTE, PAGE_SIZE
        )
        if not phys.contains(base_paddr, self.size_bytes):
            raise ConfigurationError("protection table does not fit in memory")

    # -- allocation helpers ----------------------------------------------------

    @classmethod
    def allocate(
        cls,
        phys: PhysicalMemory,
        allocator: FrameAllocator,
        covered_pages: Optional[int] = None,
    ) -> "ProtectionTable":
        """OS path: carve a zeroed, contiguous region and build the table.

        By default the table covers all of physical memory, as the paper's
        bounds register is set to "the size of physical memory" (§3.2.1).
        """
        pages = covered_pages if covered_pages is not None else phys.num_frames
        nbytes = align_up((pages + PAGES_PER_BYTE - 1) // PAGES_PER_BYTE, PAGE_SIZE)
        frames = nbytes // PAGE_SIZE
        base_ppn = allocator.alloc_contiguous(frames, zero=True)
        table = cls(phys, base_ppn << PAGE_SHIFT, pages)
        table._frames = (base_ppn, frames)  # type: ignore[attr-defined]
        return table

    def deallocate(self, allocator: FrameAllocator) -> None:
        """Return the table's frames to the OS (process completion, §3.2.5)."""
        frames: Optional[Tuple[int, int]] = getattr(self, "_frames", None)
        if frames is None:
            raise ConfigurationError("table was not allocator-backed")
        base_ppn, count = frames
        allocator.free_contiguous(base_ppn, count)
        self._frames = None  # type: ignore[attr-defined]

    # -- bounds ---------------------------------------------------------------

    def covers(self, ppn: int) -> bool:
        """The bounds-register check applied before any table access (§3.2.3)."""
        return 0 <= ppn < self.covered_pages

    # -- single-page access ------------------------------------------------------

    def _field_addr(self, ppn: int) -> Tuple[int, int]:
        return self.base_paddr + (ppn >> 2), 2 * (ppn & 3)

    def get(self, ppn: int) -> Perm:
        """Read the 2-bit permission field for one physical page."""
        if not self.covers(ppn):
            return Perm.NONE
        addr, shift = self._field_addr(ppn)
        return PERM_BY_VALUE[(self.phys.read_u8(addr) >> shift) & 0x3]

    def set(self, ppn: int, perms: Perm) -> None:
        """Overwrite the permission field for one physical page."""
        if not self.covers(ppn):
            raise ConfigurationError(f"ppn {ppn:#x} outside table bounds")
        addr, shift = self._field_addr(ppn)
        byte = self.phys.read_u8(addr)
        self.phys.write_u8(addr, (byte & ~(0x3 << shift)) | (int(perms) << shift))

    def grant(self, ppn: int, perms: Perm) -> bool:
        """OR permissions into a page's field (insertion is monotonic up,
        §3.2.2; union across co-scheduled processes, §3.3). Returns True if
        the stored field changed."""
        old = self.get(ppn)
        new = old.union(perms)
        if new != old:
            self.set(ppn, new)
            return True
        return False

    def revoke(self, ppn: int) -> None:
        """Clear a page's field (selective downgrade path, §3.2.4)."""
        self.set(ppn, Perm.NONE)

    # -- block access (what the BCC fetches) ----------------------------------------

    def block_index_of(self, ppn: int) -> int:
        return ppn // PAGES_PER_BLOCK

    def read_block(self, block_index: int) -> bytes:
        """Read one 128 B table block (permissions for 512 pages)."""
        addr = self.base_paddr + block_index * BLOCK_SIZE
        return self.phys.read(addr, BLOCK_SIZE)

    def read_bits(self, start_ppn: int, count: int) -> int:
        """Permissions for ``count`` consecutive pages as a packed integer.

        Page ``start_ppn + i`` occupies bits ``[2i, 2i+2)`` of the result.
        Used by Border Control Cache fills at arbitrary entry granularity.
        """
        if count <= 0:
            return 0
        first_byte = start_ppn >> 2
        last_byte = (start_ppn + count - 1) >> 2
        raw = self.phys.read(self.base_paddr + first_byte, last_byte - first_byte + 1)
        packed = int.from_bytes(raw, "little")
        packed >>= 2 * (start_ppn & 3)
        return packed & ((1 << (2 * count)) - 1)

    # -- bulk operations -----------------------------------------------------------

    def zero(self) -> None:
        """Zero the whole table — revoking every permission (§3.2.4-5)."""
        self.phys.zero_range(self.base_paddr, self.size_bytes)

    def populated(self) -> Iterator[Tuple[int, Perm]]:
        """Iterate (ppn, perms) for pages with any permission set."""
        # One bulk read instead of size_bytes single-byte reads, and the
        # (usually huge) all-zero tail is dropped at C speed — this runs
        # after every step of the lockstep verifier.
        data = self.phys.read(self.base_paddr, self.size_bytes).rstrip(b"\x00")
        for byte_index, byte in enumerate(data):
            if not byte:
                continue
            for sub in range(4):
                field = (byte >> (2 * sub)) & 0x3
                if field:
                    ppn = byte_index * 4 + sub
                    if self.covers(ppn):
                        yield ppn, Perm(field)

    # -- reporting ----------------------------------------------------------------

    def storage_overhead_fraction(self) -> float:
        """Table bytes per byte of covered physical memory (paper: 0.006%)."""
        covered_bytes = self.covered_pages * PAGE_SIZE
        return self.size_bytes / covered_bytes

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ProtectionTable(base={self.base_paddr:#x}, "
            f"pages={self.covered_pages}, {self.size_bytes / 1024:g} KiB)"
        )
