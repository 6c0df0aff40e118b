"""Sparse (demand-allocated) Protection Table — the paper's §3.1.1 aside.

    "We expect the Protection Table will often be sparsely populated and
    an alternate structure could be more spatially efficient (e.g., a
    tree), or it could be stored in system virtual memory and allocated
    upon demand. However, the flat layout has small enough overhead that
    we do not evaluate alternate layouts."

This module evaluates that alternate layout. The sparse table is a
two-level radix: a directory of chunk pointers (one 64-bit pointer per
*chunk* of pages) plus 4 KB permission chunks allocated from physical
memory on first grant. A chunk covers 16384 pages (4 KB x 4 pages/byte),
i.e. 64 MB of physical memory; an accelerator touching 100 MB of a 16 GB
machine needs two or three chunks instead of a 1 MB flat table.

Trade-offs vs. the flat table (measured in
``benchmarks/bench_ablation_sparse_table.py``):

* storage scales with the accelerator's footprint, not physical memory;
* lookups may need two memory accesses (directory, then chunk) instead
  of one, and the single-access guarantee the flat layout gives the
  checking hardware (§3.1.1) is lost;
* unpopulated chunks deny by construction, preserving the lazy-denial
  invariant.

The class is interface-compatible with
:class:`~repro.core.protection_table.ProtectionTable` (``get``/``set``/
``grant``/``revoke``/``read_bits``/``zero``/``covers``), so the BCC and
Border Control engine can run on either.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.permissions import PERM_BY_VALUE, Perm
from repro.errors import ConfigurationError
from repro.mem.address import PAGE_SHIFT, PAGE_SIZE
from repro.mem.phys_memory import PhysicalMemory
from repro.vm.frame_allocator import FrameAllocator

__all__ = ["SparseProtectionTable"]

PAGES_PER_BYTE = 4
CHUNK_BYTES = PAGE_SIZE  # one frame per chunk
PAGES_PER_CHUNK = CHUNK_BYTES * PAGES_PER_BYTE  # 16384 pages = 64 MB reach


class SparseProtectionTable:
    """Demand-allocated Protection Table (directory + 4 KB chunks)."""

    def __init__(
        self,
        phys: PhysicalMemory,
        allocator: FrameAllocator,
        covered_pages: Optional[int] = None,
    ) -> None:
        self.phys = phys
        self.allocator = allocator
        self.covered_pages = covered_pages if covered_pages is not None else phys.num_frames
        if self.covered_pages <= 0:
            raise ConfigurationError("table must cover at least one page")
        num_chunks = (self.covered_pages + PAGES_PER_CHUNK - 1) // PAGES_PER_CHUNK
        # The directory itself lives in physical memory: one u64 per chunk.
        dir_bytes = num_chunks * 8
        dir_frames = (dir_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        self._dir_base_ppn = allocator.alloc_contiguous(dir_frames, zero=True)
        self._dir_frames = dir_frames
        self.num_chunks = num_chunks
        # ppn of each chunk frame, cached OS-side (mirrors the directory).
        self._chunks: Dict[int, int] = {}

    # -- helpers -----------------------------------------------------------

    @property
    def base_paddr(self) -> int:
        """Directory base (what a base register would hold)."""
        return self._dir_base_ppn << PAGE_SHIFT

    def covers(self, ppn: int) -> bool:
        return 0 <= ppn < self.covered_pages

    def _dir_slot_addr(self, chunk: int) -> int:
        return self.base_paddr + chunk * 8

    def _chunk_ppn(self, chunk: int) -> Optional[int]:
        cached = self._chunks.get(chunk)
        if cached is not None:
            return cached
        pointer = self.phys.read_u64(self._dir_slot_addr(chunk))
        if pointer == 0:
            return None
        ppn = pointer >> PAGE_SHIFT
        self._chunks[chunk] = ppn
        return ppn

    def _ensure_chunk(self, chunk: int) -> int:
        ppn = self._chunk_ppn(chunk)
        if ppn is None:
            ppn = self.allocator.alloc(zero=True)
            self._chunks[chunk] = ppn
            # Mark the pointer present (low bit) like a PTE would.
            self.phys.write_u64(self._dir_slot_addr(chunk), (ppn << PAGE_SHIFT) | 1)
        return ppn

    @staticmethod
    def _field_location(ppn: int) -> Tuple[int, int, int]:
        chunk, within = divmod(ppn, PAGES_PER_CHUNK)
        return chunk, within >> 2, 2 * (within & 3)

    # -- the ProtectionTable interface ---------------------------------------

    def get(self, ppn: int) -> Perm:
        if not self.covers(ppn):
            return Perm.NONE
        chunk, byte_off, shift = self._field_location(ppn)
        chunk_ppn = self._chunk_ppn(chunk)
        if chunk_ppn is None:
            return Perm.NONE  # unallocated chunk: deny by construction
        byte = self.phys.read_u8((chunk_ppn << PAGE_SHIFT) + byte_off)
        return PERM_BY_VALUE[(byte >> shift) & 0x3]

    def set(self, ppn: int, perms: Perm) -> None:
        if not self.covers(ppn):
            raise ConfigurationError(f"ppn {ppn:#x} outside table bounds")
        chunk, byte_off, shift = self._field_location(ppn)
        if perms is Perm.NONE and self._chunk_ppn(chunk) is None:
            return  # clearing an unallocated chunk allocates nothing
        chunk_ppn = self._ensure_chunk(chunk)
        addr = (chunk_ppn << PAGE_SHIFT) + byte_off
        byte = self.phys.read_u8(addr)
        self.phys.write_u8(addr, (byte & ~(0x3 << shift)) | (int(perms) << shift))

    def grant(self, ppn: int, perms: Perm) -> bool:
        old = self.get(ppn)
        new = old.union(perms)
        if new != old:
            self.set(ppn, new)
            return True
        return False

    def revoke(self, ppn: int) -> None:
        self.set(ppn, Perm.NONE)

    def read_bits(self, start_ppn: int, count: int) -> int:
        """Packed 2-bit fields for ``count`` consecutive pages.

        Spans chunk boundaries; unallocated chunks contribute zeros.
        """
        if count <= 0:
            return 0
        packed = 0
        produced = 0
        ppn = start_ppn
        while produced < count:
            chunk, within = divmod(ppn, PAGES_PER_CHUNK)
            take = min(count - produced, PAGES_PER_CHUNK - within)
            chunk_ppn = self._chunk_ppn(chunk)
            if chunk_ppn is not None:
                first_byte = within >> 2
                last_byte = (within + take - 1) >> 2
                raw = self.phys.read(
                    (chunk_ppn << PAGE_SHIFT) + first_byte,
                    last_byte - first_byte + 1,
                )
                bits = int.from_bytes(raw, "little") >> (2 * (within & 3))
                bits &= (1 << (2 * take)) - 1
                packed |= bits << (2 * produced)
            produced += take
            ppn += take
        return packed

    def zero(self) -> None:
        """Revoke everything, releasing the demand-allocated chunks."""
        for chunk, ppn in list(self._chunks.items()):
            self.allocator.free(ppn)
            self.phys.write_u64(self._dir_slot_addr(chunk), 0)
        self._chunks.clear()

    def populated(self) -> Iterator[Tuple[int, Perm]]:
        for chunk in sorted(self._chunks):
            chunk_ppn = self._chunks[chunk]
            base = chunk * PAGES_PER_CHUNK
            raw = self.phys.read(chunk_ppn << PAGE_SHIFT, CHUNK_BYTES)
            for byte_index, byte in enumerate(raw):
                if not byte:
                    continue
                for sub in range(4):
                    field = (byte >> (2 * sub)) & 0x3
                    if field:
                        ppn = base + byte_index * 4 + sub
                        if self.covers(ppn):
                            yield ppn, Perm(field)

    # -- storage accounting ----------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Bytes of physical memory currently consumed (directory + chunks)."""
        return self._dir_frames * PAGE_SIZE + len(self._chunks) * CHUNK_BYTES

    def storage_overhead_fraction(self) -> float:
        return self.size_bytes / (self.covered_pages * PAGE_SIZE)

    def deallocate(self, allocator: FrameAllocator) -> None:
        self.zero()
        allocator.free_contiguous(self._dir_base_ppn, self._dir_frames)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseProtectionTable(chunks={len(self._chunks)}/{self.num_chunks}, "
            f"{self.size_bytes / 1024:g} KiB resident)"
        )
