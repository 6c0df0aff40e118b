"""A 4-level radix page table resident in simulated physical memory.

Layout follows x86-64: four levels of 512 x 64-bit entries indexed by
9-bit slices of the virtual page number; level-1 entries map 4 KB pages
and level-2 entries with the PS bit map 2 MB large pages (paper §3.4.4).

PTE format (bits):

=====  ==========================================================
0      present
1      readable   (kept explicit so read-only/write-only differ)
2      writable
7      page size  (set in a level-2 entry mapping a 2 MB page)
12-51  physical page number of the target frame / next level
=====  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.permissions import PERM_BY_VALUE, Perm
from repro.errors import MemoryError_
from repro.mem.address import (
    LARGE_PAGE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PAGES_PER_LARGE_PAGE,
)
from repro.mem.phys_memory import PhysicalMemory
from repro.vm.frame_allocator import FrameAllocator

__all__ = ["PageTable", "Translation"]

_PTE_SIZE = 8
_ENTRIES_PER_NODE = PAGE_SIZE // _PTE_SIZE  # 512
_LEVELS = 4

_FLAG_PRESENT = 1 << 0
_FLAG_READ = 1 << 1
_FLAG_WRITE = 1 << 2
_FLAG_LARGE = 1 << 7
_PPN_SHIFT = 12
_PPN_MASK = ((1 << 40) - 1) << _PPN_SHIFT


@dataclass(frozen=True)
class Translation:
    """Result of a successful page-table walk."""

    vpn: int
    ppn: int
    perms: Perm
    page_size: int = PAGE_SIZE

    @property
    def is_large(self) -> bool:
        return self.page_size == LARGE_PAGE_SIZE


def _flags(perms: Perm, large: bool = False) -> int:
    """Every PTE bit but the PPN. Perm.R (1) and Perm.W (2) shifted up one
    are _FLAG_READ and _FLAG_WRITE."""
    flags = _FLAG_PRESENT | ((perms._value_ & 3) << 1)
    return (flags | _FLAG_LARGE) if large else flags


def _encode(ppn: int, perms: Perm, large: bool = False) -> int:
    return _flags(perms, large) | ((ppn << _PPN_SHIFT) & _PPN_MASK)


def _decode_perms(pte: int) -> Perm:
    return PERM_BY_VALUE[(pte & (_FLAG_READ | _FLAG_WRITE)) >> 1]


class PageTable:
    """Per-process page table; all nodes live in physical memory."""

    def __init__(
        self, phys: PhysicalMemory, allocator: FrameAllocator, asid: int
    ) -> None:
        self.phys = phys
        self.allocator = allocator
        self.asid = asid
        self.root_ppn = allocator.alloc()
        self._node_frames: List[int] = [self.root_ppn]
        # Physical address of the parent entry pointing at each node in
        # _node_frames (the root has none): lets a failed map unlink them.
        self._node_links: List[int] = [-1]
        self.version = 0  # bumped on every unmap/protect (shootdown epoch)

    # -- PTE access ------------------------------------------------------

    def _read_pte(self, node_ppn: int, index: int) -> int:
        return self.phys.read_u64((node_ppn << PAGE_SHIFT) + index * _PTE_SIZE)

    def _write_pte(self, node_ppn: int, index: int, pte: int) -> None:
        self.phys.write_u64((node_ppn << PAGE_SHIFT) + index * _PTE_SIZE, pte)

    @staticmethod
    def _indices(vpn: int) -> Tuple[int, int, int, int]:
        return (
            (vpn >> 27) & 0x1FF,
            (vpn >> 18) & 0x1FF,
            (vpn >> 9) & 0x1FF,
            vpn & 0x1FF,
        )

    # -- mapping -----------------------------------------------------------

    def map(self, vpn: int, ppn: int, perms: Perm, large: bool = False) -> None:
        """Install a VPN -> PPN mapping with the given permissions.

        Large mappings must be 2 MB-aligned on both sides and install a
        single level-2 entry covering 512 base pages. A base page goes
        through :meth:`map_run`, the one leaf-install routine.
        """
        if not large:
            self.map_run(vpn, 1, perms, lambda: ppn)
            return
        if perms is Perm.NONE:
            raise MemoryError_("mapping with no permissions; use unmap instead")
        if vpn % PAGES_PER_LARGE_PAGE or ppn % PAGES_PER_LARGE_PAGE:
            raise MemoryError_("large mappings must be 2 MB aligned")
        idx = self._indices(vpn)
        node = self._descend_to(idx, depth=2, create=True)
        self._write_pte(node, idx[2], _encode(ppn, perms, large=True))

    def map_run(
        self, start_vpn: int, count: int, perms: Perm, next_ppn: Callable[[], int]
    ) -> List[int]:
        """Map ``count`` base pages from ``start_vpn``; returns their PPNs.

        Page ``start_vpn + i`` maps to the ``i``-th frame ``next_ppn()``
        returns. The walk to a leaf node runs once per leaf, not per page:
        the leaf found (or created) for a run's first page serves every
        following page in it. ``next_ppn`` is called for a page before its
        leaf node is looked up, so ``allocator.alloc`` as the source keeps
        the page-by-page allocation order — the data frame, then any node
        the page needs — and with it every physical address.
        """
        if perms is Perm.NONE:
            raise MemoryError_("mapping with no permissions; use unmap instead")
        flags = _flags(perms)
        read_u64 = self.phys.read_u64
        write_u64 = self.phys.write_u64
        ppns: List[int] = []
        leaf = 0
        for vpn in range(start_vpn, start_vpn + count):
            ppn = next_ppn()
            ppns.append(ppn)
            if vpn == start_vpn or not vpn & 0x1FF:
                leaf = self._descend_to(self._indices(vpn), 3, create=True) << PAGE_SHIFT
            pte_addr = leaf + (vpn & 0x1FF) * _PTE_SIZE
            if read_u64(pte_addr) & _FLAG_PRESENT:
                raise MemoryError_(f"vpn {vpn:#x} already mapped")
            write_u64(pte_addr, flags | ((ppn << _PPN_SHIFT) & _PPN_MASK))
        return ppns

    def missing_nodes(self, start_vpn: int, count: int) -> int:
        """How many table nodes mapping ``count`` base pages from
        ``start_vpn`` would allocate: each interior and leaf node on the
        range's paths that is not present yet."""
        last_vpn = start_vpn + count - 1
        # A walk that stops before reading an entry of the node at
        # ``depth`` (root = 0) did not find that node.
        return sum(
            len(self.walk(prefix << shift)[1]) <= depth
            for depth, shift in ((1, 27), (2, 18), (3, 9))
            for prefix in range(start_vpn >> shift, (last_vpn >> shift) + 1)
        )

    def release_nodes_since(self, mark: int) -> None:
        """Free the nodes created after the table had ``mark`` of them,
        unlinking each from its parent — the undo of a failed bulk map.
        Every mapping under those nodes must already be removed."""
        for parent_pte in reversed(self._node_links[mark:]):
            self.phys.write_u64(parent_pte, 0)
        for frame in reversed(self._node_frames[mark:]):
            self.allocator.free(frame)
        del self._node_frames[mark:]
        del self._node_links[mark:]

    @property
    def node_count(self) -> int:
        return len(self._node_frames)

    def unmap(self, vpn: int) -> Optional[Translation]:
        """Remove a mapping; returns the old translation (None if absent)."""
        old = self.translate_vpn(vpn)
        if old is None:
            return None
        idx = self._indices(old.vpn)
        if old.is_large:
            node = self._descend_to(idx, depth=2, create=False)
            self._write_pte(node, idx[2], 0)
        else:
            node = self._descend_to(idx, depth=3, create=False)
            self._write_pte(node, idx[3], 0)
        self.version += 1
        return old

    def protect(self, vpn: int, perms: Perm) -> Translation:
        """Change permissions of an existing mapping; returns the old one."""
        old = self.translate_vpn(vpn)
        if old is None:
            raise MemoryError_(f"vpn {vpn:#x} not mapped")
        idx = self._indices(old.vpn)
        if old.is_large:
            node = self._descend_to(idx, depth=2, create=False)
            self._write_pte(node, idx[2], _encode(old.ppn, perms, large=True))
        else:
            node = self._descend_to(idx, depth=3, create=False)
            self._write_pte(node, idx[3], _encode(old.ppn, perms))
        if not perms.allows(False) or (old.perms.writable and not perms.writable):
            self.version += 1  # downgrade: shootdown epoch advances
        return old

    def _descend_to(self, idx: Tuple[int, int, int, int], depth: int, create: bool) -> int:
        """Walk to the node at ``depth`` (0=root child ... 3=leaf node)."""
        node = self.root_ppn
        for level in range(depth):
            pte = self._read_pte(node, idx[level])
            if not pte & _FLAG_PRESENT:
                if not create:
                    raise MemoryError_("walk reached non-present interior entry")
                child = self.allocator.alloc()
                self._node_frames.append(child)
                self._node_links.append((node << PAGE_SHIFT) + idx[level] * _PTE_SIZE)
                # Interior entries carry RW so leaf entries fully control perms.
                self._write_pte(node, idx[level], _encode(child, Perm.RW))
                node = child
            else:
                if pte & _FLAG_LARGE:
                    raise MemoryError_("descending through a large-page entry")
                node = (pte & _PPN_MASK) >> _PPN_SHIFT
        return node

    # -- translation --------------------------------------------------------

    def translate_vpn(self, vpn: int) -> Optional[Translation]:
        """Walk the table for one VPN; None if unmapped."""
        translation, _footprint = self.walk(vpn)
        return translation

    def translate(self, vaddr: int) -> Optional[Translation]:
        return self.translate_vpn(vaddr >> PAGE_SHIFT)

    def walk(self, vpn: int) -> Tuple[Optional[Translation], List[int]]:
        """Full walk returning (translation, physical addresses touched).

        The footprint list is what a hardware walker would fetch — the ATS
        timing model charges one memory access per touched node.
        """
        idx = self._indices(vpn)
        node = self.root_ppn
        touched: List[int] = []
        for level in range(_LEVELS):
            pte_addr = (node << PAGE_SHIFT) + idx[level] * _PTE_SIZE
            touched.append(pte_addr)
            pte = self.phys.read_u64(pte_addr)
            if not pte & _FLAG_PRESENT:
                return None, touched
            ppn = (pte & _PPN_MASK) >> _PPN_SHIFT
            if level == 2 and pte & _FLAG_LARGE:
                base_vpn = vpn & ~(PAGES_PER_LARGE_PAGE - 1)
                return (
                    Translation(base_vpn, ppn, _decode_perms(pte), LARGE_PAGE_SIZE),
                    touched,
                )
            if level == _LEVELS - 1:
                return Translation(vpn, ppn, _decode_perms(pte)), touched
            node = ppn
        raise AssertionError("unreachable")

    # -- enumeration -----------------------------------------------------------

    def entries(self) -> Iterator[Translation]:
        """Iterate every present leaf mapping (4 KB and 2 MB)."""
        yield from self._walk_node(self.root_ppn, 0, 0)

    def _walk_node(self, node: int, level: int, vpn_prefix: int) -> Iterator[Translation]:
        shift = 9 * (_LEVELS - 1 - level)
        for i in range(_ENTRIES_PER_NODE):
            pte = self._read_pte(node, i)
            if not pte & _FLAG_PRESENT:
                continue
            vpn = vpn_prefix | (i << shift)
            ppn = (pte & _PPN_MASK) >> _PPN_SHIFT
            if level == 2 and pte & _FLAG_LARGE:
                yield Translation(vpn, ppn, _decode_perms(pte), LARGE_PAGE_SIZE)
            elif level == _LEVELS - 1:
                yield Translation(vpn, ppn, _decode_perms(pte))
            else:
                yield from self._walk_node(ppn, level + 1, vpn)

    def destroy(self) -> None:
        """Free every page-table node frame (mappings become invalid)."""
        for frame in self._node_frames:
            self.allocator.free(frame)
        self._node_frames = []
        self._node_links = []
        self.version += 1
