"""Address arithmetic shared by every memory component.

The paper's system uses 4 KB base pages, optional 2 MB large pages, and a
128-byte memory block (cache line) size — a Protection Table block of
128 bytes therefore covers 512 pages (§3.1.2). These constants and helpers
are the single source of truth for that arithmetic.
"""

from __future__ import annotations

__all__ = [
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "LARGE_PAGE_SHIFT",
    "LARGE_PAGE_SIZE",
    "PAGES_PER_LARGE_PAGE",
    "BLOCK_SHIFT",
    "BLOCK_SIZE",
    "BLOCK_MASK",
    "PAGE_MASK",
    "LARGE_VPN_BASE_MASK",
    "align_down",
    "align_up",
    "block_of",
    "block_offset",
    "is_page_aligned",
    "page_base",
    "page_offset",
    "pages_spanned",
    "ppn_of",
    "vpn_of",
]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KB, minimum page size (paper §3.1.1)

LARGE_PAGE_SHIFT = 21
LARGE_PAGE_SIZE = 1 << LARGE_PAGE_SHIFT  # 2 MB large pages (paper §3.4.4)
PAGES_PER_LARGE_PAGE = LARGE_PAGE_SIZE // PAGE_SIZE  # 512

BLOCK_SHIFT = 7
BLOCK_SIZE = 1 << BLOCK_SHIFT  # 128-byte memory blocks (paper §3.1.2)

# Masks precomputed for the hot paths (the GPU's flattened L1 read hits
# use this arithmetic).
BLOCK_MASK = BLOCK_SIZE - 1
PAGE_MASK = PAGE_SIZE - 1
# A 2 MB large-page TLB entry is 512-page aligned; ANDing a VPN with this
# mask yields the entry's base VPN.
LARGE_VPN_BASE_MASK = ~(PAGES_PER_LARGE_PAGE - 1)


def ppn_of(paddr: int) -> int:
    """Physical page number containing physical address ``paddr``."""
    return paddr >> PAGE_SHIFT


def vpn_of(vaddr: int) -> int:
    """Virtual page number containing virtual address ``vaddr``."""
    return vaddr >> PAGE_SHIFT


def page_base(addr: int) -> int:
    """Base address of the 4 KB page containing ``addr``."""
    return addr & ~(PAGE_SIZE - 1)


def page_offset(addr: int) -> int:
    """Byte offset of ``addr`` within its 4 KB page."""
    return addr & (PAGE_SIZE - 1)


def block_of(addr: int) -> int:
    """Base address of the 128 B memory block containing ``addr``."""
    return addr & ~(BLOCK_SIZE - 1)


def block_offset(addr: int) -> int:
    """Byte offset of ``addr`` within its memory block."""
    return addr & (BLOCK_SIZE - 1)


def is_page_aligned(addr: int) -> bool:
    return (addr & (PAGE_SIZE - 1)) == 0


def align_down(addr: int, alignment: int) -> int:
    """Round ``addr`` down to a multiple of ``alignment`` (a power of two)."""
    _check_pow2(alignment)
    return addr & ~(alignment - 1)


def align_up(addr: int, alignment: int) -> int:
    """Round ``addr`` up to a multiple of ``alignment`` (a power of two)."""
    _check_pow2(alignment)
    return (addr + alignment - 1) & ~(alignment - 1)


def pages_spanned(addr: int, length: int) -> int:
    """Number of distinct 4 KB pages touched by ``[addr, addr+length)``."""
    if length <= 0:
        return 0
    first = ppn_of(addr)
    last = ppn_of(addr + length - 1)
    return last - first + 1


def _check_pow2(value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"alignment must be a positive power of two, got {value}")
