"""The Border Control Cache (paper §3.1.2).

A small, fully associative, LRU cache of Protection Table blocks, tagged
by physical page number group. The default configuration matches Table 3:
64 entries of 128 bytes (512 pages per entry) for 8 KB total and a 128 MB
reach. The cache is explicitly managed by Border Control hardware and
needs no coherence (§3.1.2): the engine write-throughs every permission
change to the Protection Table and invalidates the BCC on downgrades.

The entry granularity is configurable (1/2/32/512 pages per entry) to
reproduce the sensitivity analysis of Fig. 6, where total capacity in
bytes — including a 36-bit tag per entry — is the budget being swept.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.core.permissions import PERM_BY_VALUE, Perm
from repro.core.protection_table import ProtectionTable
from repro.errors import ConfigurationError
from repro.sim.stats import StatDomain

__all__ = ["BCCConfig", "BorderControlCache"]

TAG_BITS = 36  # per-entry tag size used in the paper's Fig. 6 sweep


@dataclass(frozen=True)
class BCCConfig:
    """Geometry of a Border Control Cache."""

    num_entries: int = 64
    pages_per_entry: int = 512  # one 128 B table block

    def __post_init__(self) -> None:
        if self.num_entries < 1:
            raise ConfigurationError("BCC needs at least one entry")
        if self.pages_per_entry < 1:
            raise ConfigurationError("BCC entries must cover at least one page")

    @property
    def entry_bits(self) -> int:
        """Storage per entry: 2 permission bits per page plus the tag."""
        return 2 * self.pages_per_entry + TAG_BITS

    @property
    def size_bits(self) -> int:
        return self.num_entries * self.entry_bits

    @property
    def size_bytes(self) -> float:
        return self.size_bits / 8

    @property
    def reach_bytes(self) -> int:
        """Bytes of physical memory whose permissions fit in the cache."""
        return self.num_entries * self.pages_per_entry * 4096

    @classmethod
    def from_budget(cls, budget_bytes: float, pages_per_entry: int) -> "BCCConfig":
        """Largest whole-entry configuration within a byte budget (Fig. 6)."""
        entry_bits = 2 * pages_per_entry + TAG_BITS
        entries = int(budget_bytes * 8 // entry_bits)
        if entries < 1:
            raise ConfigurationError(
                f"budget {budget_bytes} B holds no {pages_per_entry}-page entry"
            )
        return cls(num_entries=entries, pages_per_entry=pages_per_entry)


class BorderControlCache:
    """Functional model of the BCC, backed by a Protection Table."""

    def __init__(self, config: BCCConfig, stats: Optional[StatDomain] = None) -> None:
        self.config = config
        # group tag -> packed 2-bit permission fields for the group's pages
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        # One-entry MRU line in front of the LRU structure: the last group
        # touched by lookup/fill/insert. Because "last touched" is exactly
        # the OrderedDict's end position, a lookup that hits the MRU line
        # can skip the dict get and the (no-op) move_to_end entirely while
        # leaving identical cache state. ``-1`` means invalid.
        self._mru_group = -1
        self._mru_packed = 0
        ppe = config.pages_per_entry
        self._ppe = ppe
        if ppe & (ppe - 1) == 0:
            self._group_shift: Optional[int] = ppe.bit_length() - 1
            self._slot_mask = ppe - 1
        else:
            self._group_shift = None
            self._slot_mask = 0
        stats = stats or StatDomain("bcc")
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._fills = stats.counter("fills")
        self._writethroughs = stats.counter("writethroughs")
        self._invalidations = stats.counter("invalidations")

    # -- addressing ------------------------------------------------------------

    def group_of(self, ppn: int) -> int:
        if self._group_shift is not None:
            return ppn >> self._group_shift
        return ppn // self._ppe

    def _slot_of(self, ppn: int) -> int:
        if self._group_shift is not None:
            return ppn & self._slot_mask
        return ppn % self._ppe

    @staticmethod
    def _field(packed: int, slot: int) -> Perm:
        return PERM_BY_VALUE[(packed >> (2 * slot)) & 0x3]

    # -- probes (no fill) -----------------------------------------------------------

    def probe(self, ppn: int) -> Tuple[bool, Perm]:
        """Tag check without side effects: (hit, perms)."""
        packed = self._entries.get(self.group_of(ppn))
        if packed is None:
            return False, Perm.NONE
        return True, self._field(packed, self._slot_of(ppn))

    # -- the hardware operations ------------------------------------------------------

    def lookup(self, ppn: int, table: ProtectionTable) -> Tuple[bool, Perm]:
        """Check path (Fig. 3c): returns (was_hit, perms), filling on miss.

        On a miss the covering Protection Table bits are fetched and a new
        entry allocated (LRU victim dropped — entries are never dirty,
        because every change is written through).
        """
        shift = self._group_shift
        if shift is not None:
            group = ppn >> shift
            slot = ppn & self._slot_mask
        else:
            group = ppn // self._ppe
            slot = ppn % self._ppe
        if group == self._mru_group:
            # MRU hit: the group is already at the recency end, so the
            # move_to_end would be a no-op — state is bit-identical.
            self._hits.value += 1
            return True, PERM_BY_VALUE[(self._mru_packed >> (2 * slot)) & 0x3]
        packed = self._entries.get(group)
        if packed is not None:
            self._entries.move_to_end(group)
            self._hits.value += 1
            self._mru_group = group
            self._mru_packed = packed
            return True, PERM_BY_VALUE[(packed >> (2 * slot)) & 0x3]
        self._misses.value += 1
        packed = self._fill(group, table)
        return False, PERM_BY_VALUE[(packed >> (2 * slot)) & 0x3]

    def insert_permission(
        self, ppn: int, perms: Perm, table: ProtectionTable
    ) -> bool:
        """Insertion path (Fig. 3b): update this page's field, write through.

        Returns True if the Protection Table changed (i.e. the translation
        introduced new permission bits). Grants are monotonic ORs — the
        multiprocess union rule (§3.3) falls out of this for free.
        """
        changed = table.grant(ppn, perms)
        if changed:
            self._writethroughs.inc()
        group = self.group_of(ppn)
        packed = self._entries.get(group)
        if packed is None:
            self._misses.inc()
            self._fill(group, table)
        else:
            slot = self._slot_of(ppn)
            old = self._field(packed, slot)
            new = old.union(perms)
            if new != old:
                packed &= ~(0x3 << (2 * slot))
                packed |= int(new) << (2 * slot)
                self._entries[group] = packed
            self._entries.move_to_end(group)
            self._mru_group = group
            self._mru_packed = packed
            self._hits.inc()
        return changed

    def _fill(self, group: int, table: ProtectionTable) -> int:
        self._fills.value += 1
        ppe = self.config.pages_per_entry
        packed = table.read_bits(group * ppe, ppe)
        if group not in self._entries and len(self._entries) >= self.config.num_entries:
            victim, _bits = self._entries.popitem(last=False)
            if victim == self._mru_group:
                self._mru_group = -1
        self._entries[group] = packed
        self._entries.move_to_end(group)
        self._mru_group = group
        self._mru_packed = packed
        return packed

    # -- downgrades -----------------------------------------------------------------

    def invalidate_page(self, ppn: int, table: ProtectionTable) -> None:
        """Selective downgrade: refresh the covering entry from the table.

        The caller must already have updated the Protection Table; the BCC
        simply refetches so it never caches stale (more permissive) bits.
        """
        group = self.group_of(ppn)
        if group in self._entries:
            ppe = self.config.pages_per_entry
            self._entries[group] = table.read_bits(group * ppe, ppe)
            if group == self._mru_group:
                self._mru_group = -1  # drop the stale MRU copy
            self._invalidations.inc()

    def invalidate_all(self) -> None:
        """Full invalidation (whole-table zeroing path, §3.2.4-5)."""
        self._invalidations.inc()
        self._entries.clear()
        self._mru_group = -1

    # -- introspection ---------------------------------------------------------------

    def cached_permissions(self) -> "Iterator[Tuple[int, Perm]]":
        """Yield ``(ppn, perms)`` for every page of every cached entry.

        Zero-permission fields are yielded too: a verifier must be able to
        prove the cache never holds bits *more* permissive than the
        Protection Table, which requires seeing exactly what is cached.
        Pure observation — no LRU movement, no fills, no counters.
        """
        ppe = self._ppe
        for group, packed in self._entries.items():
            base = group * ppe
            for slot in range(ppe):
                yield base + slot, PERM_BY_VALUE[(packed >> (2 * slot)) & 0x3]

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        cfg = self.config
        return (
            f"BorderControlCache({cfg.num_entries} x {cfg.pages_per_entry} pages, "
            f"~{cfg.size_bytes / 1024:.1f} KiB, reach {cfg.reach_bytes / 2**20:g} MiB)"
        )
