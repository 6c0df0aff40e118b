"""Read/write permission flags.

Border Control deliberately tracks only read and write permission per
physical page: execute permission cannot be enforced at the border because
once a block is inside the accelerator, Border Control cannot observe
whether it is used as data or instructions (paper §3.1.1).
"""

from __future__ import annotations

import enum

__all__ = ["Perm", "PERM_NONE", "PERM_R", "PERM_W", "PERM_RW", "PERM_BY_VALUE"]


class Perm(enum.IntFlag):
    """Per-page permission bits, 2 bits per page as in the Protection Table.

    The hot predicates test the raw ``_value_`` int and results come from
    :data:`PERM_BY_VALUE`: IntFlag's ``&``/``|`` and ``Perm(x)`` each go
    through the enum constructor, which costs over ten times a plain int operation.
    """

    NONE = 0
    R = 1
    W = 2
    RW = 3

    @property
    def readable(self) -> bool:
        return self._value_ & 1 != 0

    @property
    def writable(self) -> bool:
        return self._value_ & 2 != 0

    def allows(self, write: bool) -> bool:
        """Does this permission allow a read (write=False) or write access?"""
        return self._value_ & (2 if write else 1) != 0

    def union(self, other: "Perm") -> "Perm":
        """Union of permissions — the multiprocess-accelerator rule (§3.3)."""
        return PERM_BY_VALUE[self._value_ | other._value_]

    def describe(self) -> str:
        return ("R" if self.readable else "-") + ("W" if self.writable else "-")


PERM_NONE = Perm.NONE
PERM_R = Perm.R
PERM_W = Perm.W
PERM_RW = Perm.RW

#: The four permission values indexed by their 2-bit field: ``Perm(x)``
#: without the enum-constructor call.
PERM_BY_VALUE = (Perm.NONE, Perm.R, Perm.W, Perm.RW)
