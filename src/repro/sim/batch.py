"""Environment probes for the benchmark's ``# env`` line.

This module exists only so ``perfbench/run.py`` can keep printing the
same environment line. The GPU has one read path — flattened L1 read
hits, always on (see :class:`repro.accel.gpu.GPU`) — and the simulator
does not use numpy.
"""

from __future__ import annotations

import importlib.util

__all__ = ["numpy_available", "vector_enabled"]


def numpy_available() -> bool:
    """Whether numpy is installed (checked without importing it)."""
    return importlib.util.find_spec("numpy") is not None


def vector_enabled() -> bool:
    """Always ``True``: the flattened L1 read-hit path is always on."""
    return True
