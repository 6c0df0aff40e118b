"""Shared helpers for tests (importable, unlike conftest)."""

from __future__ import annotations

from repro.accel.gpu import GPU
from repro.sim.config import GPUThreading, SafetyMode, SystemConfig
from repro.sim.system import System
from repro.workloads.base import WorkloadSpec

MEM_128M = 128 * 1024 * 1024


class ProcessPerOpGPU(GPU):
    """A GPU that runs every read as a :meth:`GPU._do_op` process.

    Overriding ``_do_op`` (here only to delegate) is the condition
    ``GPU.launch`` observes to keep reads off the flattened L1 read-hit
    path, so this is the Process-per-op reference that path must match
    bit for bit.
    """

    def _do_op(self, cu_index, asid, vaddr, write):
        return super()._do_op(cu_index, asid, vaddr, write)


def small_config(
    safety: SafetyMode = SafetyMode.BC_BCC,
    threading: GPUThreading = GPUThreading.MODERATELY,
) -> SystemConfig:
    """A fast-to-build system: 128 MiB of memory, default timing."""
    return SystemConfig(
        safety=safety, threading=threading, phys_mem_bytes=MEM_128M
    )


def make_system(
    safety: SafetyMode = SafetyMode.BC_BCC,
    threading: GPUThreading = GPUThreading.MODERATELY,
) -> System:
    return System(small_config(safety, threading))


def tiny_spec(**overrides) -> WorkloadSpec:
    """A minimal workload for integration tests (fast to simulate)."""
    params = dict(
        name="tiny",
        description="test workload",
        footprint_bytes=1024 * 1024,
        ops_per_wavefront=40,
        write_fraction=0.3,
        compute_gap_mean=2.0,
        pattern="stream",
        l1_reuse=0.5,
        l2_reuse=0.2,
        l2_region_bytes=8 * 1024,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


def profile_settings(scale: float = 1.0, floor: int = 2, **overrides):
    """Hypothesis settings scaled from the active ci/dev/nightly profile.

    Keeps per-test budgets proportional when the profile changes: a
    simulation-heavy property asks for ``scale=0.1`` and runs 5 examples
    under ``dev`` (50) but 40 under ``nightly`` (400). Everything else
    (deadline, health checks, derandomization) is inherited from the
    profile registered in ``repro.verify.profiles``.
    """
    from hypothesis import settings

    budget = max(floor, round(settings.default.max_examples * scale))
    return settings(max_examples=budget, **overrides)
