"""Workload specification and trace generation.

A :class:`WorkloadSpec` captures the statistics of one benchmark's memory
behavior; :func:`generate_trace` turns it into a concrete
:class:`~repro.accel.gpu.KernelTrace` against a process's freshly mmapped
buffers. Addresses are block-granular (already coalesced, as a GPU
load/store unit would emit them) and deterministic given the seed.

Each memory access is drawn from a three-level locality mixture, which is
what makes the specs calibratable against the paper's measurements:

* with probability ``l1_reuse`` the wavefront re-touches one of its
  recently used blocks (register-tile / shared-structure reuse — lands in
  the 16 KB L1);
* with probability ``l2_reuse`` it touches the compute unit's shared
  medium-sized region (weights, frontier bitmaps, the current submatrix —
  lands in the shared L2);
* otherwise it advances the benchmark's *cold pattern* — the part of the
  stream that actually crosses the border and reaches DRAM. The pattern
  flavor (streaming, graph runs, tiles, stencil rows, anti-diagonals,
  sliding row windows) determines page-touch behavior and hence TLB and
  page-walk pressure.

Stores follow the same mixture with probability ``write_fraction``; dirty
L2 lines later cross the border as writebacks.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import List

from repro.accel.gpu import KernelTrace, Op
from repro.core.permissions import Perm
from repro.mem.address import BLOCK_SIZE, PAGE_SIZE
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.sim.config import GPUThreading

__all__ = ["WorkloadSpec", "generate_trace", "clear_trace_cache"]

BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE  # 32

# Memoized traces. The op streams are a pure function of
# (spec, threading, seed, ops_scale, large_pages, base_vaddr): the RNG is
# seeded fresh below and never observes any other state. Sweeps and
# benchmarks run the same cell many times (every safety mode shares one
# trace), so reusing the materialized stream removes the whole
# generation phase from repeat runs. The mmap
# + CPU-touch side effects above the cache lookup still replay per run.
_TRACE_CACHE: "OrderedDict[tuple, KernelTrace]" = OrderedDict()
_TRACE_CACHE_MAX = 8


def clear_trace_cache() -> None:
    """Drop memoized traces (tests; bounding memory between sweeps)."""
    _TRACE_CACHE.clear()


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of one benchmark's kernel."""

    name: str
    description: str
    footprint_bytes: int
    ops_per_wavefront: int
    write_fraction: float
    compute_gap_mean: float  # mean GPU cycles between memory instructions
    pattern: str  # cold-stream flavor, see module docstring
    l1_reuse: float = 0.0  # P(re-touch a recent block)
    l2_reuse: float = 0.0  # P(touch the CU's L2-resident region)
    l2_region_bytes: int = 24 * 1024  # per-CU shared region size
    recent_window: int = 6  # recent blocks eligible for L1 reuse
    run_length: int = 8  # 'graph': mean blocks per sequential run
    tile_blocks: int = 32  # 'blocked': tile size in blocks
    tile_passes: int = 4  # 'blocked': passes over each tile
    row_blocks: int = 64  # 'stencil'/'diagonal'/'rows': row width in blocks
    row_window: int = 2  # 'rows': rows in the working window

    def __post_init__(self) -> None:
        if not 0.0 <= self.l1_reuse + self.l2_reuse <= 1.0:
            raise ValueError("l1_reuse + l2_reuse must lie in [0, 1]")

    @property
    def cold_fraction(self) -> float:
        return max(0.0, 1.0 - self.l1_reuse - self.l2_reuse)

    @property
    def footprint_pages(self) -> int:
        return (self.footprint_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    @property
    def footprint_blocks(self) -> int:
        return self.footprint_bytes // BLOCK_SIZE


class _AddressStream:
    """Stateful per-wavefront address generator."""

    def __init__(
        self,
        spec: WorkloadSpec,
        base_vaddr: int,
        wavefront_index: int,
        total_wavefronts: int,
        cu_index: int,
        rng: random.Random,
    ) -> None:
        self.spec = spec
        self.base = base_vaddr
        self.rng = rng
        self.total_blocks = max(1, spec.footprint_blocks)
        # Cold-stream slice owned by this wavefront (streaming patterns).
        slice_blocks = max(1, self.total_blocks // max(1, total_wavefronts))
        self.slice_start = (wavefront_index * slice_blocks) % self.total_blocks
        self.slice_blocks = slice_blocks
        # Start at a random point in the slice: real kernels' wavefronts do
        # not march in cache-set lockstep, and aligned slice starts would
        # pile every wavefront's working blocks into the same sets.
        self.cursor = rng.randrange(slice_blocks) if slice_blocks > 1 else 0
        # The CU's L2-resident shared region.
        region_blocks = max(1, spec.l2_region_bytes // BLOCK_SIZE)
        self.region_start = (cu_index * region_blocks) % self.total_blocks
        self.region_blocks = region_blocks
        # Recent blocks for L1 reuse, prefilled so reuse starts immediately.
        self.recent: "deque[int]" = deque(
            (self.slice_start + self.cursor + i) % self.total_blocks
            for i in range(spec.recent_window)
        )
        # Random per-wavefront base for the structured patterns (tiles,
        # stencil rows, diagonals, row windows). Real kernels assign each
        # wavefront its own region of the matrix/grid; deriving bases from
        # the wavefront index alone would align every wavefront's working
        # blocks to the same cache sets.
        self.pattern_base = rng.randrange(self.total_blocks)
        # blocked-pattern state
        self.tile_index = 0
        self.tile_pos = 0
        self.tile_pass = 0
        # graph-pattern state
        self.run_remaining = 0
        self.run_block = 0
        # stencil/diagonal/rows state
        self.step = 0
        # Trace generation is a measurable slice of a cell's wall time, so
        # next_address avoids per-call attribute chases: reuse thresholds
        # are precomputed (same float arithmetic, so identical draws) and
        # uniform draws go through Random._randbelow, which is exactly what
        # randrange(n) calls for a positive int bound.
        self._l1_reuse = spec.l1_reuse
        self._reuse_cum = spec.l1_reuse + spec.l2_reuse
        self._recent_window = spec.recent_window
        self._randbelow = getattr(rng, "_randbelow", None) or rng.randrange

    def _addr(self, block_index: int) -> int:
        return self.base + (block_index % self.total_blocks) * BLOCK_SIZE

    def next_address(self) -> int:
        rng = self.rng
        recent = self.recent
        draw = rng.random()
        if recent and draw < self._l1_reuse:
            block = recent[self._randbelow(len(recent))]
        elif draw < self._reuse_cum:
            block = self.region_start + self._randbelow(self.region_blocks)
        else:
            block = self._next_cold_block()
            recent.append(block)
            if len(recent) > self._recent_window:
                recent.popleft()
        return self.base + (block % self.total_blocks) * BLOCK_SIZE

    def _next_cold_block(self) -> int:
        spec = self.spec
        pattern = spec.pattern
        if pattern == "stream":
            block = self.slice_start + (self.cursor % self.slice_blocks)
            self.cursor += 1
            return block
        if pattern == "random":
            return self.rng.randrange(self.total_blocks)
        if pattern == "graph":
            if self.run_remaining <= 0:
                self.run_block = self.rng.randrange(self.total_blocks)
                self.run_remaining = max(
                    1, int(self.rng.expovariate(1.0 / spec.run_length))
                )
            self.run_remaining -= 1
            block, self.run_block = self.run_block, self.run_block + 1
            return block
        if pattern == "blocked":
            block = self.pattern_base + self.tile_index * spec.tile_blocks + self.tile_pos
            self.tile_pos += 1
            if self.tile_pos >= spec.tile_blocks:
                self.tile_pos = 0
                self.tile_pass += 1
                if self.tile_pass >= spec.tile_passes:
                    self.tile_pass = 0
                    self.tile_index += 1
            return block
        if pattern == "stencil":
            row_blocks = spec.row_blocks
            row, col = divmod(self.step, row_blocks)
            self.step += 1
            # Alternate between the current row and the two rows above it
            # (the 5-point stencil's vertical neighbors).
            touch_row = max(0, row - (self.step % 3))
            return self.pattern_base + touch_row * row_blocks + col
        if pattern == "diagonal":
            row_blocks = spec.row_blocks
            diag = self.step // row_blocks
            pos = self.step % row_blocks
            self.step += 1
            if self.step % 2:
                diag = max(0, diag - 1)  # revisit the previous diagonal
            return self.pattern_base + pos * row_blocks + (diag % row_blocks)
        if pattern == "rows":
            row_blocks = spec.row_blocks
            window_blocks = row_blocks * spec.row_window
            block = self.pattern_base + self.step % window_blocks
            self.step += 1
            if self.step % window_blocks == 0:
                self.pattern_base += row_blocks  # slide the window one row
            return block
        raise ValueError(f"unknown access pattern {pattern!r}")


def generate_trace(
    spec: WorkloadSpec,
    kernel: Kernel,
    proc: Process,
    threading: GPUThreading,
    seed: int = 1234,
    ops_scale: float = 1.0,
    touch_on_cpu: bool = True,
    large_pages: bool = False,
) -> KernelTrace:
    """Materialize a workload: mmap its buffers, emit per-wavefront ops.

    ``touch_on_cpu`` mirrors Rodinia's CPU-side initialization: frames are
    populated before kernel launch (the kernel's eager mmap does this), so
    the accelerator's ATS walks always find present mappings.

    ``large_pages`` backs the footprint with 2 MB pages (§3.4.4): one ATS
    translation then covers 512 base pages, and Border Control records
    all of them in a single insertion.
    """
    if large_pages:
        from repro.mem.address import PAGES_PER_LARGE_PAGE

        pages = -(-spec.footprint_pages // PAGES_PER_LARGE_PAGE) * PAGES_PER_LARGE_PAGE
        base_vaddr = kernel.mmap(proc, pages, Perm.RW, large=True)
    else:
        base_vaddr = kernel.mmap(proc, spec.footprint_pages, Perm.RW)
    if touch_on_cpu:
        # Write a recognizable header per page group so reads return data.
        for page in range(0, spec.footprint_pages, 64):
            kernel.proc_write(
                proc, base_vaddr + page * PAGE_SIZE, page.to_bytes(8, "little")
            )
    cache_key = (spec, threading, seed, ops_scale, large_pages, base_vaddr)
    cached = _TRACE_CACHE.get(cache_key)
    if cached is not None:
        _TRACE_CACHE.move_to_end(cache_key)
        return cached
    rng = random.Random(seed)
    num_cus = threading.num_cus
    wf_per_cu = threading.wavefronts_per_cu
    total_wf = num_cus * wf_per_cu
    ops_per_wf = max(1, int(spec.ops_per_wavefront * ops_scale))
    gap_mean = spec.compute_gap_mean

    # Hot generation loop: methods bound once, the exponential rate
    # computed once (identical float, hence identical draws). RNG call
    # order per op is unchanged: gap, address, write.
    inv_gap = 1.0 / gap_mean if gap_mean > 0 else 0.0
    expovariate = rng.expovariate
    rand = rng.random
    write_fraction = spec.write_fraction
    cu_wavefronts: List[List[List[Op]]] = []
    wf_global = 0
    for cu in range(num_cus):
        wavefronts: List[List[Op]] = []
        for _wf in range(wf_per_cu):
            stream = _AddressStream(spec, base_vaddr, wf_global, total_wf, cu, rng)
            next_address = stream.next_address
            ops: List[Op] = []
            append = ops.append
            if gap_mean > 0:
                for _i in range(ops_per_wf):
                    append(
                        (
                            int(expovariate(inv_gap)),
                            next_address(),
                            rand() < write_fraction,
                        )
                    )
            else:
                for _i in range(ops_per_wf):
                    append((0, next_address(), rand() < write_fraction))
            wavefronts.append(ops)
            wf_global += 1
        cu_wavefronts.append(wavefronts)
    trace = KernelTrace(
        name=spec.name,
        cu_wavefronts=cu_wavefronts,
        footprint_pages=spec.footprint_pages,
    )
    _TRACE_CACHE[cache_key] = trace
    if len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
        _TRACE_CACHE.popitem(last=False)
    return trace
