"""Set-associative cache model (functional data + transaction-level timing).

Caches store real block data so that the safety story is end-to-end: a
dirty line in an accelerator cache holds bytes that have *not* reached
physical memory, and if Border Control later blocks the writeback those
bytes are provably lost rather than leaked (paper §3.2.4).

Features used by the evaluation:

* write-back or write-through policies (the paper's GPU uses write-through
  L1s and a write-back L2 under a MOESI CPU-GPU protocol);
* MSHR-style coalescing of concurrent misses to the same block;
* whole-cache and per-page flush/invalidate (permission downgrades and
  process completion, paper §3.2.4-3.2.5);
* hit/miss/writeback statistics consumed by the experiment harness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mem.address import BLOCK_SIZE, PAGE_SHIFT
from repro.mem.port import MemoryPort
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatDomain

__all__ = ["Cache", "CacheConfig", "Line"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy for one cache level."""

    name: str
    size_bytes: int
    associativity: int
    hit_latency_ticks: int
    block_size: int = BLOCK_SIZE
    write_back: bool = True
    write_allocate: bool = True
    mshrs: int = 32

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.size_bytes % (self.block_size * self.associativity):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.block_size} B blocks"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.block_size * self.associativity)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.block_size


class Line:
    """One cache line: tag state plus the block's actual bytes."""

    __slots__ = ("block_addr", "data", "dirty")

    def __init__(self, block_addr: int, data: bytes, dirty: bool = False) -> None:
        self.block_addr = block_addr
        self.data = bytearray(data)
        self.dirty = dirty


class Cache(MemoryPort):
    """A single cache level backed by a downstream :class:`MemoryPort`."""

    def __init__(
        self,
        engine: Engine,
        config: CacheConfig,
        downstream: MemoryPort,
        stats: StatDomain,
    ) -> None:
        self._engine = engine
        self.config = config
        self.name = config.name
        self.downstream = downstream
        # Memoized geometry: block size is a power of two throughout (the
        # tag math below relies on it), so set selection is a shift plus a
        # modulo instead of two attribute loads and a division per access.
        block_size = config.block_size
        if block_size & (block_size - 1):
            raise ConfigurationError(
                f"{config.name}: block size {block_size} is not a power of two"
            )
        self._block_size = block_size
        self._block_mask = block_size - 1
        self._block_shift = block_size.bit_length() - 1
        self._num_sets = config.num_sets
        self._hit_latency = config.hit_latency_ticks
        # Each set is an OrderedDict keyed by block address; the order is
        # recency (last item = most recently used).
        self._sets: List["OrderedDict[int, Line]"] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._pending: Dict[int, Event] = {}  # block addr -> fill completion
        self._stats = stats
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._writebacks = stats.counter("writebacks")
        self._blocked_fills = stats.counter("blocked_fills")
        self._blocked_writebacks = stats.counter("blocked_writebacks")
        self._flushes = stats.counter("flushes")

    # -- geometry -----------------------------------------------------------

    def _set_for(self, block_addr: int) -> "OrderedDict[int, Line]":
        index = (block_addr >> self._block_shift) % self._num_sets
        return self._sets[index]

    def lookup(self, addr: int) -> Optional[Line]:
        """Probe without any side effects (no recency update, no timing)."""
        block_addr = addr & ~self._block_mask
        return self._set_for(block_addr).get(block_addr)

    # -- the port protocol -------------------------------------------------

    def access(
        self, addr: int, size: int, write: bool, data: Optional[bytes] = None
    ) -> Generator:
        block_addr = addr & ~self._block_mask
        offset = addr - block_addr
        if offset + size > self._block_size:
            raise ConfigurationError(
                f"{self.name}: access [{addr:#x}, +{size}) straddles a block"
            )
        yield self._hit_latency
        return (
            yield from self._after_latency(block_addr, offset, size, write, data)
        )

    def _after_latency(
        self,
        block_addr: int,
        offset: int,
        size: int,
        write: bool,
        data: Optional[bytes],
    ) -> Generator:
        """The post-hit-latency half of :meth:`access`.

        Split out so the GPU's flattened L1 read-hit path — which
        translates at dispatch time and re-validates at the hit-latency
        boundary — can replay exactly this code when the line turned out
        not to be resident: the hit/miss decision is made *here*, at the
        same simulated instant the Process-per-op path makes it.
        """
        cache_set = self._sets[(block_addr >> self._block_shift) % self._num_sets]
        line = cache_set.get(block_addr)
        if line is not None:
            cache_set.move_to_end(block_addr)
            self._hits.value += 1
        elif write and not self.config.write_allocate:
            # Write-no-allocate (the GPU's write-through L1s): forward the
            # store downstream without filling the line here.
            self._misses.value += 1
            if data is None:
                raise ValueError("write access requires data")
            result = yield from self.downstream.access(
                block_addr + offset, size, True, data[:size]
            )
            return b"" if result is not None else None
        else:
            # Coalesce with an in-flight fill of the same block if any.
            pending = self._pending.get(block_addr)
            if pending is not None:
                yield pending
                line = self._set_for(block_addr).get(block_addr)
                if line is None:
                    # The fill was blocked at a border downstream.
                    return None
                self._hits.value += 1
            else:
                line = yield from self._fill(block_addr)
                if line is None:
                    return None

        if not write:
            return bytes(line.data[offset : offset + size])

        if data is None:
            raise ValueError("write access requires data")
        line.data[offset : offset + size] = data[:size]
        if self.config.write_back:
            line.dirty = True
            return b""
        # Write-through: propagate the written bytes downstream now.
        result = yield from self.downstream.access(
            block_addr + offset, size, True, data[:size]
        )
        if result is None:
            # The downstream border blocked the write: the line must not
            # keep bytes that memory never received as if they were clean.
            self._invalidate_line(block_addr)
            return None
        return b""

    # -- fills and evictions ---------------------------------------------------

    def _fill(self, block_addr: int) -> Generator:
        """Miss path: fetch the block downstream and insert it."""
        self._misses.value += 1
        done = self._engine.event()
        self._pending[block_addr] = done
        try:
            fetched = yield from self.downstream.access(
                block_addr, self.config.block_size, False
            )
        finally:
            self._pending.pop(block_addr, None)
        if fetched is None:
            self._blocked_fills.inc()
            done.succeed(None)
            return None
        line = Line(block_addr, fetched)
        victim = self._insert(line)
        done.succeed(line)
        if victim is not None and victim.dirty:
            # Evicted dirty data drains through a writeback buffer; it does
            # not stall the access that triggered the eviction.
            self._engine.process(
                self._write_back(victim), name=f"{self.name}-writeback"
            )
        return line

    def _insert(self, line: Line) -> Optional[Line]:
        """Insert a line, returning the evicted victim (if any)."""
        cache_set = self._set_for(line.block_addr)
        victim: Optional[Line] = None
        if len(cache_set) >= self.config.associativity:
            _addr, victim = cache_set.popitem(last=False)  # LRU
        cache_set[line.block_addr] = line
        return victim

    def _write_back(self, line: Line) -> Generator:
        self._writebacks.inc()
        result = yield from self.downstream.access(
            line.block_addr, self.config.block_size, True, bytes(line.data)
        )
        if result is None:
            self._blocked_writebacks.inc()

    def _invalidate_line(self, block_addr: int) -> None:
        self._set_for(block_addr).pop(block_addr, None)

    # -- maintenance operations --------------------------------------------------

    def flush_all(self) -> Generator:
        """Write back every dirty line and invalidate the whole cache.

        Used on permission downgrades and process completion (§3.2.4-5).
        Writebacks are pipelined (bandwidth-limited, as flush engines are)
        and the flush completes only when every writeback has finished —
        the caller must not revoke permissions before then. Returns the
        number of lines written back.
        """
        self._flushes.inc()
        pending = []
        for cache_set in self._sets:
            lines = list(cache_set.values())
            cache_set.clear()
            for line in lines:
                if line.dirty:
                    pending.append(
                        self._engine.process(
                            self._write_back(line), name=f"{self.name}-flush-wb"
                        )
                    )
        if pending:
            yield self._engine.all_of(pending)
        return len(pending)

    def flush_page(self, ppn: int) -> Generator:
        """Selective flush: write back and invalidate lines of one page."""
        self._flushes.inc()
        pending = []
        for cache_set in self._sets:
            doomed = [
                addr for addr in cache_set if (addr >> PAGE_SHIFT) == ppn
            ]
            for addr in doomed:
                line = cache_set.pop(addr)
                if line.dirty:
                    pending.append(
                        self._engine.process(
                            self._write_back(line), name=f"{self.name}-flush-wb"
                        )
                    )
        if pending:
            yield self._engine.all_of(pending)
        return len(pending)

    def invalidate_all(self) -> int:
        """Drop every line *without* writing anything back.

        This models a buggy/malicious accelerator discarding its state, or
        a clean invalidate when the caller knows nothing is dirty. Returns
        the number of dirty lines whose data was lost.
        """
        lost = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    lost += 1
            cache_set.clear()
        return lost

    def reset(self) -> None:
        """Warm-reuse reset: drop every line and in-flight fill, silently.

        Unlike :meth:`invalidate_all` this is not a modeled hardware
        operation — it returns the cache to its post-construction state
        between simulations (counters are zeroed separately through the
        owning :class:`StatDomain`)."""
        for cache_set in self._sets:
            cache_set.clear()
        self._pending.clear()

    # -- introspection ------------------------------------------------------

    def dirty_lines(self) -> List[Line]:
        return [
            line
            for cache_set in self._sets
            for line in cache_set.values()
            if line.dirty
        ]

    def resident_blocks(self) -> List[int]:
        return sorted(
            addr for cache_set in self._sets for addr in cache_set.keys()
        )

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def writebacks(self) -> int:
        return self._writebacks.value

    def __repr__(self) -> str:  # pragma: no cover
        cfg = self.config
        return (
            f"Cache({cfg.name}, {cfg.size_bytes // 1024} KiB, "
            f"{cfg.associativity}-way, {'WB' if cfg.write_back else 'WT'})"
        )
