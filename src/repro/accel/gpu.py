"""The GPGPU model — the paper's stress-test accelerator (§5.1).

The GPU executes *kernel traces*: per-compute-unit, per-wavefront streams
of coalesced, block-granular memory operations separated by compute
gaps. Each wavefront is a simulation process; a compute unit issues at
most one memory instruction per cycle. Latency tolerance is emergent:
the highly threaded configuration (8 CUs, many wavefronts) overlaps
memory latency across contexts, while the moderately threaded one (1 CU,
few wavefronts) cannot — reproducing the sensitivity split in Fig. 4.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional, Sequence, Tuple

from repro.accel.base import AcceleratorBase
from repro.mem.address import BLOCK_MASK, BLOCK_SIZE, PAGE_SHIFT
from repro.sim.clock import Clock
from repro.sim.engine import (
    _KIND_CALL_VALUE,
    BandwidthServer,
    Engine,
    Event,
    Process,
)
from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.stats import StatDomain

__all__ = ["GPU", "GPUGeometry", "KernelTrace", "Op"]

# One wavefront operation: (compute-gap cycles, vaddr or None, is_write).
# vaddr None means a pure compute segment.
Op = Tuple[int, Optional[int], bool]


@dataclass(frozen=True)
class GPUGeometry:
    """Structural parameters (Table 3)."""

    num_cus: int = 8
    l1_tlb_entries: int = 64
    # Outstanding memory operations per wavefront: GPU loads are
    # non-blocking until first use, giving each context a little
    # memory-level parallelism on top of wavefront interleaving.
    mlp: int = 2
    # Coalesced memory instructions a CU's load/store pipes accept per
    # cycle (GCN-class CUs have multiple vector memory pipes).
    issue_per_cycle: int = 2

    @classmethod
    def highly_threaded(cls) -> "GPUGeometry":
        return cls(num_cus=8)

    @classmethod
    def moderately_threaded(cls) -> "GPUGeometry":
        return cls(num_cus=1)


@dataclass
class KernelTrace:
    """A workload's memory behavior, already coalesced to 128 B blocks."""

    name: str
    cu_wavefronts: List[List[List[Op]]]  # [cu][wavefront][op]
    footprint_pages: int = 0

    @property
    def num_cus(self) -> int:
        return len(self.cu_wavefronts)

    @property
    def total_mem_ops(self) -> int:
        return sum(
            sum(1 for op in wf if op[1] is not None)
            for cu in self.cu_wavefronts
            for wf in cu
        )

    @property
    def total_compute_cycles(self) -> int:
        return sum(
            op[0] for cu in self.cu_wavefronts for wf in cu for op in wf
        )


def _payload_for(vaddr: int) -> bytes:
    """Deterministic 128 B store payload derived from the address."""
    return (vaddr & (2**64 - 1)).to_bytes(8, "little") * (BLOCK_SIZE // 8)


class GPU(AcceleratorBase):
    """A GPGPU replaying kernel traces through a memory path."""

    def __init__(
        self,
        engine: Engine,
        clock: Clock,
        geometry: GPUGeometry,
        path,
        stats: Optional[StatDomain] = None,
        accel_id: str = "gpu0",
    ) -> None:
        super().__init__(accel_id)
        self.engine = engine
        self.clock = clock
        self.geometry = geometry
        self.path = path
        self.stats = stats or StatDomain(accel_id)
        self._issue_ports = [
            BandwidthServer(
                engine,
                # One "op byte" per issue slot per cycle.
                bytes_per_second=clock.freq_hz * geometry.issue_per_cycle,
                ticks_per_second=TICKS_PER_SECOND,
            )
            for _ in range(geometry.num_cus)
        ]
        self._ops = self.stats.counter("mem_ops")
        self._loads = self.stats.counter("loads")
        self._stores = self.stats.counter("stores")
        self._blocked = self.stats.counter("blocked_ops")
        self._kernels = self.stats.counter("kernels")
        self.last_kernel_ticks: int = 0
        self._stall_until: int = 0
        self._inflight: int = 0
        self._quiesce_depth: int = 0
        self._resume_event = engine.event()

    # -- execution --------------------------------------------------------

    def launch(self, asid: int, trace: KernelTrace) -> Process:
        """Start a kernel; returns a process that completes when all
        wavefronts have finished."""
        if not self.enabled:
            from repro.errors import AcceleratorDisabledError

            raise AcceleratorDisabledError(f"{self.accel_id} is disabled")
        if asid not in self.asids:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"asid {asid} is not attached to {self.accel_id}"
            )
        if trace.num_cus > self.geometry.num_cus:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"trace uses {trace.num_cus} CUs; GPU has {self.geometry.num_cus}"
            )
        self._kernels.inc()
        # Reads that hit the per-CU L1 TLB and L1 cache take the flattened
        # dispatch (see _make_l1_read_dispatch). It needs those structures
        # on the path, and it bypasses _do_op, so a subclass that hooks
        # per-op semantics there (e.g. the chaos harness's
        # HangingAccelerator) keeps every read on the Process-per-op path.
        flattened = (
            type(self)._do_op is GPU._do_op
            and getattr(self.path, "l1_tlbs", None) is not None
            and getattr(self.path, "l1_caches", None) is not None
        )
        wavefront_procs = []
        for cu_index, wavefronts in enumerate(trace.cu_wavefronts):
            # Bound per launch: the dispatcher closes over this kernel's
            # ASID, so a later launch cannot redirect these reads.
            read_hit = (
                self._make_l1_read_dispatch(cu_index, asid) if flattened else None
            )
            for wf_ops in wavefronts:
                wavefront_procs.append(
                    self.engine.process(
                        self._run_wavefront(asid, cu_index, wf_ops, read_hit),
                        name=f"{self.accel_id}-cu{cu_index}-wf",
                    )
                )

        def _barrier() -> Generator:
            yield self.engine.all_of(wavefront_procs)
            return None

        return self.engine.process(_barrier(), name=f"{self.accel_id}-kernel")

    def run_kernel(self, asid: int, trace: KernelTrace) -> int:
        """Synchronous convenience: run to completion, return elapsed ticks."""
        start = self.engine.now
        done = self.launch(asid, trace)
        self.engine.run()
        if not done.triggered:
            from repro.sim.engine import SimulationError

            raise SimulationError("kernel did not complete (deadlock?)")
        self.last_kernel_ticks = self.engine.now - start
        return self.last_kernel_ticks

    def _run_wavefront(
        self,
        asid: int,
        cu_index: int,
        ops: Sequence[Op],
        read_hit,
    ) -> Generator:
        """One wavefront. ``read_hit`` is this CU's flattened L1 read-hit
        dispatcher from :meth:`launch`, or ``None`` to run every read as
        a :meth:`_do_op` process."""
        issue = self._issue_ports[cu_index]
        clock = self.clock
        engine = self.engine
        ready_append = engine._ready.append
        period = clock.period_ticks
        mlp = max(1, self.geometry.mlp)
        # FIFO of in-flight ops: op Processes, or the completion Events of
        # flattened reads.
        outstanding: deque = deque()
        ops_counter = self._ops
        loads = self._loads
        stores = self._stores
        spawn = engine.process
        op_name = f"{self.accel_id}-op"
        # Inlined issue-port constants (BandwidthServer.request(1) — keep
        # in lockstep with that method). ``iss_den == 1`` covers every
        # integral ticks-per-byte rate (the GPU clock configs), where the
        # half-even rounding collapses to identity.
        iss_den = issue._tick_den
        iss_cost = issue._tick_num
        iss_simple = iss_den == 1
        iss_inv_bpt = 1.0 / issue.bytes_per_tick
        for gap, vaddr, write in ops:
            if gap:
                # Trace gaps are integer cycles; gap * period is exactly
                # cycles_to_ticks(gap) then (int(round()) is identity on
                # ints). Non-int gaps from hand-built traces take the
                # rounding call.
                yield gap * period if gap.__class__ is int else clock.cycles_to_ticks(gap)
            if vaddr is None:
                continue
            if not self.enabled:
                break  # the OS pulled the plug mid-kernel
            if len(outstanding) >= mlp:
                oldest = outstanding.popleft()
                if not oldest.triggered:
                    yield oldest
            while self._quiesce_depth > 0:
                # Held for a permission downgrade: wait for the resume.
                yield self._resume_event
            if self._stall_until > engine.now:
                # Post-resume pipeline restart delay.
                yield self._stall_until - engine.now
            # Inlined issue.request(1) — one memory instruction per CU
            # cycle. Keep in lockstep with BandwidthServer.request; the
            # ``iss_simple`` arm is the den == 1 specialization where
            # rounding is the identity and the delay is always positive.
            if iss_simple:
                now = engine.now
                free = issue._free_num
                free = (free if free > now else now) + iss_cost
                issue._free_num = free
                issue.bytes_served += 1
                issue.busy_ticks += iss_inv_bpt
                yield free - now
            else:
                delay = issue.request(1)
                if delay:
                    yield delay
            while self._quiesce_depth > 0:
                # The downgrade began while we waited for an issue slot;
                # re-gate so the op translates after the shootdown.
                yield self._resume_event
            ops_counter.value += 1
            if write:
                stores.value += 1
                outstanding.append(
                    spawn(self._do_op(cu_index, asid, vaddr, True), name=op_name)
                )
            else:
                loads.value += 1
                if read_hit is not None:
                    # Flattened read: no Process, no generator chain. The
                    # dispatch entry lands at the exact ready position the
                    # spawned op's first step would take, and every later
                    # push happens at the same global (when, seq) rank —
                    # see _make_l1_read_dispatch for the step-by-step
                    # mapping.
                    evt = Event.__new__(Event)
                    evt._engine = engine
                    evt._waiters = None
                    evt.triggered = False
                    evt.value = None
                    ready_append((_KIND_CALL_VALUE, read_hit, (vaddr, evt)))
                    outstanding.append(evt)
                else:
                    outstanding.append(
                        spawn(self._do_op(cu_index, asid, vaddr, False), name=op_name)
                    )
        for pending in outstanding:
            if not pending.triggered:
                yield pending

    # -- flattened L1 read hits -------------------------------------------
    #
    # A read does not spawn a Process when the path has per-CU L1s. The
    # Process-per-op pipeline for an L1-hit read is:
    #
    #   t2 (ready drain): _do_op first step — TLB lookup, paddr/size,
    #       cache.access prologue, ``yield hit_latency`` (one heap push);
    #   t3 (heap pop): hit/miss decision — on a hit, recency + counter
    #       commit, StopIteration, Process.succeed wakes the wavefront.
    #
    # The flattened path replays that schedule with bare engine entries:
    # a dispatch entry at the same ready position (t2) does the TLB work
    # and pushes a commit entry at the same heap position (t3); the commit
    # entry makes the hit/miss decision *at t3*, exactly where the
    # Process-per-op path makes it, so interleaved evictions/fills between
    # t2 and t3 are observed identically. Every push happens at the same
    # global (when, seq) rank as its Process-per-op counterpart, so
    # same-tick tie-breaks cannot flip. Misses (TLB at t2, cache at t3)
    # fall back to the Process-per-op generators *from the same queue
    # position*, reusing the very code objects of that path.

    def _make_l1_read_dispatch(self, cu_index: int, asid: int):
        """Build this CU's flattened L1 read-hit dispatch entry point.

        All per-op state — TLB entry dict, cache sets, counters, engine
        queue internals — is bound into the closure once per launch, so
        the per-op path is pure local-variable work.
        """
        tlb = self.path.l1_tlbs[cu_index]
        cache = self.path.l1_caches[cu_index]
        entries = tlb._entries
        entries_get = entries.get
        entries_move = entries.move_to_end
        tlb_hits = tlb._hits
        engine = self.engine
        queue = engine._queue
        ready_append = engine._ready.append
        seqnext = engine._seq.__next__
        push = heapq.heappush
        sets = cache._sets
        cache_hits = cache._hits
        block_mask_inv = ~cache._block_mask
        block_size = cache._block_size
        shift = cache._block_shift
        nsets = cache._num_sets
        lat = cache._hit_latency
        gpu = self

        def commit(payload) -> None:
            # At t3, the exact heap-pop position of the Process-per-op
            # read's post-latency resume: the hit/miss decision happens
            # HERE, exactly where Cache._after_latency makes it.
            block_addr, offset, size, evt = payload
            cache_set = sets[(block_addr >> shift) % nsets]
            line = cache_set.get(block_addr)
            if line is not None:
                # The hit path of Cache._after_latency, inlined.
                cache_set.move_to_end(block_addr)
                cache_hits.value += 1
                gpu._inflight -= 1
                evt.succeed(line)
                return
            # The line left the cache between dispatch and the
            # hit-latency boundary (eviction, flush, downgrade, reset).
            # Run the post-latency path — the same code object the
            # Process-per-op read runs — from this exact queue position.
            gpu._spawn_inline(
                gpu._read_after_latency(cache, block_addr, offset, size, evt)
            )

        def dispatch(payload) -> None:
            # At t2, the exact ready-drain position of the Process-per-op
            # read's first step (_do_op): TLB work + the t3 heap push.
            vaddr, evt = payload
            vpn = vaddr >> PAGE_SHIFT
            key = (asid, vpn, False)
            entry = entries_get(key)
            if entry is None:
                key = (asid, vpn & ~0x1FF, True)
                entry = entries_get(key)
                if entry is None:
                    # TLB miss: the whole op runs from this exact queue
                    # position (its lookup() counts the miss once).
                    gpu._spawn_inline(gpu._read_via_do_op(cu_index, asid, vaddr, evt))
                    return
            paddr = ((entry.ppn + vpn - entry.vpn) << PAGE_SHIFT) | (vaddr & 0xFFF)
            size = BLOCK_SIZE - (paddr & BLOCK_MASK)
            block_addr = paddr & block_mask_inv
            offset = paddr - block_addr
            if offset + size > block_size:
                # Block-geometry mismatch: _do_op raises (or handles) it.
                gpu._spawn_inline(gpu._read_via_do_op(cu_index, asid, vaddr, evt))
                return
            # Commit the TLB hit (recency + counter), exactly lookup()'s
            # hit path, at the same instant the Process-per-op read does.
            entries_move(key)
            tlb_hits.value += 1
            gpu._inflight += 1
            if lat:
                push(
                    queue,
                    (
                        engine.now + lat,
                        seqnext(),
                        _KIND_CALL_VALUE,
                        commit,
                        (block_addr, offset, size, evt),
                    ),
                )
            else:
                # hit_latency 0 == the ``yield 0`` of Cache.access: a
                # ready entry.
                ready_append(
                    (_KIND_CALL_VALUE, commit, (block_addr, offset, size, evt))
                )

        return dispatch

    def _spawn_inline(self, gen: Generator) -> None:
        """Start ``gen`` as a process and run its first step *now*.

        The Process-per-op read's first step runs at the current dispatch
        position (its spawn entry is what the flattened entry replaced),
        so stepping synchronously preserves the global entry order.
        """
        proc = Process.__new__(Process)
        proc._engine = self.engine
        proc._waiters = None
        proc.triggered = False
        proc.value = None
        proc._gen = gen
        proc.name = f"{self.accel_id}-op"
        proc._step(None)

    def _read_via_do_op(self, cu_index: int, asid: int, vaddr: int, evt: Event) -> Generator:
        result = yield from self._do_op(cu_index, asid, vaddr, False)
        evt.succeed(result)

    def _read_after_latency(self, cache, block_addr, offset, size, evt) -> Generator:
        try:
            result = yield from cache._after_latency(
                block_addr, offset, size, False, None
            )
        finally:
            self._inflight -= 1
        if result is None:
            self._blocked.inc()
        evt.succeed(result)

    def _do_op(self, cu_index: int, asid: int, vaddr: int, write: bool) -> Generator:
        self._inflight += 1
        try:
            if write:
                result = yield from self.path.mem_op(
                    cu_index, asid, vaddr, True, _payload_for(vaddr)
                )
            else:
                result = yield from self.path.mem_op(cu_index, asid, vaddr, False)
        finally:
            self._inflight -= 1
        if result is None:
            self._blocked.inc()
        return result

    # -- kernel-facing maintenance (AcceleratorBase protocol) -----------------

    def shootdown(self, asid: int, vpn: Optional[int] = None) -> None:
        self.path.shootdown(asid, vpn)

    def drain(self, ticks: int) -> None:
        self._stall_until = max(self._stall_until, self.engine.now + ticks)

    def quiesce_g(self, drain_ticks: int) -> Generator:
        """Hold issue, wait for outstanding requests, stay held (§3.2.4)."""
        self._quiesce_depth += 1
        poll = max(1, drain_ticks // 4) if drain_ticks else 1000
        while self._inflight > 0:
            yield poll
        if drain_ticks:
            yield drain_ticks  # pipeline quiesce on top of the drain
        return None

    def resume(self) -> None:
        if self._quiesce_depth == 0:
            return
        self._quiesce_depth -= 1
        if self._quiesce_depth == 0:
            event, self._resume_event = self._resume_event, self.engine.event()
            event.succeed()

    def flush_caches(self) -> Generator:
        written = yield from self.path.flush_caches()
        return written

    def flush_pages(self, ppns: Iterable[int]) -> Generator:
        written = yield from self.path.flush_pages(ppns)
        return written

    def reset(self, epoch: int) -> None:
        """A hardware reset loses the device's volatile state: cached
        lines (dirty data included) are discarded, not written back —
        whatever the pre-reset device had queued outbound replays under
        the old epoch and dies at the border fence."""
        for cache in getattr(self.path, "l1_caches", []):
            cache.invalidate_all()
        l2 = getattr(self.path, "l2_cache", None)
        if l2 is not None:
            l2.invalidate_all()
        super().reset(epoch)

    def reset_for_reuse(self) -> None:
        """Warm-reuse reset (not the modeled hardware reset): restore the
        device to its post-construction state. The engine queue was reset
        by the owning System, so in-flight wavefronts are already gone."""
        for port in self._issue_ports:
            port.reset()
        self.last_kernel_ticks = 0
        self._stall_until = 0
        self._inflight = 0
        self._quiesce_depth = 0
        self._resume_event = self.engine.event()
        self.enabled = True
        self.epoch = 0
        self.asids.clear()
        self.sandboxes.clear()

    # -- reporting ---------------------------------------------------------

    @property
    def mem_ops(self) -> int:
        return self._ops.value

    @property
    def blocked_ops(self) -> int:
        return self._blocked.value

    def last_kernel_cycles(self) -> float:
        return self.clock.ticks_to_cycles(self.last_kernel_ticks)
