"""The traced run's instruments, installed from outside the program.

:class:`Tracer` wraps the program's public calls in spans (name, start,
end, parent) kept in memory, and runs cProfile over each cell. Profiled
self time is bucketed by ``repro`` package; ``repro.mem`` is split by
module. A function outside ``repro`` (builtins, the standard library,
numpy) has its self time attributed to the ``repro`` packages that
called it, in proportion to each caller's cumulative time through it.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.osmodel.kernel
import repro.sim.engine
import repro.sim.runner
import repro.sim.system

BENCH_BUCKET = "bench"  # the benchmark's own frames, and roots outside repro

# (owner, attribute, span name). generate_trace and collect_result are
# patched where run_single looks them up.
_PATCHES = (
    (repro.sim.system.System, "__init__", "sim.system_build"),
    (repro.sim.runner, "generate_trace", "workloads.generate_trace"),
    (repro.osmodel.kernel.Kernel, "mmap", "osmodel.mmap"),
    (repro.sim.system.System, "run_kernel", "sim.run_kernel"),
    (repro.sim.engine.Engine, "run", "sim.engine_run"),
    (repro.sim.runner, "collect_result", "sim.collect_result"),
)

Func = Tuple[str, int, str]


class Tracer:
    """Context manager: while active, the patched calls record spans."""

    def __init__(self) -> None:
        self.repro_root = Path(repro.__file__).resolve().parent
        self.bench_root = Path(__file__).resolve().parent
        self.spans: List[List] = []  # [name, start, end, parent index]
        self._open: List[int] = []
        self.profile = cProfile.Profile()
        self.trace_calls = 0
        self.trace_memo_hits = 0
        self._traces_seen: List[object] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()

        return wrapped

    def _count_memo(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.trace_calls += 1
            if any(trace is seen for seen in self._traces_seen):
                self.trace_memo_hits += 1
            else:
                self._traces_seen.append(trace)
            return trace

        return wrapped

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrapped = self._span(name, original)
            if name == "workloads.generate_trace":
                wrapped = self._count_memo(wrapped)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._traces_seen.clear()

    def run_cell(self, fn: Callable):
        """Run ``fn`` inside a ``bench.cell`` span with profiling on."""
        cell = self._span("bench.cell", fn)
        self.profile.enable()
        try:
            return cell()
        finally:
            self.profile.disable()

    def span_totals(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            totals[name] += end - start
        return totals

    # -- profile buckets -----------------------------------------------------

    def _direct_bucket(self, filename: str, cache: Dict[str, Optional[str]]) -> Optional[str]:
        if filename in cache:
            return cache[filename]
        bucket = None
        if not filename.startswith("~"):  # "~" marks builtins
            path = Path(filename).resolve()
            if path.is_relative_to(self.repro_root):
                parts = path.relative_to(self.repro_root).parts
                if len(parts) == 1:
                    bucket = "repro"
                elif parts[0] == "mem" and parts[1] != "__init__.py":
                    bucket = "mem." + Path(parts[1]).stem
                else:
                    bucket = parts[0]
            elif path.is_relative_to(self.bench_root):
                bucket = BENCH_BUCKET
        cache[filename] = bucket
        return bucket

    def self_time_buckets(self) -> Tuple[Dict[str, float], float]:
        """(self seconds per bucket, profile total self seconds)."""
        stats = pstats.Stats(self.profile).stats
        file_cache: Dict[str, Optional[str]] = {}
        owners_cache: Dict[Func, Dict[str, float]] = {}

        def owners(func: Func, visiting: frozenset) -> Dict[str, float]:
            """Bucket -> fraction of ``func``'s time, following callers."""
            if func in owners_cache:
                return owners_cache[func]
            bucket = self._direct_bucket(func[0], file_cache)
            if bucket is not None:
                return {bucket: 1.0}
            callers = {
                caller: entry[3]  # cumulative time through this caller
                for caller, entry in stats[func][4].items()
                if caller not in visiting and caller in stats
            }
            weight = sum(callers.values())
            shares: Dict[str, float] = defaultdict(float)
            if not callers:
                shares[BENCH_BUCKET] = 1.0
            for caller, caller_ct in callers.items():
                fraction = caller_ct / weight if weight > 0 else 1.0 / len(callers)
                for owner, share in owners(caller, visiting | {func}).items():
                    shares[owner] += fraction * share
            owners_cache[func] = dict(shares)
            return owners_cache[func]

        buckets: Dict[str, float] = defaultdict(float)
        total = 0.0
        for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
            total += tottime
            for owner, share in owners(func, frozenset()).items():
                buckets[owner] += share * tottime
        return dict(buckets), total
