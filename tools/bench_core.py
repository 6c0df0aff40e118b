#!/usr/bin/env python
"""Core-path microbenchmarks and the ``BENCH_core.json`` snapshot.

Measures the simulator's hot layers in isolation — discrete-event engine
dispatch, cache hit servicing, BCC lookups, bandwidth-server accounting —
plus the end-to-end fig4 reference cell, and writes a schema-versioned
snapshot so the performance trajectory is visible across PRs.

The committed ``BENCH_core.json`` keeps two sections: ``baseline``
(the pre-optimization core, recorded once with ``--record-baseline``
before the fast-path work landed) and ``current`` (refreshed by every
other run). ``--check`` compares a fresh end-to-end measurement against
``current`` and fails on a >40% regression — the CI ``perf-smoke`` step
runs it.

Usage::

    PYTHONPATH=src python tools/bench_core.py                  # refresh "current"
    PYTHONPATH=src python tools/bench_core.py --record-baseline
    PYTHONPATH=src python tools/bench_core.py --check          # CI regression gate
    PYTHONPATH=src python tools/bench_core.py --quick          # faster, noisier
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_SCHEMA = "repro-core-bench-v3"
DEFAULT_OUT = REPO_ROOT / "BENCH_core.json"

#: ``bench_history`` keeps at most this many entries (oldest dropped).
HISTORY_MAX = 200

#: The fig4 reference cell the end-to-end number (and the CI gate) uses.
REFERENCE_CELL = {
    "workload": "bfs",
    "safety": "border-control-bcc",
    "threading": "highly-threaded",
    "seed": 1234,
    "ops_scale": 1.0,
}

#: CI gate: fail when end-to-end throughput drops below this fraction
#: of the committed snapshot. Deliberately loose: shared-runner hosts
#: swing 30-40% between scheduling phases (measured on the reference
#: box: 68k..104k mem ops/s across minutes), while the regressions this
#: gate exists to catch — an accidentally disabled fast path, a
#: quadratic loop — cost 2x or more. 0.6 clears the noise band and
#: still fails hard on real regressions.
REGRESSION_FLOOR = 0.6


def _best_of(fn: Callable[[], int], repeats: int) -> tuple:
    """(best_seconds, ops) over ``repeats`` runs of ``fn`` (returns ops)."""
    best = None
    ops = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, ops


def bench_engine(quick: bool) -> float:
    """Engine dispatch rate (events/sec): timer yields + event waits."""
    from repro.sim.engine import Engine

    n_procs, n_steps = (20, 500) if quick else (50, 2000)

    def run() -> int:
        engine = Engine()

        def ticker():
            for _ in range(n_steps):
                yield 10

        for _ in range(n_procs):
            engine.process(ticker())
        engine.run()
        return n_procs * n_steps

    seconds, ops = _best_of(run, 3)
    return ops / seconds


def bench_cache(quick: bool) -> float:
    """L1-hit service rate (accesses/sec) through the engine."""
    from repro.mem.cache import Cache, CacheConfig
    from repro.mem.port import MemoryPort
    from repro.sim.engine import Engine
    from repro.sim.stats import StatDomain

    class _ZeroPort(MemoryPort):
        def access(self, addr, size, write, data=None):
            return b"\x00" * size
            yield  # pragma: no cover

    n_accesses = 20_000 if quick else 100_000
    engine = Engine()
    cache = Cache(
        engine,
        CacheConfig("bench-l1", 16 * 1024, 4, hit_latency_ticks=1),
        _ZeroPort(),
        StatDomain("bench"),
    )
    addrs = [(i % 64) * 128 for i in range(n_accesses)]

    def run() -> int:
        def driver():
            for addr in addrs:
                yield from cache.access(addr, 8, False)

        engine.run_process(driver())
        return n_accesses

    seconds, ops = _best_of(run, 3)
    return ops / seconds


def bench_bcc(quick: bool) -> float:
    """BCC lookup rate (lookups/sec), mostly hits with periodic misses."""
    import random

    from repro.core.bcc import BCCConfig, BorderControlCache
    from repro.core.protection_table import ProtectionTable
    from repro.mem.phys_memory import PhysicalMemory
    from repro.vm.frame_allocator import FrameAllocator

    n_lookups = 50_000 if quick else 200_000
    phys = PhysicalMemory(64 * 1024 * 1024)
    table = ProtectionTable.allocate(phys, FrameAllocator(phys))
    bcc = BorderControlCache(BCCConfig())
    rng = random.Random(11)
    pages = [rng.randrange(0, 8192) for _ in range(512)]

    def run() -> int:
        for i in range(n_lookups):
            bcc.lookup(pages[i & 511], table)
        return n_lookups

    seconds, ops = _best_of(run, 3)
    return ops / seconds


def bench_bandwidth(quick: bool) -> float:
    """BandwidthServer accounting rate (requests/sec)."""
    from repro.sim.clock import TICKS_PER_SECOND
    from repro.sim.engine import BandwidthServer, Engine

    n_requests = 50_000 if quick else 200_000
    engine = Engine()
    server = BandwidthServer(engine, 180e9, TICKS_PER_SECOND)

    def run() -> int:
        for _ in range(n_requests):
            server.request(128)
        return n_requests

    seconds, ops = _best_of(run, 3)
    return ops / seconds


def bench_end_to_end(quick: bool, repeats: Optional[int] = None) -> Dict[str, float]:
    """Wall seconds and sims/min for the fig4 reference cell."""
    from repro.sim.config import GPUThreading, SafetyMode
    from repro.sim.runner import run_single

    ops_scale = 0.25 if quick else REFERENCE_CELL["ops_scale"]
    if repeats is None:
        repeats = 2 if quick else 3

    def run() -> int:
        result = run_single(
            REFERENCE_CELL["workload"],
            SafetyMode(REFERENCE_CELL["safety"]),
            GPUThreading(REFERENCE_CELL["threading"]),
            seed=REFERENCE_CELL["seed"],
            ops_scale=ops_scale,
        )
        return result.mem_ops

    seconds, mem_ops = _best_of(run, repeats)
    return {
        "end_to_end_seconds": round(seconds, 4),
        "sims_per_minute": round(60.0 / seconds, 2),
        "mem_ops": mem_ops,
        "mem_ops_per_sec": round(mem_ops / seconds, 1),
        "ops_scale": ops_scale,
    }


def measure(quick: bool) -> Dict[str, object]:
    out: Dict[str, object] = {
        "engine_events_per_sec": round(bench_engine(quick), 1),
        "cache_accesses_per_sec": round(bench_cache(quick), 1),
        "bcc_lookups_per_sec": round(bench_bcc(quick), 1),
        "bandwidth_requests_per_sec": round(bench_bandwidth(quick), 1),
    }
    out.update(bench_end_to_end(quick))
    out["quick"] = quick
    return out


def _load(path: Path) -> Optional[Dict[str, object]]:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _write_atomic(path: Path, payload: Dict[str, object]) -> None:
    """mkstemp + os.replace, matching ``repro.sweep.write_bench``: a
    reader (CI artifact upload, a concurrent --check) never observes a
    truncated snapshot, and a crashed bench never corrupts the committed
    one."""
    text = json.dumps(payload, indent=2) + "\n"
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _history_entry(measured: Dict[str, object], section: str) -> Dict[str, object]:
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "section": section,
        "quick": measured.get("quick", False),
        "sims_per_minute": measured.get("sims_per_minute"),
        "end_to_end_seconds": measured.get("end_to_end_seconds"),
        "engine_events_per_sec": measured.get("engine_events_per_sec"),
    }


def _speedups(baseline: Dict, current: Dict) -> Dict[str, float]:
    pairs = {
        "end_to_end": "sims_per_minute",
        "engine": "engine_events_per_sec",
        "cache": "cache_accesses_per_sec",
        "bcc": "bcc_lookups_per_sec",
        "bandwidth": "bandwidth_requests_per_sec",
    }
    out = {}
    for label, key in pairs.items():
        base = baseline.get(key)
        cur = current.get(key)
        if base and cur:
            out[label] = round(cur / base, 3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts, quick reference cell")
    parser.add_argument("--record-baseline", action="store_true",
                        help="write measurements into the 'baseline' section")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: compare a fresh end-to-end "
                             "measurement against the committed snapshot "
                             "without rewriting it")
    args = parser.parse_args(argv)

    committed = _load(args.out)

    if args.check:
        if not committed or "current" not in committed:
            print(f"no committed snapshot at {args.out}; nothing to check")
            return 1
        section = committed["current"]
        # Best-of more repeats than a snapshot run: the gate must not
        # flake when the host is in a slow scheduling phase, and the
        # quick cell is cheap enough to sample generously.
        fresh = bench_end_to_end(quick=args.quick, repeats=6 if args.quick else 4)
        pinned = section["sims_per_minute"]
        if args.quick:
            # The quick cell runs a quarter of the ops; sims/min is not
            # comparable to the committed full-cell number, so gate on
            # per-op throughput instead (ops/sec is scale-invariant).
            pinned = section.get("mem_ops_per_sec") or pinned
            measured = fresh["mem_ops_per_sec"]
            metric = "mem ops/s"
        else:
            measured = fresh["sims_per_minute"]
            metric = "sims/min"
        floor = pinned * REGRESSION_FLOOR
        status = "ok" if measured >= floor else "REGRESSION"
        print(
            f"perf-smoke: fresh {measured} {metric} vs "
            f"committed {pinned} (floor {floor:.2f}) -> {status}"
        )
        return 0 if status == "ok" else 1

    measured = measure(args.quick)
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "reference_cell": REFERENCE_CELL,
        "baseline": (committed or {}).get("baseline"),
        "current": (committed or {}).get("current"),
    }
    section = "baseline" if args.record_baseline else "current"
    payload[section] = measured
    if payload["baseline"] and payload["current"]:
        payload["speedup"] = _speedups(payload["baseline"], payload["current"])
    # The perf trajectory stays machine-readable across runs instead of
    # being overwritten: every measurement appends a timestamped entry.
    history = list((committed or {}).get("bench_history") or [])
    history.append(_history_entry(measured, section))
    payload["bench_history"] = history[-HISTORY_MAX:]
    _write_atomic(args.out, payload)
    print(f"wrote {args.out} ({section} section)")
    for key, value in measured.items():
        print(f"  {key:<28} {value}")
    if "speedup" in payload:
        for key, value in payload["speedup"].items():
            print(f"  speedup[{key}]: {value}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
