#!/usr/bin/env python3
"""Figure-grid benchmark: host time to simulate the paper's figure cells.

One process runs the cells of a workload (see ``grid.py``) one after
another through ``repro.sim.runner.run_single``: a closed loop with one
client, no worker pool and no result cache. Each pass over the cells
starts from ``clear_trace_cache()`` and ``clear_warm_registry()``, so it
pays trace generation once per (workload, threading) as a fresh
``repro fig4`` does. Passes repeat while another fits in ``--seconds``.

The host's speed drifts by tens of percent within seconds, for this
process and for a fixed loop alike, so the end-to-end timings are given
in reference seconds: each cell's host seconds scaled by the speed of a
fixed pure-Python calibration loop timed just before and just after it
(see ``_calibration_seconds``). Host-second figures are printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced pass, then one traced pass (spans around the program's public
calls plus cProfile self time by package, see ``spans.py``), and prints
the per-layer metrics. Every line ``<name> = <value> <unit>`` is a
metric; the last line is a JSON summary.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-highly --seed 1234 --seconds 35 --trace 0
    python3 perfbench/run.py --workload downgrade-storm --trace 1
    python3 perfbench/run.py --workload fig4-moderately --record   # rewrite reference.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
PROBE_CALIBRATIONS = 4  # loop timings on each side of a set-up probe
TAIL_PERCENTILE = 90
READY = "ready"
# A reference second is the time a host that runs the calibration loop
# in exactly this many seconds would take.
CALIBRATION_NOMINAL_S = 0.005

# (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("mem_ops_per_ref_s", "1/ref_s"),
    ("cell_ref_s_p50", "ref_s"),
    ("cell_ref_s_tail", "ref_s"),
    ("peak_rss_mb", "MB"),
    ("cell_ok_rate", "ratio"),
)

# Profiled self-time buckets reported as per-layer metrics, with the
# (end-to-end metric, workload) each should move.
SELF_TIME_TARGETS = {
    "sim": "mem_ops_per_ref_s on fig4-highly",
    "accel": "mem_ops_per_ref_s on fig4-highly",
    "mem.cache": "mem_ops_per_ref_s on fig4-highly",
    "iommu": "cell_ref_s_tail on fig4-highly",
    "vm": "cell_ref_s_tail on fig4-highly",
    "workloads": "cell_ref_s_p50 on fig4-moderately",
    "mem.phys_memory": "cell_ref_s_p50 on fig4-moderately",
    "core": "mem_ops_per_ref_s on downgrade-storm",
    "osmodel": "mem_ops_per_ref_s on downgrade-storm",
    "mem.dram": "mem_ops_per_ref_s on downgrade-storm",
}
SPAN_TARGETS = {
    "workloads.generate_trace": "cell_ref_s_p50 on fig4-moderately",
    "osmodel.mmap": "cell_ref_s_p50 on fig4-moderately",
    "sim.system_build": "cell_ref_s_p50 on fig4-moderately",
    "sim.run_kernel": "denominator for the set-up spans on fig4-moderately",
    "sim.engine_run": "mem_ops_per_ref_s on every workload (the simulated kernel)",
    "sim.collect_result": "cell_ref_s_p50 on fig4-moderately",
}
EXACT = "exact count: a simulator-only change must leave it identical"
# (name, unit, target) of the per-layer metrics computed from RunResults.
COUNT_METRICS = (
    ("accel.mem_ops", "count", EXACT),
    ("core.border_checks", "count", EXACT),
    ("core.border_check_ratio", "ratio", "property share: border checks per mem op"),
    ("core.pt_accesses", "count", "mem_ops_per_ref_s on downgrade-storm"),
    ("core.bcc_hit_ratio", "ratio", "mem_ops_per_ref_s on downgrade-storm"),
    ("iommu.ats_translations", "count", "cell_ref_s_tail on fig4-highly"),
    ("iommu.ats_walk_ratio", "ratio", "cell_ref_s_tail on fig4-highly"),
    ("mem.l1_hit_ratio", "ratio", EXACT),
    ("mem.l2_hit_ratio", "ratio", EXACT),
    ("mem.l2_writebacks", "count", "mem_ops_per_ref_s on downgrade-storm"),
    ("mem.dram_bytes", "B", EXACT),
    ("sim.sim_cycles", "cycles", EXACT),
    ("osmodel.downgrades", "count", "mem_ops_per_ref_s on downgrade-storm"),
    ("osmodel.downgrades_per_cell", "count", "property share: downgrades per cell"),
)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops-scale", type=float, default=None,
        help="override the workload's trace scale (the self-test uses a tiny one)",
    )
    parser.add_argument(
        "--reference", type=Path, default=None,
        help="reference digest file (default: reference.json beside this script)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="run one pass and write its digests to the reference file",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclasses.dataclass
class Outcome:
    """One executed cell: host seconds, the same in reference seconds,
    the calibration seconds that scaled it, result (None if it raised),
    failures."""

    label: str
    seconds: float
    ref_seconds: float
    calibration_s: float
    result: object
    digest: Optional[str]
    failures: List[str]


def _calibration_seconds() -> float:
    """Host seconds for one run of a fixed pure-Python loop (dict reads
    and writes, integer arithmetic): a probe of the host's current speed.
    Its cost must never change, or reference seconds change meaning."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(30000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - start


def _run_pass(workload, seed: int, tracer=None,
              after_cell: Callable[[Outcome], bool] = lambda outcome: False) -> List[Outcome]:
    """Run every cell once, calling ``after_cell`` after each. The
    calibration loop runs before the first cell, after each cell, and
    again whenever ``after_cell`` says it did other work; a cell's
    reference seconds use the mean of the two timings next to it."""
    from grid import digest, invariant_failures
    from repro.sim.runner import clear_warm_registry
    from repro.workloads.base import clear_trace_cache

    clear_trace_cache()
    clear_warm_registry()
    outcomes = []
    calibration_before = _calibration_seconds()
    for cell in workload.cells:
        call = lambda: cell.run(seed, workload.ops_scale)  # noqa: E731
        result, digest_, failures = None, None, []
        start = time.perf_counter()
        try:
            result = tracer.run_cell(call) if tracer else call()
        except Exception as exc:  # a failing cell is counted, not fatal
            failures.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        calibration_after = _calibration_seconds()
        calibration = (calibration_before + calibration_after) / 2
        calibration_before = calibration_after
        if result is not None:
            digest_ = digest(result)
            failures = invariant_failures(cell, result, workload.ops_scale)
        outcomes.append(Outcome(cell.label, seconds,
                                seconds * CALIBRATION_NOMINAL_S / calibration,
                                calibration, result, digest_, failures))
        if after_cell(outcomes[-1]):
            calibration_before = _calibration_seconds()
    return outcomes


def _check_identity(passes: List[List[Outcome]], reference: Optional[Dict[str, str]]) -> None:
    """Add a failure to each outcome whose digest differs from the
    reference (when one applies) or from the first pass's same cell."""
    first = {o.label: o.digest for o in passes[0]}
    for outcomes in passes:
        for o in outcomes:
            if o.digest is None:
                continue
            if reference is not None and reference.get(o.label) != o.digest:
                o.failures.append("digest differs from reference")
            if o.digest != first[o.label]:
                o.failures.append("digest differs from the first pass")


def _tail(samples: List[float]) -> Tuple[float, int]:
    """Nearest-rank ``TAIL_PERCENTILE`` value, and how many samples lie
    above it. The percentile is fixed, not the highest with ten samples
    beyond it: the number of passes, and so of samples, varies from run
    to run, and a percentile that moved with it would move the value."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE * len(ordered) / 100)
    return ordered[rank - 1], len(ordered) - rank


def _setup_probe_seconds(args: argparse.Namespace) -> Tuple[float, float]:
    """Spawn this script as a set-up probe: (host seconds until it is
    ready, the same in reference seconds)."""
    calibration_before = statistics.mean(
        _calibration_seconds() for _ in range(PROBE_CALIBRATIONS))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.reference is not None:
        cmd += ["--reference", str(args.reference)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line != READY or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    calibration_after = statistics.mean(
        _calibration_seconds() for _ in range(PROBE_CALIBRATIONS))
    calibration = (calibration_before + calibration_after) / 2
    return elapsed, elapsed * CALIBRATION_NOMINAL_S / calibration


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def _end_to_end(passes: List[List[Outcome]], setup: List[Tuple[float, float]],
                peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    # Timings cover every attempted cell: a failed cell is still waited
    # for. Throughput counts only the mem ops of cells that passed.
    executed = [o for outcomes in passes for o in outcomes]
    ok = [o for o in executed if not o.failures]
    ok_mem_ops = sum(o.result.mem_ops for o in ok)
    ref = [o.ref_seconds for o in executed]
    host = [o.seconds for o in executed]
    ref_tail, ref_beyond = _tail(ref)
    host_tail, host_beyond = _tail(host)
    error_rate = 1 - len(ok) / len(executed)
    values = {
        "setup_s": statistics.median(ref_s for _host_s, ref_s in setup),
        "mem_ops_per_ref_s": ok_mem_ops / sum(ref),
        "cell_ref_s_p50": statistics.median(ref),
        "cell_ref_s_tail": ref_tail,
        "peak_rss_mb": peak_rss_mb,
        "cell_ok_rate": 1 - error_rate,
    }
    notes = {
        "setup_s": f"reference s; median of {len(setup)} fresh processes, "
                   "start to first timed cell",
        "mem_ops_per_ref_s": f"{len(passes)} pass(es), {sum(ref):.3f} ref s",
        "cell_ref_s_p50": f"n={len(ref)}",
        "cell_ref_s_tail": f"p{TAIL_PERCENTILE}, n={len(ref)}, {ref_beyond} beyond",
        "peak_rss_mb": "this process, untraced passes",
        "cell_ok_rate": f"{len(ok)} of {len(executed)} cells",
    }
    for name, unit in END_TO_END:
        _line(name, values[name], unit, notes[name])
    _line("cell_error_rate", error_rate, "ratio", "failed cells / attempted cells")
    # The same timings in host seconds, unscaled: what a user waits for
    # on this host at this moment.
    calibration = [o.calibration_s for o in executed]
    _line("mem_ops_per_s", ok_mem_ops / sum(host), "1/s", f"{sum(host):.3f} host s")
    _line("cell_s_p50", statistics.median(host), "s", f"n={len(host)}")
    _line("cell_s_tail", host_tail, "s", f"p{TAIL_PERCENTILE}, n={len(host)}, {host_beyond} beyond")
    _line("setup_host_s", statistics.median(host_s for host_s, _ref_s in setup), "s",
          f"median of {len(setup)}")
    _line("calibration_s_p50", statistics.median(calibration), "s",
          f"nominal {CALIBRATION_NOMINAL_S:g} s; IQR/median "
          f"{_spread(calibration):.2f} over {len(calibration)} cells")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _spread(values: List[float]) -> float:
    """Interquartile range over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _per_layer(outcomes: List[Outcome], tracer, untraced_s: float) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str, note: str) -> None:
        metrics[name] = (value, unit)
        _line(name, value, unit, note)

    buckets, profile_total = tracer.self_time_buckets()
    spans = tracer.span_totals()
    traced_s = sum(o.seconds for o in outcomes)
    for bucket, target in SELF_TIME_TARGETS.items():
        seconds = buckets.get(bucket, 0.0)
        put(f"{bucket}.self_s", seconds, "s", f"target: {target}")
        put(f"{bucket}.self_share", seconds / profile_total, "ratio", "of profiled self time")
    for bucket in sorted(set(buckets) - set(SELF_TIME_TARGETS)):
        print(f"# other bucket {bucket}.self_s = {buckets[bucket]:.6g} s "
              f"({buckets[bucket] / profile_total:.1%})")
    for span, target in SPAN_TARGETS.items():
        put(f"{span}_s", spans.get(span, 0.0), "s", f"inclusive span, target: {target}")
    set_up = spans.get("sim.system_build", 0.0) + spans.get("workloads.generate_trace", 0.0)
    kernel = spans.get("sim.engine_run", 0.0)
    put("setup.share", set_up / (set_up + kernel), "ratio",
        f"set-up spans vs kernel; sim.run_kernel_s / bench.cell_s = "
        f"{spans.get('sim.run_kernel', 0.0) / spans['bench.cell']:.3f}")
    put("workloads.trace_memo_hit_ratio", tracer.trace_memo_hits / tracer.trace_calls,
        "ratio", f"{tracer.trace_memo_hits} of {tracer.trace_calls} generate_trace calls "
        "returned an already-seen trace")

    results = [o.result for o in outcomes if o.result is not None]
    total = lambda field: sum(getattr(r, field) for r in results)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    counts = {
        "accel.mem_ops": total("mem_ops"),
        "core.border_checks": total("border_checks"),
        "core.border_check_ratio": ratio(total("border_checks"), total("mem_ops")),
        "core.pt_accesses": total("border_pt_accesses"),
        "core.bcc_hit_ratio": ratio(total("bcc_hits"), total("bcc_hits") + total("bcc_misses")),
        "iommu.ats_translations": total("ats_translations"),
        "iommu.ats_walk_ratio": ratio(total("ats_walks"), total("ats_translations")),
        "mem.l1_hit_ratio": ratio(total("l1_hits"), total("l1_hits") + total("l1_misses")),
        "mem.l2_hit_ratio": ratio(total("l2_hits"), total("l2_hits") + total("l2_misses")),
        "mem.l2_writebacks": total("l2_writebacks"),
        "mem.dram_bytes": total("dram_bytes"),
        "sim.sim_cycles": total("gpu_cycles"),
        "osmodel.downgrades": total("downgrades"),
        "osmodel.downgrades_per_cell": ratio(total("downgrades"), len(results)),
    }
    for name, unit, target in COUNT_METRICS:
        put(name, counts[name], unit, target)

    bucket_sum = sum(buckets.values())
    put("trace.bucket_sum_ratio", bucket_sum / profile_total, "ratio",
        f"buckets {bucket_sum:.4f} s of profiled {profile_total:.4f} s")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio",
        f"traced pass {traced_s:.3f} s / untraced pass {untraced_s:.3f} s")
    return metrics


def _print_environment() -> None:
    from repro.sim.batch import numpy_available, vector_enabled
    from repro.sim.runner import warm_enabled

    numpy = "absent"
    if numpy_available():
        import numpy as np

        numpy = np.__version__
    print(f"# env nproc={os.cpu_count()} "
          f"REPRO_VECTOR={os.environ.get('REPRO_VECTOR', 'unset')} (vector tier "
          f"{'on' if vector_enabled() else 'off'}) "
          f"REPRO_WARM={os.environ.get('REPRO_WARM', 'unset')} (warm reuse "
          f"{'on' if warm_enabled() else 'off'}) numpy={numpy}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    _import_program()
    import grid

    if args.workload not in grid.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(grid.WORKLOADS)}")
    workload = grid.WORKLOADS[args.workload]
    if args.ops_scale is not None:
        workload = dataclasses.replace(workload, ops_scale=args.ops_scale)
    reference_path = args.reference or grid.REFERENCE_PATH
    reference = grid.load_reference(reference_path, workload, args.seed)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    if args.record:
        outcomes = _run_pass(workload, args.seed)
        bad = [o for o in outcomes if o.failures]
        for o in bad:
            print(f"# FAIL {o.label}: {'; '.join(o.failures)}")
        if bad:
            return 1
        grid.write_reference(reference_path, workload, args.seed,
                             {o.label: o.digest for o in outcomes})
        print(f"# recorded {len(outcomes)} digests for {workload.name} in {reference_path}")
        return 0

    # One set-up probe before timing starts, the rest spread over the
    # timed passes (between cells), so that the median sees more than one
    # phase of the host's speed.
    setup = [_setup_probe_seconds(args)]
    _print_environment()
    print(f"# workload {workload.name}: {len(workload.cells)} cells, "
          f"ops_scale={workload.ops_scale:g}, seed={args.seed}; simulated outputs checked "
          + ("against reference digests" if reference is not None
             else "by invariants and pass-to-pass identity (no reference for this seed/scale)"))

    passes: List[List[Outcome]] = []
    measured_s = 0.0  # host seconds in cells so far; probes and calibration excluded
    probe_every = args.seconds / SETUP_PROBES

    def after_cell(outcome: Outcome) -> bool:
        """Count the cell's time; run a set-up probe if one is due."""
        nonlocal measured_s
        measured_s += outcome.seconds
        if len(setup) >= SETUP_PROBES or measured_s < len(setup) * probe_every:
            return False
        setup.append(_setup_probe_seconds(args))
        return True

    longest = 0.0
    while True:
        pass_start = measured_s
        passes.append(_run_pass(workload, args.seed, after_cell=after_cell))
        longest = max(longest, measured_s - pass_start)
        if args.trace or measured_s + longest > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe_seconds(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced: List[Outcome] = []
    tracer = None
    if args.trace:
        from spans import Tracer

        with Tracer() as tracer:
            traced = _run_pass(workload, args.seed, tracer)
        passes.append(traced)
    _check_identity(passes, reference)
    for outcomes in passes:
        for o in outcomes:
            if o.failures:
                print(f"# FAIL {o.label}: {'; '.join(o.failures)}")

    untraced = passes[:-1] if args.trace else passes
    metrics = _end_to_end(untraced, setup, peak_rss_mb)
    correct = True
    if args.trace:
        metrics = _per_layer(traced, tracer, sum(o.seconds for o in passes[0]))
        if abs(metrics["trace.bucket_sum_ratio"][0] - 1) > 0.01:
            print("# FAIL profile buckets do not sum to within 1% of the profile total")
            correct = False
    attempted = sum(len(outcomes) for outcomes in passes)
    failed = sum(1 for outcomes in passes for o in outcomes if o.failures)
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
