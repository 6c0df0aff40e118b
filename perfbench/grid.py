"""The benchmark's workloads: which simulation cells each runs, and the
checks every simulated result must pass.

A workload is an ordered list of cells, each one ``run_single`` call.
The simulated outputs are checked two ways:

* **invariants**, for any seed: every trace op completed (``mem_ops``
  equals the trace length), nothing was blocked or flagged as a
  violation, the kernel finished, and downgrade cells saw downgrades;
* **identity**, against ``reference.json``: a digest of every
  ``RunResult`` field per cell, recorded at the default seed and the
  workload's ``ops_scale``. This checks that the simulator computes the
  same statistics as before, not that they match hardware.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import RunResult, run_single
from repro.workloads.registry import get_workload, workload_names

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Fig. 4 driver order (repro.experiments.fig4.grid): baseline, then the
# four safety modes, per workload.
FIG4_MODES = (
    SafetyMode.ATS_ONLY,
    SafetyMode.FULL_IOMMU,
    SafetyMode.CAPI_LIKE,
    SafetyMode.BC_NO_BCC,
    SafetyMode.BC_BCC,
)
# Fig. 7's two modes (repro.experiments.fig7.MODES). Each workload runs
# plain and with a downgrade every 500 GPU cycles: short enough that
# revocation dominates a Border Control cell at this workload's scale.
FIG7_MODES = (SafetyMode.ATS_ONLY, SafetyMode.BC_BCC)
STORM_INTERVAL_CYCLES = 500.0


@dataclasses.dataclass(frozen=True)
class Cell:
    workload: str
    safety: SafetyMode
    threading: GPUThreading
    downgrade_interval_cycles: Optional[float] = None

    @property
    def label(self) -> str:
        label = f"{self.workload}/{self.safety.value}/{self.threading.value}"
        if self.downgrade_interval_cycles is not None:
            label += f"/downgrade-every-{self.downgrade_interval_cycles:g}"
        return label

    def run(self, seed: int, ops_scale: float) -> RunResult:
        return run_single(
            self.workload,
            self.safety,
            self.threading,
            seed=seed,
            ops_scale=ops_scale,
            downgrade_interval_cycles=self.downgrade_interval_cycles,
        )


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops_scale: float
    cells: Tuple[Cell, ...]


def _fig4(threading: GPUThreading) -> Tuple[Cell, ...]:
    return tuple(
        Cell(name, mode, threading)
        for name in workload_names()
        for mode in FIG4_MODES
    )


def _storm() -> Tuple[Cell, ...]:
    """Fig. 7 driver order (repro.experiments.fig7.grid), 8-CU GPU only."""
    return tuple(
        Cell(name, mode, GPUThreading.HIGHLY, interval)
        for mode in FIG7_MODES
        for name in workload_names()
        for interval in (None, STORM_INTERVAL_CYCLES)
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig4-highly", 0.2, _fig4(GPUThreading.HIGHLY)),
        Workload("fig4-moderately", 1.0, _fig4(GPUThreading.MODERATELY)),
        Workload("downgrade-storm", 0.06, _storm()),
    )
}


def digest(result: RunResult) -> str:
    """SHA-256 over every ``RunResult`` field (floats by exact repr)."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    text = json.dumps(fields, sort_keys=True, default=lambda value: value.value)
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_failures(cell: Cell, result: RunResult, ops_scale: float) -> List[str]:
    """Seed-independent checks on one cell's simulated result."""
    spec = get_workload(cell.workload)
    threading = cell.threading
    trace_ops = (
        threading.num_cus
        * threading.wavefronts_per_cu
        * max(1, int(spec.ops_per_wavefront * ops_scale))
    )
    failures = []
    if result.mem_ops != trace_ops:
        failures.append(f"mem_ops {result.mem_ops} != trace length {trace_ops}")
    if result.violations:
        failures.append(f"{result.violations} violation(s)")
    if result.blocked_ops:
        failures.append(f"{result.blocked_ops} blocked op(s)")
    if result.ticks <= 0:
        failures.append("kernel did not complete (ticks <= 0)")
    if (cell.downgrade_interval_cycles is not None) != (result.downgrades > 0):
        failures.append(f"{result.downgrades} downgrade(s) at interval "
                        f"{cell.downgrade_interval_cycles}")
    if cell.safety.uses_border_control != (result.border_checks > 0):
        failures.append(f"border_checks {result.border_checks} under {cell.safety.value}")
    return failures


def load_reference(path: Path, workload: Workload, seed: int) -> Optional[Dict[str, str]]:
    """Reference digests for this run, or None when (seed, scale) differ.

    A reference file that exists but holds no entry for a workload at
    this seed and scale yields None as well: only invariants are checked.
    """
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    entry = data.get("workloads", {}).get(workload.name)
    if entry is None or data.get("seed") != seed or entry["ops_scale"] != workload.ops_scale:
        return None
    return entry["cells"]


def write_reference(path: Path, workload: Workload, seed: int, digests: Dict[str, str]) -> None:
    """Record ``digests`` for one workload, keeping other workloads' entries."""
    data = json.loads(path.read_text()) if path.is_file() else {}
    if data.get("seed") != seed:
        data = {"seed": seed, "workloads": {}}
    data["workloads"][workload.name] = {"ops_scale": workload.ops_scale, "cells": digests}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
