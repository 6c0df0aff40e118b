"""The campaign driver: one resume/journal/dispatch path, one failure contract.

Sweep, chaos and recovery grids all run through
:func:`repro.sweep.run_campaign`. These tests pin what that buys:

* a raising cell is journaled ``ok=false`` and surfaces as
  :class:`~repro.errors.SweepError` carrying the survivors, at every
  worker count;
* interrupting a run after any number of cells and resuming it on the
  same journal gives the same survivors and the same per-cell failure
  records as an uninterrupted serial run, re-executing only the cells
  without an ``ok`` entry;
* journal keys are stable across releases, so old journals still
  resume;
* service jobs of every campaign kind stream per-cell progress.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.errors import JobCancelled, SweepError
from repro.experiments import common
from repro.faults import FaultKind
from repro.journal import RunJournal
from repro.recovery import recovery_campaign, recovery_grid, run_recovery_campaign
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import chaos_campaign, chaos_grid, run_chaos_campaign
from repro.supervisor import SupervisorPolicy
from repro import sweep
from repro.sweep import Cell, sweep_campaign

from tests.util import profile_settings

SCALE = 0.02
BAD = "no-such-workload"
POLICY = SupervisorPolicy(backoff_base=0.001)

#: Three cells per kind; the middle one raises (unknown workload).
WORKLOADS = ["bfs", BAD, "nn"]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    common.clear_cache()
    yield
    common.clear_cache()


def _sweep_cells() -> List[Cell]:
    return [
        Cell(w, SafetyMode.ATS_ONLY, GPUThreading.MODERATELY, ops_scale=SCALE)
        for w in WORKLOADS
    ]


def _campaign_and_cells(kind: str):
    if kind == "sweep":
        return sweep_campaign(), _sweep_cells()
    if kind == "chaos":
        return chaos_campaign(), chaos_grid(WORKLOADS, [FaultKind.DROP], ops_scale=SCALE)
    return recovery_campaign(), recovery_grid(WORKLOADS, ["storm"], ops_scale=SCALE)


def _run(kind, workers, journal, should_abort=None, progress=None):
    """One run of ``kind``; returns the survivors as comparable JSON.

    Raises :class:`JobCancelled` when chaos/recovery were aborted; a
    sweep reports aborted cells in its report instead.
    """
    campaign, cells = _campaign_and_cells(kind)
    kwargs = dict(
        workers=workers,
        policy=POLICY,
        journal=journal,
        should_abort=should_abort,
        progress=progress,
    )
    if kind == "sweep":
        report = sweep.run_sweep(cells, **kwargs)
        return [
            (out.cell.label, common._result_to_dict(out.result))
            for out in report.outcomes
            if out.ok
        ]
    entry = run_chaos_campaign if kind == "chaos" else run_recovery_campaign
    grid_kwargs = dict(workloads=WORKLOADS, ops_scale=SCALE)
    if kind == "chaos":
        grid_kwargs["kinds"] = [FaultKind.DROP]
    else:
        grid_kwargs["scenarios"] = ["storm"]
    with pytest.raises(SweepError) as exc_info:
        entry(**grid_kwargs, **kwargs)
    return [campaign.to_dict(None, run) for run in exc_info.value.outcomes]


def _records(kind: str, journal: RunJournal) -> Dict[str, Tuple[bool, str]]:
    """Per-cell failure records: ``(ok, first line of error)`` by label."""
    campaign, cells = _campaign_and_cells(kind)
    entries = journal.entries()
    out = {}
    for cell in cells:
        entry = entries[campaign.key(cell)]
        error = entry.get("error") or ""
        out[campaign.label(cell)] = (entry["ok"], error.splitlines()[0] if error else "")
    return out


_run_ids = itertools.count()


def _journal() -> RunJournal:
    return RunJournal.create(f"campaign-{next(_run_ids)}")


# ---------------------------------------------------------------------------
# (a) the failure contract is the same at every worker count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["chaos", "recovery"])
def test_raising_cell_is_journaled_and_raises_with_survivors(kind, workers):
    campaign, cells = _campaign_and_cells(kind)
    with _journal() as journal:
        survivors = _run(kind, workers, journal)
        bad = journal.entries()[campaign.key(cells[1])]
        good = [journal.completed(campaign.key(cells[i])) for i in (0, 2)]
    assert bad["ok"] is False
    assert bad["error"].startswith("KeyError")
    assert bad["result"] is None
    assert all(entry is not None and entry["result"] for entry in good)
    assert [s["workload"] for s in survivors] == ["bfs", "nn"]


# ---------------------------------------------------------------------------
# (b) interrupt anywhere, resume: same survivors, same failure records
# ---------------------------------------------------------------------------

_reference: Dict[str, tuple] = {}


def _uninterrupted(kind: str):
    if kind not in _reference:
        with _journal() as journal:
            survivors = _run(kind, 1, journal)
            _reference[kind] = (survivors, _records(kind, journal))
    return _reference[kind]


@profile_settings(
    scale=0.5,
    # The cache-isolating fixture is per test, not per example; every
    # example journals under its own run id, so sharing it is safe.
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
    ],
)
@given(
    kind=st.sampled_from(["sweep", "chaos", "recovery"]),
    workers=st.sampled_from([1, 2]),
    k=st.integers(min_value=0, max_value=len(WORKLOADS)),
)
def test_interrupted_then_resumed_matches_serial(kind, workers, k):
    common.clear_cache()
    expected_survivors, expected_records = _uninterrupted(kind)
    campaign, cells = _campaign_and_cells(kind)
    landed: List[str] = []

    def count(done, total, label, error):
        landed.append(label)

    with _journal() as journal:
        try:
            _run(kind, workers, journal, lambda: len(landed) >= k, count)
        except JobCancelled:
            pass
        missing = sorted(
            campaign.label(cell)
            for cell in cells
            if journal.completed(campaign.key(cell)) is None
        )
        executed: List[str] = []
        survivors = _run(
            kind,
            workers,
            journal,
            progress=lambda done, total, label, error: executed.append(label),
        )
        records = _records(kind, journal)
    assert sorted(executed) == missing
    assert survivors == expected_survivors
    assert records == expected_records


# ---------------------------------------------------------------------------
# (c) journal keys are stable: old journals keep resuming
# ---------------------------------------------------------------------------


def test_journal_keys_are_stable():
    chaos = chaos_campaign()
    chaos_cells = chaos_grid(["bfs"], [FaultKind.DROP, FaultKind.HANG], ops_scale=0.1)
    assert [chaos.key(c) for c in chaos_cells] == [
        "chaos-a8d54113c73c47c36a407c68",
        "chaos-f619a12857c7ebb70ed74fb7",
        "chaos-435e5aa22ebdbcd1508e40e3",
    ]
    (recovery_cell,) = recovery_grid(["bfs"], ["hang"], ops_scale=0.1)
    assert recovery_campaign().key(recovery_cell) == "recovery-75ea0234710ff46d9a858a12"
    cell = Cell("bfs", SafetyMode.BC_BCC, GPUThreading.MODERATELY, ops_scale=0.1)
    sweeps = sweep_campaign()
    assert sweeps.key(cell) == "c24c14c2f7866eb17f569bd2"
    traced = dataclasses.replace(cell, record_border=True)
    assert sweeps.key(traced) == "c24c14c2f7866eb17f569bd2#trace"
    # A bundle's recipe keys (and replays) exactly like the grid cell.
    assert chaos.key(chaos.spec(chaos_cells[2])) == chaos.key(chaos_cells[2])


# ---------------------------------------------------------------------------
# (d) chaos and recovery jobs stream per-cell progress
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,params,cells",
    [
        (
            "chaos",
            {"workloads": ["bfs"], "fault_types": ["drop", "hang"], "ops_scale": SCALE},
            3,
        ),
        (
            "recovery",
            {"workloads": ["bfs"], "scenarios": ["storm", "rogue-write"], "ops_scale": SCALE},
            2,
        ),
    ],
)
def test_execute_job_reports_progress_per_cell(kind, params, cells):
    from repro.service.jobs import Job, JobSpec
    from repro.service.scheduler import execute_job

    calls = []
    job = Job(id="j1", tenant="t", spec=JobSpec(kind=kind, params=params))
    payload = execute_job(
        job, lambda: False, lambda *event: calls.append(event)
    )
    assert len(payload["runs"]) == cells
    assert [done for done, _total, _label, _error in calls] == list(
        range(1, cells + 1)
    )
    assert {total for _done, total, _label, _error in calls} == {cells}
    assert all(error is None for *_rest, error in calls)
