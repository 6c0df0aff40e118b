"""``repro.sweep`` — parallel fan-out of deterministic simulation cells.

Every paper figure and chaos campaign is a grid of independent
(workload × safety × threading × seed) *cells*, and each cell is a pure
function of its parameters. This module runs such grids across cores:

* :class:`Cell` — one declarative simulation point. The figure drivers
  (:mod:`repro.experiments.fig4` … ``fig7``, ``workload_table``) each
  expose a ``grid(...)`` returning their cells; their ``run(...)``
  entry points stay serial consumers of the shared result cache.
* :func:`run_sweep` — dispatch cells to a supervised process pool
  (:mod:`repro.supervisor`), collect per-cell wall times / failures /
  cache hits, and adopt results into the parent's caches. Results are
  **bit-identical** to serial execution: workers run the same
  deterministic ``run_single`` and ship the ``RunResult`` back whole.
  One crashed or wedged worker no longer poisons sibling cells: the
  supervisor rebuilds the pool, resubmits only the affected cells, and
  retries transient failures with bounded backoff. Workers are *warm*:
  the grid is pickled once into the pool initializer (tasks are bare
  indexes), each worker is pinned to the parent's resolved cache dir,
  and a per-worker registry reuses constructed ``System`` instances
  between cells via in-place reset instead of rebuilding them.
* :class:`Campaign` / :func:`run_campaign` — the one campaign driver.
  A campaign says how its cells run, key, label, replay and journal;
  the driver does resume, dispatch through :func:`fan_out` (the
  generic ordered fan-out primitive) at every worker count,
  journaling, progress, and the failure contract. Figure sweeps
  (:func:`sweep_campaign`), chaos
  (:func:`repro.sim.runner.chaos_campaign`) and recovery
  (:func:`repro.recovery.recovery_campaign`) campaigns all run through
  it.
* **Checkpoint/resume** — pass a :class:`repro.journal.RunJournal` and
  every completed cell is persisted as it lands; a later run with the
  same journal rehydrates those outcomes instead of recomputing them
  (``border-control sweep --resume <run-id>``). SIGINT/SIGTERM are
  converted into a clean unwind so an interrupted run is always
  resumable.
* :func:`verify_identical` — re-run a grid serially with every cache
  bypassed and field-compare against the parallel results.
* :class:`SweepReport` / :func:`write_bench` — perf accounting
  (sims/minute, speedup, cache hit rate, supervisor recovery counters)
  and the ``BENCH_sweep.json`` snapshot the CI trajectory tracks,
  written atomically so a killed run never leaves a truncated snapshot.

Workers share the repaired atomic disk cache (see
:func:`repro.experiments.common.cached_run`): entries are published via
temp-file + ``os.replace``, so concurrent writers never expose a
truncated JSON document to readers. Cache-hit accounting is the
provenance fact returned by
:func:`repro.experiments.common.cached_run_ex` — never a separate
file-existence probe, which races against concurrent publishers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import operator
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import JobCancelled, SweepError
from repro.experiments import common
from repro.faults.plan import derive_seed
from repro.journal import RunJournal
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import RunResult, clear_warm_registry, run_single
from repro.supervisor import (
    SupervisorPolicy,
    SupervisorStats,
    TaskOutcome,
    supervised_map,
)

if TYPE_CHECKING:  # repro.fleet imports this module; no runtime cycle
    from repro.fleet import FleetCoordinator

__all__ = [
    "BENCH_SCHEMA",
    "Cell",
    "Campaign",
    "CellOutcome",
    "GRID_NAMES",
    "SupervisorPolicy",
    "SupervisorStats",
    "SweepReport",
    "dedup_cells",
    "fan_out",
    "grid_cells",
    "journal_entry",
    "parallel_measurement_validity",
    "prewarm",
    "resolve_workers",
    "run_campaign",
    "run_sweep",
    "sweep_campaign",
    "verify_identical",
    "write_bench",
]

BENCH_SCHEMA = "repro-sweep-bench-v3"

#: Grids :func:`grid_cells` knows how to build (chaos and recovery grids
#: come from :func:`repro.sim.runner.chaos_grid` and
#: :func:`repro.recovery.recovery_grid`).
GRID_NAMES = ("fig4", "fig5", "fig6", "fig7", "workloads")

ProgressFn = Callable[[int, int, str, Optional[str]], None]


@dataclass(frozen=True)
class Cell:
    """One deterministic simulation point of a sweep grid."""

    workload: str
    safety: SafetyMode
    threading: GPUThreading = GPUThreading.HIGHLY
    seed: int = 1234
    ops_scale: float = 1.0
    downgrade_interval_cycles: Optional[float] = None
    record_border: bool = False
    tag: str = ""

    @property
    def label(self) -> str:
        parts = [self.workload, self.safety.value, self.threading.value]
        if self.downgrade_interval_cycles is not None:
            parts.append(f"dgi={self.downgrade_interval_cycles:g}")
        if self.record_border:
            parts.append("trace")
        if self.tag:
            parts.insert(0, self.tag)
        return "/".join(parts)

    @property
    def cacheable(self) -> bool:
        """Border traces are never cached; everything else is."""
        return not self.record_border

    def key(self) -> str:
        return common.cache_key(
            self.workload,
            self.safety,
            self.threading,
            seed=self.seed,
            ops_scale=self.ops_scale,
            downgrade_interval_cycles=self.downgrade_interval_cycles,
        )

    def journal_key(self) -> str:
        """The run-journal key (distinguishes trace cells from cached ones)."""
        return self.key() + ("#trace" if self.record_border else "")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable parameters, for repro bundles and journals."""
        return {
            "workload": self.workload,
            "safety": self.safety.value,
            "threading": self.threading.value,
            "seed": self.seed,
            "ops_scale": self.ops_scale,
            "downgrade_interval_cycles": self.downgrade_interval_cycles,
            "record_border": self.record_border,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cell":
        data = dict(data)
        data["safety"] = SafetyMode(data["safety"])
        data["threading"] = GPUThreading(data["threading"])
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class CellOutcome:
    """What happened to one cell: its result or a formatted failure."""

    cell: Cell
    result: Optional[RunResult]
    error: Optional[str]
    wall_seconds: float
    cache_hit: bool
    attempts: int = 1
    error_kind: Optional[str] = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """Results plus the perf accounting for one sweep invocation."""

    outcomes: List[CellOutcome]
    workers: int
    wall_seconds: float
    mode: str  # "parallel" | "serial" | "fleet"
    stats: SupervisorStats = field(default_factory=SupervisorStats)
    #: Coordinator counters when the run used a fleet (else ``None``).
    fleet: Optional[Dict[str, int]] = None

    @property
    def results(self) -> List[RunResult]:
        """Per-cell results in grid order (raises if any cell failed)."""
        self.raise_failures()
        return [out.result for out in self.outcomes]  # type: ignore[misc]

    @property
    def ok(self) -> bool:
        return all(out.ok for out in self.outcomes)

    def failures(self) -> List[str]:
        return [
            f"{out.cell.label}: {out.error}"
            for out in self.outcomes
            if not out.ok
        ]

    def raise_failures(self) -> None:
        if not self.ok:
            raise SweepError(self.failures(), outcomes=self.outcomes)

    def partial_results(self) -> List[Tuple[Cell, RunResult]]:
        """Every cell that *did* complete, in grid order.

        The graceful-degradation companion to :attr:`results`: figure
        drivers and reports use it (via ``--allow-partial``) to render
        what survived a partially failed sweep instead of aborting.
        """
        return [
            (out.cell, out.result)
            for out in self.outcomes
            if out.ok and out.result is not None
        ]

    @property
    def completion_rate(self) -> float:
        """Fraction of cells that completed successfully (1.0 == all)."""
        if not self.outcomes:
            return 1.0
        return sum(out.ok for out in self.outcomes) / len(self.outcomes)

    @property
    def resumed_cells(self) -> int:
        return sum(out.resumed for out in self.outcomes)

    @property
    def cell_seconds(self) -> float:
        """Summed per-cell compute time — the serial-cost estimate."""
        return sum(out.wall_seconds for out in self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        cacheable = [out for out in self.outcomes if out.cell.cacheable]
        if not cacheable:
            return 0.0
        return sum(out.cache_hit for out in cacheable) / len(cacheable)

    @property
    def sims_per_minute(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return 60.0 * len(self.outcomes) / self.wall_seconds

    @property
    def speedup_estimate(self) -> float:
        """Summed cell time / wall time (1.0 ≈ no parallel benefit)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.cell_seconds / self.wall_seconds

    def render(self) -> str:
        def cache_col(out: CellOutcome) -> str:
            if out.resumed:
                return "journal"
            if out.cache_hit:
                return "hit"
            return "-" if out.cell.cacheable else "n/c"

        rows = [
            [
                out.cell.label,
                f"{out.wall_seconds:.2f}s",
                cache_col(out),
                ("ok" if out.ok else "FAIL")
                + (f" (x{out.attempts})" if out.attempts > 1 else ""),
            ]
            for out in self.outcomes
        ]
        table = common.text_table(
            ["cell", "wall", "cache", "status"],
            rows,
            title=(
                f"sweep: {len(self.outcomes)} cells, {self.workers} worker(s) "
                f"[{self.mode}], {self.wall_seconds:.2f}s wall"
            ),
        )
        summary = (
            f"{self.sims_per_minute:.1f} sims/min, "
            f"{self.cache_hit_rate:.0%} cache hits, "
            f"estimated speedup {self.speedup_estimate:.2f}x, "
            f"completion {self.completion_rate:.0%}"
        )
        stats = self.stats.as_dict()
        stats["resumed_cells"] = max(stats["resumed_cells"], self.resumed_cells)
        supervisor = "supervisor: " + ", ".join(
            f"{name} {value}" for name, value in stats.items()
        )
        lines = [table, summary, supervisor]
        if self.fleet:
            interesting = (
                "workers_seen",
                "results",
                "expired_leases",
                "reassigned",
                "stolen",
                "duplicate_results",
                "dead_workers",
            )
            lines.append(
                "fleet: "
                + ", ".join(
                    f"{name} {self.fleet.get(name, 0)}" for name in interesting
                )
            )
        # Surface recovery activity (epoch-fenced resets, retries, CPU
        # fallbacks) whenever any cell's RunResult recorded some — quiet
        # sweeps keep their old output.
        recovered = [
            out.result
            for out in self.outcomes
            if out.result is not None
            and (
                getattr(out.result, "recoveries_attempted", 0)
                or getattr(out.result, "fallback_executions", 0)
                or getattr(out.result, "stale_epoch_rejections", 0)
            )
        ]
        if recovered:
            lines.append(
                "recovery: "
                f"{sum(r.recoveries_attempted for r in recovered)} attempts, "
                f"{sum(r.recoveries_succeeded for r in recovered)} succeeded, "
                f"{sum(r.fallback_executions for r in recovered)} CPU fallbacks, "
                f"{sum(r.recovery_ticks for r in recovered)} recovery ticks, "
                f"{sum(r.stale_epoch_rejections for r in recovered)} "
                "stale-epoch rejections"
            )
        lines.extend(f"  FAIL {failure}" for failure in self.failures())
        return "\n".join(lines)


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` → one worker per core; floors at 1."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, workers)


# ---------------------------------------------------------------------------
# worker-side entry points (must be module-level: they cross the pickle
# boundary into pool processes)
# ---------------------------------------------------------------------------


#: The shared task context ``(cells, run)``, held as ``.context``: a
#: campaign's pending cells and its cell function are pickled *once* per
#: dispatch into the worker initializer and installed here, so each task
#: crossing the pool boundary afterwards is a bare int index instead of
#: a re-pickled cell per submission. The parent installs the same
#: context around the supervisor's in-process serial path (which never
#: runs pool initializers). It is per thread: the job server runs
#: several serial campaigns at once on its worker threads, and each
#: must only ever see its own cells.
_grid_local = threading.local()


def _install_grid(context: Tuple[Any, ...]) -> None:
    _grid_local.context = context


def _clear_grid() -> None:
    _grid_local.context = None


def _grid_context() -> Optional[Tuple[Any, ...]]:
    """The ``(cells, run)`` context installed in the calling thread."""
    return getattr(_grid_local, "context", None)


def _worker_init(
    cache_dir: Optional[str],
    grid_blob: Optional[bytes] = None,
    warm: bool = False,
) -> None:
    """Initialize one pool worker: cache pinning, warm reuse, task context.

    * **Cache dir** — the worker is pinned to the parent's *resolved*
      cache dir, unconditionally. The old behavior popped
      ``REPRO_CACHE_DIR`` when the parent's environment lacked it, so a
      parent using the default dir and a worker with a different working
      directory (or an inherited stale env under ``fork``) silently
      cached to different places. A ``None`` argument now means "resolve
      the default here" rather than "unpin".
    * **Memory cache** — cleared. With ``fork`` workers inherit the
      parent's memoized results; clearing them makes every worker's
      hit accounting (and its actual compute) independent of parent
      state, and keeps behavior identical under ``spawn``.
    * **Warm registry** — ``warm=True`` turns on per-worker ``System``
      reuse (:mod:`repro.sim.runner`); any instances inherited via
      ``fork`` are dropped so the worker warms up from its own runs.
    * **Task context** — ``grid_blob`` (the ``(cells, run)`` context,
      pickled once in the parent) is installed for :func:`_run_cell`'s
      int tasks.

    Pool rebuilds after a worker crash re-run this initializer in every
    replacement worker, so the context and warm state re-establish
    themselves lazily — no parent-side bookkeeping.
    """
    if cache_dir is None:
        cache_dir = str(Path(common._cache_dir()).resolve())
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_WARM"] = "1" if warm else "0"
    common._memory_cache.clear()
    clear_warm_registry()
    if grid_blob is not None:
        _install_grid(pickle.loads(grid_blob))
    else:
        _clear_grid()


def _run_cell(task: int) -> Any:
    """Execute one task: an index into the installed ``(cells, run)``."""
    context = _grid_context()
    if context is None:
        raise RuntimeError(
            "task is an index but no grid context is installed "
            "in this thread (worker initializer did not run?)"
        )
    cells, run = context
    return run(cells[task])


def _run_sweep_cell(
    cell: Cell, use_disk: bool, fresh: bool
) -> Tuple[RunResult, bool]:
    """Execute one sweep cell; returns ``(result, cache_hit)``.

    The hit flag is the provenance fact reported by
    :func:`repro.experiments.common.cached_run_ex` — *not* a separate
    existence probe of the cache file, which races against concurrent
    workers publishing the same key and misreports either way.
    """
    if fresh or not cell.cacheable:
        result = run_single(
            cell.workload,
            cell.safety,
            cell.threading,
            seed=cell.seed,
            ops_scale=cell.ops_scale,
            record_border=cell.record_border,
            downgrade_interval_cycles=cell.downgrade_interval_cycles,
        )
        return result, False
    result, source = common.cached_run_ex(
        cell.workload,
        cell.safety,
        cell.threading,
        seed=cell.seed,
        ops_scale=cell.ops_scale,
        downgrade_interval_cycles=cell.downgrade_interval_cycles,
        use_disk=use_disk,
    )
    return result, source != "computed"


# ---------------------------------------------------------------------------
# the fan-out core
# ---------------------------------------------------------------------------


def _default_policy(policy: Optional[SupervisorPolicy]) -> SupervisorPolicy:
    """Fill in the quarantine dir when the caller didn't pick one."""
    if policy is None:
        policy = SupervisorPolicy()
    if policy.quarantine_dir is None:
        policy = dataclasses.replace(
            policy, quarantine_dir=common._cache_dir() / "quarantine"
        )
    return policy


def fan_out(
    fn: Callable,
    tasks: Sequence[Any],
    workers: Optional[int] = None,
    label_of: Optional[Callable[[Any], str]] = None,
    policy: Optional[SupervisorPolicy] = None,
    stats: Optional[SupervisorStats] = None,
    describe_task: Optional[Callable[[Any], Optional[Dict[str, Any]]]] = None,
    on_outcome: Optional[Callable[[int, TaskOutcome], None]] = None,
    grid: Optional[Tuple[Sequence[Any], Callable[[Any], Any]]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> Tuple[List[TaskOutcome], str]:
    """Run ``fn`` over ``tasks`` on a supervised process pool, in order.

    ``fn`` and every task must be picklable. Returns ``(outcomes,
    mode)``: one :class:`~repro.supervisor.TaskOutcome` per task in task
    order, and ``"parallel"`` or ``"serial"`` (in-process for
    ``workers <= 1`` or a single task, with the same retry and poison
    policy; see :mod:`repro.supervisor`). Workers are pinned to the
    parent's *resolved* cache dir.

    ``grid=(cells, run)`` ships a campaign's cells and cell function to
    the workers **once**, pickled into the pool initializer (rebuilt
    pools re-run it), and turns on per-worker warm ``System`` reuse;
    with ``fn=_run_cell`` the tasks are then bare int indexes into
    ``cells``. The serial path installs the same context in the calling
    thread (so concurrent serial campaigns never share it) but never
    warms, so a serial reference run (``verify_identical``) is
    always an independent fresh-construction build.
    """
    workers = resolve_workers(workers)
    cache_dir = str(Path(common._cache_dir()).resolve())
    grid_blob: Optional[bytes] = None
    serial_setup = serial_teardown = None
    if grid is not None:
        context = (tuple(grid[0]), grid[1])
        grid_blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)

        def serial_setup() -> None:
            _install_grid(context)

        serial_teardown = _clear_grid
    return supervised_map(
        fn,
        tasks,
        workers,
        policy=_default_policy(policy),
        stats=stats,
        label_of=label_of,
        describe_task=describe_task,
        on_outcome=on_outcome,
        initializer=_worker_init,
        initargs=(cache_dir, grid_blob, grid is not None),
        serial_setup=serial_setup,
        serial_teardown=serial_teardown,
        should_abort=should_abort,
    )


# ---------------------------------------------------------------------------
# the campaign driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    """How one kind of cell grid runs, journals, resumes and replays.

    ``run`` executes one cell and must be picklable (a module-level
    function or a :func:`functools.partial` of one): it crosses into
    pool workers. ``spec`` is the cell's JSON recipe; poison bundles
    embed it and ``replay-cell`` hands it back to ``run``. ``key`` is
    the cell's journal key. ``to_dict(cell, value)`` is the journaled
    payload of a finished cell, or ``None`` when the value must not be
    persisted (that cell then re-executes on every resume);
    ``from_dict`` turns a payload back into the value ``run`` returned.
    """

    kind: str
    run: Callable[[Any], Any]
    key: Callable[[Any], str]
    label: Callable[[Any], str]
    spec: Callable[[Any], Dict[str, Any]]
    to_dict: Callable[[Any, Any], Optional[Dict[str, Any]]]
    from_dict: Callable[[Dict[str, Any]], Any]


#: ``remote(pending, land)`` places some pending cell indexes elsewhere
#: (a fleet), calling ``land(index, journal_entry)`` as each one lands,
#: and returns their outcomes; the rest run on the local pool.
RemoteFn = Callable[
    [List[int], Callable[[int, Dict[str, Any]], None]], Dict[int, TaskOutcome]
]


def journal_entry(
    label: str, out: TaskOutcome, result: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """The run-journal record of one finished cell.

    The same builder serves the local pool and fleet workers, so a cell
    journals identically wherever it ran; a resume reads ``ok`` and
    ``result`` back.
    """
    return {
        "label": label,
        "ok": out.ok,
        "error": out.error,
        "error_kind": out.error_kind,
        "wall_seconds": round(out.wall_seconds, 6),
        "attempts": out.attempts,
        "result": result,
    }


def run_campaign(
    campaign: Campaign,
    cells: Sequence[Any],
    workers: Optional[int] = 1,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[RunJournal] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    progress: Optional[ProgressFn] = None,
    *,
    stats: Optional[SupervisorStats] = None,
    remote: Optional[RemoteFn] = None,
    partial: bool = False,
) -> Tuple[List[TaskOutcome], str]:
    """Run a campaign's cells: resume, dispatch, journal, fail — one path.

    Returns ``(outcomes, mode)``, one :class:`TaskOutcome` per cell in
    cell order (rehydrated ones flagged ``resumed``) and the local
    dispatch mode (``"serial"`` when nothing ran locally).

    * **Resume** — with a ``journal``, worker shards are merged first,
      retry jitter is seeded from the run id (a resumed run replays the
      same delays), and every cell whose key has a successful entry
      with a payload is rehydrated through ``campaign.from_dict``
      instead of recomputed.
    * **Dispatch** — ``remote`` (the sweep's fleet pre-pass) may place
      pending cells first; the rest go through :func:`fan_out` at
      *every* worker count, so ``workers=1`` takes the supervisor's
      in-process path with the same retries, poison quarantine and
      journaling as a pool. SIGINT/SIGTERM unwind cleanly while a
      journal is open.
    * **Journal and progress** — each cell's :func:`journal_entry` is
      recorded as it lands, and ``progress(done, total, label, error)``
      counts resumed cells as already done.
    * **Failure contract** — identical at every worker count: unless
      ``partial``, an abort (``should_abort``) raises
      :class:`~repro.errors.JobCancelled` and any failed cell raises
      :class:`~repro.errors.SweepError` whose ``outcomes`` are the
      surviving values in cell order. ``partial=True`` returns the
      failures in the outcomes instead (the sweep's report does this).
    """
    stats = stats if stats is not None else SupervisorStats()
    total = len(cells)
    outcomes: List[Optional[TaskOutcome]] = [None] * total

    if journal is not None:
        # Fold in worker shards (no-op without any): cells a fleet
        # worker completed while the coordinator was dead rehydrate
        # below exactly like locally journaled ones.
        try:
            journal.merge_shards()
        except OSError:  # shard dir unreadable — recompute instead
            pass
        if policy is None or (policy.jitter > 0 and policy.jitter_seed == 0):
            policy = dataclasses.replace(
                policy or SupervisorPolicy(),
                jitter_seed=derive_seed(0, journal.run_id),
            )

    pending: List[int] = []
    for i, cell in enumerate(cells):
        entry = None
        if journal is not None:
            entry = journal.completed(campaign.key(cell))
        if entry is not None and entry.get("result") is not None:
            outcomes[i] = TaskOutcome(
                campaign.from_dict(entry["result"]),
                None,
                float(entry.get("wall_seconds", 0.0)),
                int(entry.get("attempts", 1)),
                resumed=True,
            )
            stats.resumed_cells += 1
        else:
            pending.append(i)

    done_lock = threading.Lock()
    done = [total - len(pending)]

    def land(i: int, entry: Dict[str, Any]) -> None:
        # Remote cells land on the coordinator thread, hence the lock
        # (journal.record is thread-safe on its own).
        if journal is not None:
            journal.record(campaign.key(cells[i]), entry)
        with done_lock:
            done[0] += 1
            done_now = done[0]
        if progress is not None:
            progress(done_now, total, entry["label"], entry.get("error"))

    if remote is not None and pending:
        placed = remote(pending, land)
        for i, out in placed.items():
            outcomes[i] = out
        pending = [i for i in pending if i not in placed]

    mode = "serial"
    if pending:
        task_cells = [cells[i] for i in pending]

        def on_outcome(task: int, out: TaskOutcome) -> None:
            cell = task_cells[task]
            result = campaign.to_dict(cell, out.value) if out.ok else None
            land(pending[task], journal_entry(campaign.label(cell), out, result))

        def describe_task(task: int) -> Dict[str, Any]:
            return {"kind": campaign.kind, "cell": campaign.spec(task_cells[task])}

        guard = (
            journal.signal_guard()
            if journal is not None
            else contextlib.nullcontext()
        )
        with guard:
            raw, mode = fan_out(
                _run_cell,
                list(range(len(task_cells))),
                workers=workers,
                label_of=lambda task: campaign.label(task_cells[task]),
                policy=policy,
                stats=stats,
                describe_task=describe_task,
                on_outcome=on_outcome,
                grid=(task_cells, campaign.run),
                should_abort=should_abort,
            )
        for i, out in zip(pending, raw):
            outcomes[i] = out

    final = [out for out in outcomes if out is not None]
    assert len(final) == total
    if not partial:
        if should_abort is not None and should_abort():
            raise JobCancelled(f"{campaign.kind} campaign aborted")
        failures = [
            f"{campaign.label(cell)}: {out.error}"
            for cell, out in zip(cells, final)
            if not out.ok
        ]
        if failures:
            raise SweepError(
                failures, outcomes=[out.value for out in final if out.ok]
            )
    return final, mode


def _sweep_payload(cell: Cell, value: Tuple[RunResult, bool]) -> Optional[dict]:
    # Trace payloads are deliberately not persisted, so trace cells
    # never resume.
    return common._result_to_dict(value[0]) if cell.cacheable else None


def _sweep_value(payload: Dict[str, Any]) -> Tuple[RunResult, bool]:
    return common._result_from_dict(payload), True  # a journal hit


def sweep_campaign(use_disk: bool = True, fresh: bool = False) -> Campaign:
    """The :class:`Campaign` of figure-grid :class:`Cell` sweeps; values
    are ``(RunResult, cache_hit)``."""
    return Campaign(
        kind="sweep",
        run=functools.partial(_run_sweep_cell, use_disk=use_disk, fresh=fresh),
        key=Cell.journal_key,
        label=operator.attrgetter("label"),
        spec=Cell.to_dict,
        to_dict=_sweep_payload,
        from_dict=_sweep_value,
    )


def _fleet_outcome(entry: Dict[str, Any]) -> TaskOutcome:
    value = None
    if entry.get("result") is not None:
        value = (
            common._result_from_dict(entry["result"]),
            bool(entry.get("cache_hit")),
        )
    return TaskOutcome(
        value,
        entry.get("error"),
        float(entry.get("wall_seconds", 0.0)),
        int(entry.get("attempts", 1)),
        entry.get("error_kind"),
    )


def run_sweep(
    cells: Sequence[Cell],
    workers: Optional[int] = None,
    use_disk: bool = True,
    fresh: bool = False,
    progress: Optional[ProgressFn] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[RunJournal] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    fleet: Optional["FleetCoordinator"] = None,
) -> SweepReport:
    """Run a grid of cells, in parallel when ``workers`` allows.

    Execution, journaling, resume and cancellation are
    :func:`run_campaign`'s, with ``partial=True``: failed and aborted
    cells come back in the report rather than raising. Trace-recording
    cells are never resumed (their payload is deliberately not
    persisted).

    Worker results are adopted into the calling process's memory cache
    (and the shared disk cache), so a subsequent serial consumer — a
    figure driver's ``run()`` — sees exactly the worker-computed
    ``RunResult`` objects. ``fresh=True`` bypasses every cache layer
    (each cell recomputed from scratch); :func:`verify_identical` uses
    it to build an independent serial reference. Parallel workers keep
    a warm registry of constructed ``System`` instances and reset one in
    place between cells — construction reuse, not result caching, and
    proven bit-identical to fresh builds by :func:`verify_identical`.

    ``fleet`` (a started :class:`repro.fleet.FleetCoordinator`) fans
    pending cells out to remote workers first; whatever the fleet could
    not place — no workers connected, a mid-campaign abort — runs on
    the local supervised pool, so a workerless fleet degrades to
    exactly the single-host behavior. Trace-recording (non-cacheable)
    cells always stay on the local pool: their payloads are not
    serialized over the wire. Fleet results are journaled as they
    arrive, and journal shards left by workers of a previous (killed)
    coordinator are merged before the resume scan, which is what makes
    coordinator SIGKILL + restart a zero-re-execution event.
    """
    start = time.perf_counter()
    stats = SupervisorStats()
    fleet_stats: Optional[Dict[str, int]] = None
    fleet_placed = False

    def via_fleet(
        pending: List[int], land: Callable[[int, Dict[str, Any]], None]
    ) -> Dict[int, TaskOutcome]:
        nonlocal fleet_stats, fleet_placed
        assert fleet is not None
        indexes = [i for i in pending if cells[i].cacheable]
        if not indexes:
            return {}
        placed, _leftovers = fleet.map_cells(
            [cells[i] for i in indexes],
            use_disk=use_disk,
            fresh=fresh,
            run_id=journal.run_id if journal is not None else None,
            journal_dir=journal.path.parent if journal is not None else None,
            on_entry=lambda j, entry: land(indexes[j], entry),
            should_abort=should_abort,
        )
        fleet_stats = fleet.stats_snapshot()
        fleet_placed = bool(placed)
        return {indexes[j]: _fleet_outcome(entry) for j, entry in placed.items()}

    raw, mode = run_campaign(
        sweep_campaign(use_disk, fresh),
        cells,
        workers=workers,
        policy=policy,
        journal=journal,
        should_abort=should_abort,
        progress=progress,
        stats=stats,
        remote=via_fleet if fleet is not None else None,
        partial=True,
    )
    outcomes: List[CellOutcome] = []
    for cell, out in zip(cells, raw):
        result, hit = (None, False) if out.value is None else out.value
        outcomes.append(
            CellOutcome(
                cell,
                result,
                out.error,
                out.wall_seconds,
                hit,
                attempts=out.attempts,
                error_kind=out.error_kind,
                resumed=out.resumed,
            )
        )
        if result is not None and cell.cacheable and not fresh:
            common.store_result(cell.key(), result, use_disk=use_disk)
    return SweepReport(
        outcomes=outcomes,
        workers=resolve_workers(workers),
        wall_seconds=time.perf_counter() - start,
        mode="fleet" if fleet_placed else mode,
        stats=stats,
        fleet=fleet_stats,
    )


def prewarm(
    cells: Sequence[Cell],
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[RunJournal] = None,
    allow_partial: bool = False,
) -> SweepReport:
    """Fan a grid out across cores so later serial reads are cache hits.

    This is how the figure drivers parallelize without changing their
    result-assembly logic: ``run(..., workers=N)`` prewarms the grid,
    then the existing serial loop consumes memoized results. Raises
    :class:`~repro.errors.SweepError` if any cell failed — unless
    ``allow_partial``, in which case the surviving cells are kept and
    the caller renders explicit gaps for the rest.
    """
    report = run_sweep(
        cells, workers=workers, progress=progress, policy=policy, journal=journal
    )
    if not allow_partial:
        report.raise_failures()
    return report


# ---------------------------------------------------------------------------
# serial/parallel equivalence
# ---------------------------------------------------------------------------


def compare_results(a: RunResult, b: RunResult) -> List[str]:
    """Field-by-field differences between two results (empty == identical)."""
    diffs = []
    for fld in dataclasses.fields(RunResult):
        va, vb = getattr(a, fld.name), getattr(b, fld.name)
        if va != vb:
            diffs.append(f"{fld.name}: {va!r} != {vb!r}")
    return diffs


def verify_identical(
    cells: Sequence[Cell],
    parallel: SweepReport,
    progress: Optional[ProgressFn] = None,
) -> Tuple[SweepReport, List[str]]:
    """Prove a parallel sweep matches serial execution bit for bit.

    Recomputes every cell serially with all caches bypassed and
    field-compares against the parallel results. Returns the serial
    report (its ``wall_seconds`` is the honest serial baseline) and the
    list of mismatches (empty == identical). Resumed (journal-recovered)
    outcomes are compared exactly like freshly computed ones, so the
    identity proof covers the checkpoint/resume path too.
    """
    serial = run_sweep(cells, workers=1, fresh=True, progress=progress)
    mismatches: List[str] = []
    for cell, par_out, ser_out in zip(cells, parallel.outcomes, serial.outcomes):
        if par_out.result is None or ser_out.result is None:
            mismatches.append(
                f"{cell.label}: missing result "
                f"(parallel={par_out.error}, serial={ser_out.error})"
            )
            continue
        for diff in compare_results(par_out.result, ser_out.result):
            mismatches.append(f"{cell.label}: {diff}")
    return serial, mismatches


# ---------------------------------------------------------------------------
# grid definitions and the bench snapshot
# ---------------------------------------------------------------------------


def grid_cells(
    name: str,
    threading: Union[GPUThreading, str, None] = None,
    workloads: Optional[List[str]] = None,
    seed: int = 1234,
    ops_scale: float = 1.0,
) -> List[Cell]:
    """Build a named figure grid (see :data:`GRID_NAMES`).

    ``threading`` narrows grids that sweep both GPU configurations;
    figure grids with a fixed configuration ignore it.
    """
    from repro.experiments import fig4, fig5, fig6, fig7, workload_table

    if isinstance(threading, str):
        threading = GPUThreading(threading)
    both = (GPUThreading.HIGHLY, GPUThreading.MODERATELY)
    threadings = both if threading is None else (threading,)
    kwargs = dict(workloads=workloads, seed=seed, ops_scale=ops_scale)
    if name == "fig4":
        cells: List[Cell] = []
        for thr in threadings:
            cells.extend(fig4.grid(thr, **kwargs))
        return cells
    if name == "fig5":
        return fig5.grid(threading or GPUThreading.HIGHLY, **kwargs)
    if name == "fig6":
        return fig6.grid(threading or GPUThreading.HIGHLY, **kwargs)
    if name == "fig7":
        return fig7.grid(**kwargs)
    if name == "workloads":
        return workload_table.grid(threading or GPUThreading.HIGHLY, **kwargs)
    raise ValueError(f"unknown grid {name!r} (expected one of {GRID_NAMES})")


def dedup_cells(cells: Sequence[Cell]) -> List[Cell]:
    """Drop cells whose cache key duplicates an earlier one.

    Figure grids overlap (fig4's BC-BCC cells are fig5's whole grid);
    when sweeping a union, running each key once is enough — every
    consumer reads the shared cache. Uncacheable cells are kept as-is.
    """
    seen = set()
    unique: List[Cell] = []
    for cell in cells:
        if not cell.cacheable:
            unique.append(cell)
            continue
        key = cell.key()
        if key not in seen:
            seen.add(key)
            unique.append(cell)
    return unique


def parallel_measurement_validity(
    report: SweepReport, cpu_count: Optional[int] = None
) -> Tuple[bool, Optional[str]]:
    """Can this report honestly be labeled a *parallel speedup* measurement?

    Returns ``(valid, reason)`` with ``reason`` set when invalid. A run
    on a single CPU core, in serial mode, or with one worker measures
    scheduling overhead, not parallelism — a previous snapshot claimed
    a 2-worker "speedup" from a ``cpu_count: 1`` box, which this refuses
    to repeat.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if report.mode != "parallel":
        return False, f"serial mode ({report.workers} worker(s))"
    if report.workers < 2:
        return False, "fewer than 2 workers"
    if cpus < 2:
        return (
            False,
            f"only {cpus} CPU core available — {report.workers} workers "
            "time-slice one core, so wall-clock ratios measure scheduling, "
            "not parallelism",
        )
    if report.workers > cpus:
        return (
            False,
            f"{report.workers} workers oversubscribe {cpus} CPU cores",
        )
    return True, None


def write_bench(
    path: Union[str, Path],
    report: SweepReport,
    grids: Sequence[str],
    serial_wall_seconds: Optional[float] = None,
    verified_identical: Optional[bool] = None,
    warm_report: Optional["SweepReport"] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the ``BENCH_sweep.json`` perf snapshot; returns the payload.

    ``speedup`` is measured (parallel vs. a real serial run) when
    ``serial_wall_seconds`` is given **and** the run qualifies as a
    parallel measurement (see :func:`parallel_measurement_validity`) —
    otherwise it is ``null`` with the refusal recorded in
    ``parallel_invalid_reason``. ``speedup_per_worker`` is the measured
    speedup normalized by worker count (1.0 == perfect scaling).

    ``warm_report`` is a repeat run of the same grid against the caches
    the first run populated; its wall time and hit rate land in the
    ``warm_*`` fields (``cold_wall_seconds`` is then the first run's).

    The file is published atomically (temp file + ``os.replace``) so a
    killed run never leaves a truncated snapshot. Schema:
    :data:`BENCH_SCHEMA`.
    """
    walls = sorted(out.wall_seconds for out in report.outcomes)
    cpus = os.cpu_count()
    parallel_valid, invalid_reason = parallel_measurement_validity(report, cpus)
    speedup = None
    if (
        parallel_valid
        and serial_wall_seconds is not None
        and report.wall_seconds > 0
    ):
        speedup = serial_wall_seconds / report.wall_seconds
    supervisor = report.stats.as_dict()
    supervisor["resumed_cells"] = max(
        supervisor["resumed_cells"], report.resumed_cells
    )
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "grids": list(grids),
        "cells": len(report.outcomes),
        "workers": report.workers,
        "cpu_count": cpus,
        "mode": report.mode,
        "parallel_measurement_valid": parallel_valid,
        "parallel_invalid_reason": invalid_reason,
        "wall_seconds": round(report.wall_seconds, 4),
        "cold_wall_seconds": round(report.wall_seconds, 4),
        "warm_wall_seconds": (
            None if warm_report is None else round(warm_report.wall_seconds, 4)
        ),
        "warm_cache_hit_rate": (
            None if warm_report is None else round(warm_report.cache_hit_rate, 4)
        ),
        "warm_speedup": (
            None
            if warm_report is None or warm_report.wall_seconds <= 0
            else round(report.wall_seconds / warm_report.wall_seconds, 3)
        ),
        "serial_wall_seconds": (
            None if serial_wall_seconds is None else round(serial_wall_seconds, 4)
        ),
        "speedup": None if speedup is None else round(speedup, 3),
        "speedup_per_worker": (
            None if speedup is None else round(speedup / report.workers, 3)
        ),
        "speedup_estimate": round(report.speedup_estimate, 3),
        "sims_per_minute": round(report.sims_per_minute, 2),
        "cache_hit_rate": round(report.cache_hit_rate, 4),
        "completion_rate": round(report.completion_rate, 4),
        "cell_seconds_total": round(report.cell_seconds, 4),
        "cell_seconds_max": round(walls[-1], 4) if walls else 0.0,
        "cell_seconds_median": round(walls[len(walls) // 2], 4) if walls else 0.0,
        "failures": report.failures(),
        "verified_identical": verified_identical,
        "supervisor": supervisor,
        "cells_detail": [
            {
                "label": out.cell.label,
                "wall_seconds": round(out.wall_seconds, 4),
                "cache_hit": out.cache_hit,
                "ok": out.ok,
                "attempts": out.attempts,
                "resumed": out.resumed,
            }
            for out in report.outcomes
        ],
    }
    if extra:
        payload.update(extra)
    out_path = Path(path)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    common._write_atomic(out_path, json.dumps(payload, indent=2) + "\n")
    return payload
