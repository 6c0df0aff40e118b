"""Flattened L1 read hits are bit-identical to Process-per-op reads.

When the memory path has per-CU L1 TLBs and L1 caches, ``GPU.launch``
serves reads through the flattened L1 read-hit dispatch instead of
spawning a ``_do_op`` process per read. The reference is the
Process-per-op read path, selected through the same observable
condition ``launch`` uses: :class:`tests.util.ProcessPerOpGPU` overrides
``_do_op`` (only delegating), which keeps every read a process. Both
paths must agree on every observable: RunResult counters, violation
sequences, final tick, and the full per-component stats tree — across
downgrade storms, faulting (rogue) accesses, and hand-built traces.

The test names keep their original wording: "scalar" is the
Process-per-op reference and "vector" the flattened path.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.gpu import GPU, KernelTrace
from repro.experiments.common import _result_to_dict
from repro.sim import system as system_module
from repro.sim.config import GPUThreading, SafetyMode
from repro.sim.runner import run_single
from repro.workloads import base as workloads_base
from repro.workloads.base import WorkloadSpec

from tests.util import ProcessPerOpGPU, make_system, small_config, tiny_spec


@pytest.fixture(autouse=True)
def _fresh_state():
    """Cold trace memo per test."""
    workloads_base.clear_trace_cache()
    yield
    workloads_base.clear_trace_cache()


@contextlib.contextmanager
def _gpu_class(flattened: bool):
    """Build every System in the block with the flattened read path on
    (the plain GPU) or off (the Process-per-op reference)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_module, "GPU", GPU if flattened else ProcessPerOpGPU)
        yield


def _run_mode(flattened: bool, **kwargs):
    defaults = dict(
        workload="tiny",
        safety=SafetyMode.BC_BCC,
        threading=GPUThreading.MODERATELY,
        seed=7,
        config=small_config(),
        spec=tiny_spec(),
    )
    defaults.update(kwargs)
    workload = defaults.pop("workload")
    safety = defaults.pop("safety")
    threading = defaults.pop("threading")
    with _gpu_class(flattened):
        return run_single(workload, safety, threading, **defaults)


def _assert_identical(reference, flattened) -> None:
    s, v = _result_to_dict(reference), _result_to_dict(flattened)
    for field_name, expected in s.items():
        assert v[field_name] == expected, (
            f"RunResult.{field_name} diverged between the Process-per-op "
            f"and flattened read paths: {v[field_name]!r} != {expected!r}"
        )
    assert set(s) == set(v)


class TestScalarVectorIdentity:
    @pytest.mark.parametrize("safety", list(SafetyMode))
    def test_every_safety_mode_is_bit_identical(self, safety):
        _assert_identical(
            _run_mode(False, safety=safety), _run_mode(True, safety=safety)
        )

    def test_highly_threaded_cell(self):
        kwargs = dict(threading=GPUThreading.HIGHLY, seed=1234)
        _assert_identical(_run_mode(False, **kwargs), _run_mode(True, **kwargs))

    def test_downgrade_storm_is_bit_identical(self):
        # Downgrades quiesce the GPU mid-kernel: the flattened path must
        # observe the same fences and produce the same violations.
        kwargs = dict(downgrade_interval_cycles=2e4)
        _assert_identical(_run_mode(False, **kwargs), _run_mode(True, **kwargs))

    def test_large_pages_cell(self):
        kwargs = dict(large_pages=True)
        _assert_identical(_run_mode(False, **kwargs), _run_mode(True, **kwargs))

    def test_flattened_path_served_reads(self, monkeypatch):
        """Count dispatch calls and Process fallbacks: some reads must
        complete on the flattened path without any Process."""
        calls = {"dispatch": 0, "fallback": 0}
        make_dispatch = GPU._make_l1_read_dispatch
        spawn_inline = GPU._spawn_inline

        def counting_make_dispatch(gpu, cu_index, asid):
            dispatch = make_dispatch(gpu, cu_index, asid)

            def counted(payload):
                calls["dispatch"] += 1
                dispatch(payload)

            return counted

        def counting_spawn_inline(gpu, gen):
            calls["fallback"] += 1
            spawn_inline(gpu, gen)

        monkeypatch.setattr(GPU, "_make_l1_read_dispatch", counting_make_dispatch)
        monkeypatch.setattr(GPU, "_spawn_inline", counting_spawn_inline)
        kwargs = dict(threading=GPUThreading.HIGHLY)
        flattened = _run_mode(True, **kwargs)
        assert calls["dispatch"] > calls["fallback"] > 0

        calls.update(dispatch=0, fallback=0)
        reference = _run_mode(False, **kwargs)
        assert calls == {"dispatch": 0, "fallback": 0}
        _assert_identical(reference, flattened)


spec_st = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    description=st.just("hypothesis cell"),
    footprint_bytes=st.sampled_from([256 * 1024, 1024 * 1024]),
    ops_per_wavefront=st.integers(min_value=1, max_value=24),
    write_fraction=st.sampled_from([0.0, 0.25, 0.9]),
    compute_gap_mean=st.sampled_from([0.0, 1.5, 40.0]),
    pattern=st.sampled_from(["stream", "random", "graph", "blocked"]),
    l1_reuse=st.sampled_from([0.0, 0.5, 0.9]),
    l2_reuse=st.sampled_from([0.0, 0.1]),
)


@settings(max_examples=12, deadline=None)
@given(
    spec=spec_st,
    seed=st.integers(min_value=0, max_value=2**20),
    safety=st.sampled_from([SafetyMode.BC_BCC, SafetyMode.ATS_ONLY]),
    downgrade=st.sampled_from([None, 3e4]),
)
def test_random_cells_scalar_vector_identical(spec, seed, safety, downgrade):
    """Any small random cell — mixed gaps, reuse mixes, downgrade storms
    (which inject quiesces, shootdowns, and permission violations
    mid-kernel) — yields identical counters, violation sequences, and
    final tick on both read paths."""
    results = [
        _run_mode(
            flattened,
            workload=spec.name,
            safety=safety,
            seed=seed,
            spec=spec,
            downgrade_interval_cycles=downgrade,
        )
        for flattened in (False, True)
    ]
    _assert_identical(results[0], results[1])


op_st = st.one_of(
    # compute gap only
    st.tuples(st.integers(min_value=0, max_value=50), st.none(), st.just(False)),
    # in-footprint access (tiny_spec footprint is 1 MiB)
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=(1024 * 1024) - 4),
        st.booleans(),
    ),
    # rogue probe far outside any mapping: faults through the full path
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1 << 40, max_value=(1 << 40) + (1 << 20)),
        st.booleans(),
    ),
)


@settings(max_examples=15, deadline=None)
@given(
    wavefronts=st.lists(
        st.lists(op_st, min_size=1, max_size=12), min_size=1, max_size=3
    ),
)
def test_hand_built_traces_scalar_vector_identical(wavefronts):
    """Hand-built traces — interleaved wavefronts, rogue out-of-mapping
    probes (translation faults), writes, and arbitrary gap patterns —
    drive both read paths to the same final stats tree and the same
    final tick."""
    from repro.core.permissions import Perm

    finals = []
    for flattened in (False, True):
        with _gpu_class(flattened):
            system = make_system(SafetyMode.BC_BCC)
        proc = system.new_process("hand")
        system.attach_process(proc)
        # A real mapping so in-footprint accesses translate; rogue
        # vaddrs above 1 TiB never do and fault through the full path.
        base = system.kernel.mmap(proc, 256, Perm.RW)
        cu_ops = [
            [
                (
                    gap,
                    None
                    if vaddr is None
                    else (base + vaddr if vaddr < (1 << 39) else vaddr),
                    write,
                )
                for (gap, vaddr, write) in wf
            ]
            for wf in wavefronts
        ]
        trace = KernelTrace(name="hand", cu_wavefronts=[cu_ops])
        system.gpu.run_kernel(proc.asid, trace)
        finals.append((system.engine.now, system.stats.as_dict()))
    assert finals[0] == finals[1]
