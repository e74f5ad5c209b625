"""Batch-execute backend: cold-run speed on a stall-heavy co-run.

The baseline is the reference dispatcher with every other accelerator a
batch run would subsume also disabled (engine ``batch_exec`` and
``event_wheel`` off): each cycle walks every in-flight window
entry per core, re-deciding budgets, renaming and memory admission one
lane-operation at a time — and re-scanning full stalled windows for
nothing.  The fast run enables only the batch backend: pools keep the
ready-set index hot, each cycle's dispatchable entries are planned with
shadow state and applied as opcode groups (short compute, long compute,
age-ordered memory), commit drains in one prefix scan and metrics land
as bulk aggregates.  Loop replay and the event wheel stay off on *both*
sides so the measurement isolates the batch backend.

The workload is the shape batching exists for: two cores stream
DRAM-resident axpys and one runs a five-point stencil (deep windows
full of same-opcode lane-operations that stall in bulk on memory), while
the fourth turns over a Vec-Cache-resident dot product whose dependency
chain keeps its window full every cycle.  Both runs must be
bit-identical; batch execution must be at least 2x faster.
"""

from __future__ import annotations

import time
from dataclasses import replace

from benchmarks.conftest import banner, record_bench, run_once
from repro.common.config import experiment_config
from repro.core.engine import FULL_ENGINE
from repro.core.machine import Machine
from repro.core.policies import policy
from tests.conftest import (
    compiled_job,
    make_axpy,
    make_reduction,
    make_stencil,
    run_fingerprint,
)

NUM_CORES = 4
STREAM_LENGTH = 24576  # 2 x 96 KiB arrays: misses the 128 KiB scaled L2
STENCIL_LENGTH = 8192
DOT_LENGTH = 256  # Vec-Cache resident
DOT_REPEATS = 96
MIN_SPEEDUP = 2.0


def _run(batch_exec):
    engine = replace(
        FULL_ENGINE, fast_path=False, event_wheel=False, batch_exec=batch_exec
    )
    config = experiment_config(num_cores=NUM_CORES)
    jobs = [
        compiled_job(make_axpy(STREAM_LENGTH), 0),
        compiled_job(make_axpy(STREAM_LENGTH), 1),
        compiled_job(make_stencil(STENCIL_LENGTH), 2),
        compiled_job(make_reduction(DOT_LENGTH, DOT_REPEATS), 3),
    ]
    machine = Machine(config, policy("occamy"), jobs, engine=engine)
    result = machine.run()
    return result, machine.profile


def test_batch_exec_speedup(benchmark):
    start = time.perf_counter()
    slow_result, _ = _run(batch_exec=False)
    slow_seconds = time.perf_counter() - start

    def fast():
        return _run(batch_exec=True)

    start = time.perf_counter()
    fast_result, profile = run_once(benchmark, fast)
    fast_seconds = time.perf_counter() - start
    speedup = slow_seconds / max(fast_seconds, 1e-9)
    calls = profile.batched_dispatch_calls + profile.scalar_dispatch_calls
    batched_pct = 100.0 * profile.batched_dispatch_calls / max(1, calls)

    banner("Batch-execute backend — per-lane dispatch vs opcode-grouped bulk")
    print(
        f"workload: 2x axpy{STREAM_LENGTH} (DRAM streams) + "
        f"stencil{STENCIL_LENGTH} co-running dot{DOT_LENGTH} x{DOT_REPEATS} "
        f"(resident), occamy policy, {NUM_CORES} cores"
    )
    print(f"per-lane dispatch: {slow_seconds:.2f}s (reference scan, every entry)")
    print(
        f"batch execute:     {fast_seconds:.2f}s "
        f"({profile.batched_dispatch_calls} batched calls, "
        f"{profile.scalar_dispatch_calls} scalar fallbacks, "
        f"{batched_pct:.1f}% batched)"
    )
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")
    print()
    print(profile.report())
    benchmark.extra_info["slow_seconds"] = slow_seconds
    benchmark.extra_info["fast_seconds"] = fast_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["batched_dispatch_calls"] = profile.batched_dispatch_calls
    benchmark.extra_info["scalar_dispatch_calls"] = profile.scalar_dispatch_calls
    record_bench(
        "batch_exec", speedup, slow_seconds, fast_seconds,
        extra={"batched_dispatch_calls": profile.batched_dispatch_calls,
               "scalar_dispatch_calls": profile.scalar_dispatch_calls},
    )

    assert run_fingerprint(fast_result) == run_fingerprint(slow_result)
    assert profile.batched_dispatch_calls > 0
    assert speedup >= MIN_SPEEDUP
