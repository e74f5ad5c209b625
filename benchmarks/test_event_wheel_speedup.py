"""Tickless event wheel: cold-run speed on a mixed-bound co-run.

The baseline is the reference run loop (engine ``event_wheel`` off): every
cycle steps every component and every stalled window is re-scanned in
full.  The fast run uses the tickless engine — per-component sleep/wake on
the event wheel plus ready-set dispatch indexing.  Loop replay is disabled
on *both* sides so the measurement isolates the wheel (replay would
otherwise skip the very steady-state cycles the wheel accelerates).

The workload is the shape the wheel exists for: three cores stream
DRAM-resident axpys (their components sleep through memory round-trips
and index-stall the rest of the time) while the fourth runs a
Vec-Cache-resident dot product that is busy nearly every cycle — so the
*global* idle fast-forward almost never applies and only per-component
skipping can help.  Both runs must be bit-identical; the wheel must be
at least 2x faster.
"""

from __future__ import annotations

import time
from dataclasses import replace

from benchmarks.conftest import banner, record_bench, run_once
from repro.common.config import experiment_config
from repro.core.engine import FULL_ENGINE
from repro.core.machine import Machine
from repro.core.policies import policy
from tests.conftest import compiled_job, make_axpy, make_reduction, run_fingerprint

NUM_CORES = 4
STREAM_LENGTH = 24576  # 2 x 96 KiB arrays: misses the 128 KiB scaled L2
DOT_LENGTH = 256  # Vec-Cache resident
DOT_REPEATS = 160
MIN_SPEEDUP = 2.0


def _run(event_wheel):
    engine = replace(FULL_ENGINE, fast_path=False, event_wheel=event_wheel)
    config = experiment_config(num_cores=NUM_CORES)
    jobs = [
        compiled_job(make_axpy(STREAM_LENGTH), 0),
        compiled_job(make_axpy(STREAM_LENGTH), 1),
        compiled_job(make_axpy(STREAM_LENGTH), 2),
        compiled_job(make_reduction(DOT_LENGTH, DOT_REPEATS), 3),
    ]
    machine = Machine(config, policy("occamy"), jobs, engine=engine)
    result = machine.run()
    return result, machine.profile


def test_event_wheel_speedup(benchmark):
    start = time.perf_counter()
    slow_result, _ = _run(event_wheel=False)
    slow_seconds = time.perf_counter() - start

    def fast():
        return _run(event_wheel=True)

    start = time.perf_counter()
    fast_result, profile = run_once(benchmark, fast)
    fast_seconds = time.perf_counter() - start
    speedup = slow_seconds / max(fast_seconds, 1e-9)
    asleep = sum(profile.component_asleep)
    stepped = asleep + sum(profile.component_busy) + sum(profile.component_idle)
    asleep_pct = 100.0 * asleep / max(1, stepped)

    banner("Tickless event wheel — reference tick vs per-component sleep/wake")
    print(
        f"workload: 3x axpy{STREAM_LENGTH} (DRAM streams) co-running "
        f"dot{DOT_LENGTH} x{DOT_REPEATS} (resident), occamy policy, "
        f"{NUM_CORES} cores"
    )
    print(f"reference tick: {slow_seconds:.2f}s (every component, every cycle)")
    print(
        f"event wheel:    {fast_seconds:.2f}s "
        f"({asleep_pct:.1f}% of component-cycles slept)"
    )
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")
    print()
    print(profile.report())
    benchmark.extra_info["slow_seconds"] = slow_seconds
    benchmark.extra_info["fast_seconds"] = fast_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["asleep_pct"] = asleep_pct
    record_bench(
        "event_wheel", speedup, slow_seconds, fast_seconds,
        extra={"asleep_pct": asleep_pct},
    )

    assert run_fingerprint(fast_result) == run_fingerprint(slow_result)
    assert asleep > 0
    assert speedup >= MIN_SPEEDUP
