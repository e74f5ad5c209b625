"""O(active-work) engine stack: cold-run speed on a 16-core mixed co-run.

The baseline is the seed-path engine (``BASELINE_ENGINE``: every engine
layer off) — so every cycle steps every core, scans the full lane pool
and ticks per-core metrics.  The fast run is the default stack
(``FULL_ENGINE``), whose per-cycle cost tracks the components that
actually have work: the event wheel skips sleeping cores in one step,
sharded lane bookkeeping keeps repartitions off the full-pool scan, and
metric settling batches per touched core.

The workload is the shape N-core machines actually present: most cores
stream DRAM-resident axpys (asleep through memory round-trips), while
every fourth runs a Vec-Cache-resident dot product that is busy nearly
every cycle — so the *global* idle fast-forward rarely applies and only
per-component accounting can help.  Both runs must be bit-identical; the
default stack must be at least 3x faster at 16 cores.

The record also times the fast engine at 8 and 32 cores so the
perf-trajectory (and ``repro perf-report``) can show how wall-clock
scales with machine size.
"""

from __future__ import annotations

import time

from benchmarks.conftest import banner, record_bench, run_once
from repro.common.config import experiment_config
from repro.core.engine import BASELINE_ENGINE, FULL_ENGINE
from repro.core.machine import Machine
from repro.core.policies import policy
from tests.conftest import compiled_job, make_axpy, make_reduction, run_fingerprint

GATE_CORES = 16
SCALING_CORES = (8, 16, 32)
STREAM_LENGTH = 6144  # 2 x 24 KiB arrays per core: misses the scaled L2
DOT_LENGTH = 256  # Vec-Cache resident
DOT_REPEATS = 48
MIN_SPEEDUP = 3.0


def _jobs(num_cores):
    jobs = []
    for core in range(num_cores):
        if core % 4 == 3:
            jobs.append(compiled_job(make_reduction(DOT_LENGTH, DOT_REPEATS), core))
        else:
            jobs.append(compiled_job(make_axpy(STREAM_LENGTH), core))
    return jobs


def _run(num_cores, engine):
    config = experiment_config(num_cores=num_cores)
    machine = Machine(config, policy("occamy"), _jobs(num_cores), engine=engine)
    return machine.run(), machine.profile


def test_ncore_speedup(benchmark):
    start = time.perf_counter()
    slow_result, _ = _run(GATE_CORES, BASELINE_ENGINE)
    slow_seconds = time.perf_counter() - start

    def fast():
        return _run(GATE_CORES, FULL_ENGINE)

    start = time.perf_counter()
    fast_result, profile = run_once(benchmark, fast)
    fast_seconds = time.perf_counter() - start
    speedup = slow_seconds / max(fast_seconds, 1e-9)

    # Fast-engine wall clock across machine sizes: the scaling trend the
    # O(active-work) restructuring exists for.
    extra = {}
    for num_cores in SCALING_CORES:
        if num_cores == GATE_CORES:
            seconds, cycles = fast_seconds, fast_result.total_cycles
        else:
            start = time.perf_counter()
            scaled_result, _ = _run(num_cores, FULL_ENGINE)
            seconds = time.perf_counter() - start
            cycles = scaled_result.total_cycles
        extra[f"fast_seconds_{num_cores}"] = round(seconds, 4)
        extra[f"cycles_{num_cores}"] = cycles

    banner("O(active-work) core — seed-path engine vs default stack, 16 cores")
    print(
        f"workload: 12x axpy{STREAM_LENGTH} (DRAM streams) co-running "
        f"4x dot{DOT_LENGTH} x{DOT_REPEATS} (resident), occamy policy"
    )
    print(f"seed path:     {slow_seconds:.2f}s (every core, every cycle)")
    print(f"default stack: {fast_seconds:.2f}s")
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")
    for num_cores in SCALING_CORES:
        print(
            f"  {num_cores:>2} cores: {extra[f'fast_seconds_{num_cores}']:.2f}s "
            f"for {extra[f'cycles_{num_cores}']} cycles"
        )
    print()
    print(profile.report())
    benchmark.extra_info["slow_seconds"] = slow_seconds
    benchmark.extra_info["fast_seconds"] = fast_seconds
    benchmark.extra_info["speedup"] = speedup
    record_bench("ncore", speedup, slow_seconds, fast_seconds, extra=extra)

    assert run_fingerprint(fast_result) == run_fingerprint(slow_result)
    assert speedup >= MIN_SPEEDUP
