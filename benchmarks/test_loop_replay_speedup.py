"""Busy-cycle fast path: cold-run speed on a steady-loop co-run.

The baseline is the seed execution engine — the ``isinstance``-chain
scalar interpreter (engine ``pre_decode`` off) with loop replay off
(``fast_path`` off).  The fast run uses the full stack: pre-decoded
dispatch plus steady-state loop replay.  Both must produce bit-identical
results; the fast run must be at least 2x faster.

The workload is an axpy pair whose array length (6144) is a multiple of
the 48-element per-iteration chunk, so every array pass is tail-free and
the co-run locks into a joint steady state the replay engine can hold.
"""

from __future__ import annotations

import time
from dataclasses import replace

from benchmarks.conftest import banner, record_bench, run_once
from repro.common.config import experiment_config
from repro.core.engine import FULL_ENGINE
from repro.core.machine import Machine
from repro.core.policies import policy
from tests.conftest import compiled_job, make_axpy, run_fingerprint

LENGTH = 6144
REPEATS = 64
MIN_SPEEDUP = 2.0


def _run(engine):
    config = experiment_config()
    jobs = [
        compiled_job(make_axpy(LENGTH, REPEATS), 0),
        compiled_job(make_axpy(LENGTH, REPEATS), 1),
    ]
    machine = Machine(config, policy("occamy"), jobs, engine=engine)
    result = machine.run()
    return result, machine.profile


def test_loop_replay_speedup(benchmark):
    start = time.perf_counter()
    slow_result, _ = _run(replace(FULL_ENGINE, pre_decode=False, fast_path=False))
    slow_seconds = time.perf_counter() - start

    def fast():
        return _run(FULL_ENGINE)

    start = time.perf_counter()
    fast_result, profile = run_once(benchmark, fast)
    fast_seconds = time.perf_counter() - start
    speedup = slow_seconds / max(fast_seconds, 1e-9)
    replayed_pct = 100.0 * profile.replayed_cycles / max(1, profile.total_cycles)

    banner("Busy-cycle fast path — seed interpreter vs replayed steady loops")
    print(f"workload: axpy{LENGTH} x{REPEATS} pair, occamy policy")
    print(f"seed engine: {slow_seconds:.2f}s (pre-decode off, replay off)")
    print(f"fast path:   {fast_seconds:.2f}s ({replayed_pct:.1f}% of cycles replayed)")
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")
    print()
    print(profile.report())
    benchmark.extra_info["slow_seconds"] = slow_seconds
    benchmark.extra_info["fast_seconds"] = fast_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["replayed_pct"] = replayed_pct
    record_bench(
        "loop_replay", speedup, slow_seconds, fast_seconds,
        extra={"replayed_pct": replayed_pct},
    )

    assert run_fingerprint(fast_result) == run_fingerprint(slow_result)
    assert profile.replayed_cycles > 0
    assert speedup >= MIN_SPEEDUP
