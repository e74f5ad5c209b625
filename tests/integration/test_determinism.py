"""Determinism of the execution strategies (the tentpole's safety net).

The parallel sweep engine, the persistent result cache, the idle-cycle
fast-forward, the pre-decoded scalar dispatch table and the steady-state
loop replay are all pure optimisations: every one of them must produce
results bit-identical to the plain serial, cycle-by-cycle simulation.
This suite pins that down by fingerprinting complete
:class:`~repro.core.machine.RunResult` objects — cycle counts, every
metric counter, phase records, lane timelines, cache statistics and final
memory bytes — across strategies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import experiments
from repro.analysis.parallel import SimTask, run_tasks
from repro.core.engine import BASELINE_ENGINE, FULL_ENGINE
from repro.core.machine import run_policy
from repro.core.policies import ALL_POLICIES, EXTENDED_POLICIES
from repro.workloads.pairs import all_pairs, jobs_for_pair

from tests.conftest import run_fingerprint

SCALE = 0.1
PAIRS = all_pairs()[:2]


@pytest.fixture(autouse=True)
def _no_persistent_cache(monkeypatch):
    """Force every strategy to really simulate (no disk-cache shortcuts)."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    experiments._sweep_cache.clear()
    yield
    experiments._sweep_cache.clear()


def _sweep_fingerprints(jobs):
    experiments._sweep_cache.clear()
    outcomes = experiments.sweep_pairs(PAIRS, scale=SCALE, jobs=jobs)
    return [
        (str(outcome.pair), key, run_fingerprint(outcome.results[key]))
        for outcome in outcomes
        for key in sorted(outcome.results)
    ]


def test_parallel_sweep_matches_serial():
    """2- and 4-worker process pools reproduce the serial sweep exactly."""
    serial = _sweep_fingerprints(jobs=1)
    assert _sweep_fingerprints(jobs=2) == serial
    assert _sweep_fingerprints(jobs=4) == serial


def test_run_tasks_order_is_positional(config):
    """Results come back in task order, not completion order."""
    tasks = [
        SimTask(policy_key=policy.key, scale=SCALE, config=config, pair=pair)
        for pair in PAIRS
        for policy in ALL_POLICIES
    ]
    results = run_tasks(tasks, jobs=2, cache=None)
    for task, result in zip(tasks, results):
        assert result.policy_key == task.policy_key


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_fast_forward_is_bit_exact(policy, config):
    """Fast-forward on vs off: identical runs under every sharing mode.

    EXTENDED_POLICIES covers all three sharing modes (spatial, temporal
    and CTS's coarse-temporal), so each mode's next-event hooks are
    exercised.
    """
    pair = PAIRS[0]
    slow_engine = replace(FULL_ENGINE, fast_forward=False)
    slow = run_policy(config, policy, jobs_for_pair(pair, SCALE), engine=slow_engine)
    fast = run_policy(config, policy, jobs_for_pair(pair, SCALE), engine=FULL_ENGINE)
    assert run_fingerprint(fast) == run_fingerprint(slow)


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_loop_replay_is_bit_exact(policy, config):
    """Loop replay on vs off: identical runs under every sharing mode.

    Together with the spatial/temporal/coarse-temporal spread this pins
    the replay engine's signature, verification and rollback logic
    against the cycle-by-cycle interpreter.
    """
    pair = PAIRS[0]
    slow_engine = replace(FULL_ENGINE, fast_path=False)
    slow = run_policy(config, policy, jobs_for_pair(pair, SCALE), engine=slow_engine)
    fast = run_policy(config, policy, jobs_for_pair(pair, SCALE), engine=FULL_ENGINE)
    assert run_fingerprint(fast) == run_fingerprint(slow)


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_pre_decode_matches_seed_interpreter(policy, config, monkeypatch):
    """The pre-decoded dispatch table reproduces the seed interpreter."""
    pair = PAIRS[0]
    monkeypatch.setenv("REPRO_NO_PRE_DECODE", "1")
    seed = run_policy(config, policy, jobs_for_pair(pair, SCALE))
    monkeypatch.delenv("REPRO_NO_PRE_DECODE")
    decoded = run_policy(config, policy, jobs_for_pair(pair, SCALE))
    assert run_fingerprint(decoded) == run_fingerprint(seed)


def test_all_fast_paths_off_matches_all_on(config):
    """The fully pessimised configuration (the seed engine: every layer
    off) and the fully optimised default agree."""
    pair = PAIRS[0]
    policy = EXTENDED_POLICIES[3]  # occamy
    baseline = run_policy(
        config, policy, jobs_for_pair(pair, SCALE), engine=BASELINE_ENGINE
    )
    optimised = run_policy(config, policy, jobs_for_pair(pair, SCALE))
    assert run_fingerprint(optimised) == run_fingerprint(baseline)


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_event_wheel_is_bit_exact(policy, config, monkeypatch):
    """Tickless event wheel on vs off: identical under every sharing mode.

    The wheel changes *everything* about the run loop — per-component
    sleep/wake, bulk metric settling, ready-set dispatch indexing — so
    this is the broadest single safety net for the tickless engine.
    """
    pair = PAIRS[0]
    monkeypatch.setenv("REPRO_NO_EVENT_WHEEL", "1")
    reference = run_policy(config, policy, jobs_for_pair(pair, SCALE))
    monkeypatch.delenv("REPRO_NO_EVENT_WHEEL")
    tickless = run_policy(config, policy, jobs_for_pair(pair, SCALE))
    assert run_fingerprint(tickless) == run_fingerprint(reference)


def test_event_wheel_env_kill_switch(monkeypatch, config):
    """REPRO_NO_EVENT_WHEEL=1 selects the reference loop — and changes
    nothing observable."""
    monkeypatch.setenv("REPRO_NO_EVENT_WHEEL", "1")
    pair = PAIRS[0]
    reference = run_policy(config, ALL_POLICIES[0], jobs_for_pair(pair, SCALE))
    monkeypatch.delenv("REPRO_NO_EVENT_WHEEL")
    tickless = run_policy(config, ALL_POLICIES[0], jobs_for_pair(pair, SCALE))
    assert run_fingerprint(reference) == run_fingerprint(tickless)


def test_fast_forward_env_kill_switch(monkeypatch, config):
    """REPRO_NO_FAST_FORWARD=1 selects the slow path — and changes nothing."""
    monkeypatch.setenv("REPRO_NO_FAST_FORWARD", "1")
    pair = PAIRS[0]
    defaulted = run_policy(config, ALL_POLICIES[0], jobs_for_pair(pair, SCALE))
    monkeypatch.delenv("REPRO_NO_FAST_FORWARD")
    fast = run_policy(config, ALL_POLICIES[0], jobs_for_pair(pair, SCALE))
    assert run_fingerprint(defaulted) == run_fingerprint(fast)


def test_sweep_is_order_independent():
    """Sweeping [A, B] and [B, A] yields the same per-pair results."""
    forward = _sweep_fingerprints(jobs=1)
    experiments._sweep_cache.clear()
    outcomes = experiments.sweep_pairs(list(reversed(PAIRS)), scale=SCALE)
    backward = [
        (str(outcome.pair), key, run_fingerprint(outcome.results[key]))
        for outcome in reversed(outcomes)
        for key in sorted(outcome.results)
    ]
    assert backward == forward
