"""Failure guards of :meth:`Machine.run` under every execution mode.

The deadlock detector and the ``max_cycles`` budget must fire at exactly
the same cycle whether idle-cycle fast-forward is on or off and whether
the tickless event wheel is on or off.  A fast-forward jump to a real
future event can overshoot neither guard (events keep the machine live);
a jump with *no* future event is capped at the deadlock horizon and at
``max_cycles`` so a skipped stretch can never leap over a failure.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.machine as machine_mod
from repro.common.errors import DeadlockError, SimulationError
from repro.coproc.dynamic import DynamicInstruction, EntryKind
from repro.core.engine import FULL_ENGINE
from repro.core.machine import Machine
from repro.core.policies import PRIVATE

from tests.conftest import compiled_job, make_axpy

WINDOW = 5_000


def _engine(event_wheel, fast_forward):
    return replace(FULL_ENGINE, event_wheel=event_wheel, fast_forward=fast_forward)


def _wedged_machine(config, engine) -> Machine:
    """A machine guaranteed to stop making progress.

    A poison entry sits at core 0's pool head, depending on a "ghost"
    instruction that is in no pool and never completes: the poison entry
    never becomes ready, so nothing behind it can commit, the pool never
    drains, and core 0 can never finish.
    """
    machine = Machine(
        config,
        PRIVATE,
        [compiled_job(make_axpy(length=64)), None],
        engine=engine,
    )
    ghost = DynamicInstruction(
        seq=-1, core=0, kind=EntryKind.COMPUTE, instr=None, vl_lanes=1,
        transmit_cycle=0,
    )
    poison = DynamicInstruction(
        seq=-2, core=0, kind=EntryKind.COMPUTE, instr=None, vl_lanes=1,
        transmit_cycle=0, deps=(ghost,),
    )
    machine.coproc.pools[0].push(poison)
    return machine


def _counting(machine: Machine):
    """Wrap ``machine.step`` with a call counter."""
    calls = {"n": 0}
    original = machine.step

    def counted(cycle):
        calls["n"] += 1
        return original(cycle)

    machine.step = counted  # type: ignore[method-assign]
    return calls


@pytest.mark.parametrize("event_wheel", [False, True], ids=["ref", "wheel"])
@pytest.mark.parametrize("fast_forward", [False, True], ids=["slow", "ff"])
def test_deadlock_detected(config, monkeypatch, fast_forward, event_wheel):
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    with pytest.raises(DeadlockError):
        _wedged_machine(config, _engine(event_wheel, fast_forward)).run()


def test_deadlock_fires_at_identical_cycle(config, monkeypatch):
    """The error message embeds the last-progress cycle: must match."""
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    messages = []
    for event_wheel in (False, True):
        for fast_forward in (False, True):
            with pytest.raises(DeadlockError) as excinfo:
                _wedged_machine(config, _engine(event_wheel, fast_forward)).run()
            messages.append(str(excinfo.value))
    assert len(set(messages)) == 1


def test_fast_forward_actually_skips(config, monkeypatch):
    """The ff deadlock path steps far fewer times than the window.

    Pinned to the reference loop: the step counter wraps ``Machine.step``,
    which only the reference engine drives (the event wheel steps
    components through its own masked loop).
    """
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    machine = _wedged_machine(config, _engine(event_wheel=False, fast_forward=True))
    calls = _counting(machine)
    with pytest.raises(DeadlockError):
        machine.run()
    assert calls["n"] < WINDOW / 10

    slow = _wedged_machine(config, _engine(event_wheel=False, fast_forward=False))
    slow_calls = _counting(slow)
    with pytest.raises(DeadlockError):
        slow.run()
    assert slow_calls["n"] > WINDOW  # the cycle-by-cycle loop really loops


@pytest.mark.parametrize("event_wheel", [False, True], ids=["ref", "wheel"])
@pytest.mark.parametrize("fast_forward", [False, True], ids=["slow", "ff"])
def test_max_cycles_budget(config, fast_forward, event_wheel):
    machine = Machine(
        config,
        PRIVATE,
        [compiled_job(make_axpy(length=64)), None],
        engine=_engine(event_wheel, fast_forward),
    )
    with pytest.raises(SimulationError, match="exceeded 50 cycles"):
        machine.run(max_cycles=50)


def test_max_cycles_metrics_identical(config):
    """Every mode stops at the same point with the same counters."""
    counters = []
    for event_wheel in (False, True):
        for fast_forward in (False, True):
            machine = Machine(
                config,
                PRIVATE,
                [compiled_job(make_axpy(length=256)), None],
                engine=_engine(event_wheel, fast_forward),
            )
            with pytest.raises(SimulationError):
                machine.run(max_cycles=200)
            m = machine.metrics
            counters.append(
                (
                    tuple(m.compute_uops),
                    tuple(m.ldst_uops),
                    tuple(
                        tuple(sorted((r.name, n) for r, n in per_core.items()))
                        for per_core in m.stalls
                    ),
                )
            )
    assert len(set(counters)) == 1
