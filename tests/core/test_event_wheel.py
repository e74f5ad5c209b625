"""The tickless event wheel: wake index, engine selection, deadlock windows.

Unit-level coverage for the event wheel
(:class:`repro.core.scheduling.HierarchicalEventWheel`) plus the two
run-loop properties the tickless engine adds: selection through the
construction-time :class:`~repro.core.engine.EngineSpec`, and the fix that a
*legitimate* long skip — a memory-bound stretch far wider than
``DEADLOCK_WINDOW`` — is never misreported as a hang (the detector now
requires the machine to have no future event at all, under every engine).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.machine as machine_mod
from repro.common.errors import ConfigurationError
from repro.core.engine import FULL_ENGINE
from repro.core.machine import Machine
from repro.core.policies import PRIVATE, policy
from repro.core.scheduling import HierarchicalEventWheel

from tests.conftest import compiled_job, make_axpy, make_two_phase, run_fingerprint


class TestEventWheel:
    def test_schedule_and_due(self):
        wheel = HierarchicalEventWheel()
        wheel.schedule(0, 10)
        wheel.schedule(1, 12)
        assert len(wheel) == 2
        assert wheel.wake_of(0) == 10
        assert wheel.next_wake() == 10
        assert wheel.due(9) == []
        assert wheel.due(10) == [0]
        assert len(wheel) == 1
        assert wheel.next_wake() == 12

    def test_due_recovers_overshot_wakes(self):
        """Wakes the clock jumped past are still returned (and popped)."""
        wheel = HierarchicalEventWheel()
        wheel.schedule(0, 5)
        wheel.schedule(1, 7)
        wheel.schedule(2, 40)
        assert wheel.due(20) == [0, 1]
        assert wheel.due(20) == []
        assert wheel.next_wake() == 40

    def test_reschedule_moves_the_wake(self):
        wheel = HierarchicalEventWheel()
        wheel.schedule(0, 10)
        wheel.schedule(0, 300)  # the earlier heap entry goes stale
        assert wheel.due(10) == []
        assert wheel.wake_of(0) == 300
        assert wheel.due(300) == [0]

    def test_cancel_is_idempotent(self):
        wheel = HierarchicalEventWheel()
        wheel.schedule(3, 9)
        wheel.cancel(3)
        wheel.cancel(3)
        assert len(wheel) == 0
        assert wheel.next_wake() is None

    def test_bucket_collisions(self):
        """Components sharing one complex group's heap stay distinct."""
        wheel = HierarchicalEventWheel(group_size=4)
        wheel.schedule(0, 8)
        wheel.schedule(1, 12)  # same group as component 0
        assert wheel.due(8) == [0]
        assert wheel.due(12) == [1]

    def test_rejects_zero_slots(self):
        with pytest.raises(ConfigurationError):
            HierarchicalEventWheel(group_size=0)


class TestKillSwitch:
    def test_explicit_argument_wins(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_NO_EVENT_WHEEL", "1")
        machine = Machine(
            config,
            PRIVATE,
            [compiled_job(make_axpy(length=64)), None],
            engine=FULL_ENGINE,
        )
        assert machine.engine.event_wheel is True

    def test_wheel_runs_sleep_components(self, config):
        """A memory-bound co-run actually exercises sleep (the engine's
        point); the sleep series records the spans."""
        jobs = [
            compiled_job(make_two_phase(length=512), 0),
            compiled_job(make_two_phase(length=512), 1),
        ]
        machine = Machine(config, policy("occamy"), jobs, engine=FULL_ENGINE)
        machine.run()
        slept = sum(
            sum(series._sums) for series in machine.metrics.sleep_series
        )
        assert slept > 0


WINDOW = 8


class TestLegitimateLongSkip:
    """Satellite fix: a skip/stall wider than DEADLOCK_WINDOW is not a hang.

    With an (artificially tiny) 8-cycle window, every memory round-trip of
    an ordinary workload out-waits the window.  The detector must see the
    pending completion (``next_event_cycle``) and keep going — under the
    reference loop, the fast-forward, and the event wheel alike.
    """

    @pytest.mark.parametrize("event_wheel", [False, True], ids=["ref", "wheel"])
    @pytest.mark.parametrize("fast_forward", [False, True], ids=["slow", "ff"])
    def test_run_completes(self, config, monkeypatch, fast_forward, event_wheel):
        monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
        jobs = [compiled_job(make_axpy(length=256)), None]
        engine = replace(
            FULL_ENGINE, event_wheel=event_wheel, fast_forward=fast_forward
        )
        result = Machine(config, PRIVATE, jobs, engine=engine).run()  # must not raise
        assert result.total_cycles > WINDOW

    def test_tiny_window_changes_nothing(self, config, monkeypatch):
        """Shrinking the window must not perturb a healthy run at all."""
        jobs = lambda: [compiled_job(make_axpy(length=256)), None]  # noqa: E731
        wide_result = Machine(config, PRIVATE, jobs(), engine=FULL_ENGINE).run()
        monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
        narrow_result = Machine(config, PRIVATE, jobs(), engine=FULL_ENGINE).run()
        assert run_fingerprint(narrow_result) == run_fingerprint(wide_result)
