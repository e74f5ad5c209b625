"""Engine selection: every ``REPRO_NO_*`` switch maps to one spec axis."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.engine import ENGINE_KILL_SWITCH_ENV, FULL_ENGINE, EngineSpec


@pytest.mark.parametrize("axis", list(ENGINE_KILL_SWITCH_ENV))
def test_from_env_reads_each_kill_switch(monkeypatch, axis):
    for var in ENGINE_KILL_SWITCH_ENV.values():
        monkeypatch.delenv(var, raising=False)
    assert EngineSpec.from_env() == FULL_ENGINE
    monkeypatch.setenv(ENGINE_KILL_SWITCH_ENV[axis], "1")
    assert EngineSpec.from_env() == replace(FULL_ENGINE, **{axis: False})
