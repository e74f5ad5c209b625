"""Engine selection: which bit-identical simulator layers a run uses.

The simulator can execute one program through six optional engine
layers, every one promised bit-identical to the seed interpreter:

* ``pre_decode`` — scalar cores run a pre-decoded dispatch table instead
  of the seed interpreter;
* ``fast_forward`` — idle stretches jump the clock to the next event;
* ``fast_path`` — steady loops replay from verified templates
  (:mod:`repro.core.replay`);
* ``event_wheel`` — the tickless run loop: per-component sleep/wake on
  the event wheel, an active list of awake cores and ready-set dispatch
  indexing;
* ``batch_exec`` — opcode-grouped co-processor dispatch/commit;
* ``lane_shards`` — sharded lane bookkeeping: bulk-round greedy
  partition and busy-pool CTS arbitration.

Every layer is on by default; ``REPRO_NO_<LAYER>=1`` turns one off.
:meth:`EngineSpec.from_env` is the only place those variables are read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Dict

#: Kill-switch environment variable per :class:`EngineSpec` axis, in
#: field order.  The result-cache key, the diff-fuzz matrix and the
#: benchmark's leave-one-out pass all derive from this one registry.
ENGINE_KILL_SWITCH_ENV: Dict[str, str] = {
    "pre_decode": "REPRO_NO_PRE_DECODE",
    "fast_forward": "REPRO_NO_FAST_FORWARD",
    "fast_path": "REPRO_NO_LOOP_REPLAY",
    "event_wheel": "REPRO_NO_EVENT_WHEEL",
    "batch_exec": "REPRO_NO_BATCH_EXEC",
    "lane_shards": "REPRO_NO_LANE_SHARDS",
}

#: Short name of each axis in :attr:`EngineSpec.label`.
_LABELS: Dict[str, str] = {
    "pre_decode": "decode",
    "fast_forward": "ff",
    "fast_path": "replay",
    "event_wheel": "wheel",
    "batch_exec": "batch",
    "lane_shards": "shards",
}


@dataclass(frozen=True)
class EngineSpec:
    """One combination of the engine layers (``True`` = layer on)."""

    pre_decode: bool
    fast_forward: bool
    fast_path: bool
    event_wheel: bool = False
    batch_exec: bool = False
    lane_shards: bool = False

    @classmethod
    def from_env(cls) -> "EngineSpec":
        """Every layer on unless its ``REPRO_NO_*`` variable is non-empty."""
        return cls(
            **{axis: not os.environ.get(var) for axis, var in ENGINE_KILL_SWITCH_ENV.items()}
        )

    @property
    def label(self) -> str:
        parts = [_LABELS[f.name] for f in fields(self) if getattr(self, f.name)]
        return "+".join(parts) if parts else "interp"


#: The seed engine: interpreter, cycle by cycle, no replay, no wheel,
#: per-uop dispatch, scanning lane bookkeeping.
BASELINE_ENGINE = EngineSpec(pre_decode=False, fast_forward=False, fast_path=False)

#: The full stack: what :meth:`EngineSpec.from_env` gives with no switch set.
FULL_ENGINE = EngineSpec(**{axis: True for axis in ENGINE_KILL_SWITCH_ENV})
