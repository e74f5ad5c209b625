"""In-memory spans recorded around calls into the program's layers.

A span is ``[trace, span, parent, name, start, end]`` with monotonic
seconds.  One trace id covers one operation (one simulation, one service
submission).  The layer of a span is the first dotted part of its name, so
``core.run`` and ``core.init`` both belong to ``core``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

LAYERS = ("workloads", "core", "analysis", "service", "validation")


class Tracer:
    """Collects spans when enabled; every call is a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._traces = 0
        self._open: List[int] = []

    def new_trace(self) -> int:
        self._traces += 1
        return self._traces

    def record(
        self, name: str, trace: int, start: float, end: float, parent: Optional[int] = None
    ) -> Optional[int]:
        """Add a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        self.spans.append([trace, len(self.spans), parent, name, start, end])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, trace: int):
        """Time the ``with`` body as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        span_id = self.record(name, trace, time.monotonic(), 0.0, parent)
        self._open.append(span_id)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[span_id][5] = time.monotonic()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for _t, _s, _p, n, start, end in self.spans if n == name)

    def durations(self, name: str) -> List[float]:
        return [end - start for _t, _s, _p, n, start, end in self.spans if n == name]


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Seconds per layer not covered by a child span of the same span."""
    children: Dict[int, List[tuple]] = {}
    for _trace, _span, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {layer: 0.0 for layer in LAYERS}
    for _trace, span, _parent, name, start, end in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
    return totals
