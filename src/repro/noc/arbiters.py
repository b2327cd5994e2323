"""The arbiter used by the VC and switch allocators.

:class:`RoundRobinArbiter` is rotating-priority and strongly fair: after a
grant the winner becomes lowest priority.  It is deterministic given its
internal state, which makes allocation outcomes reproducible across runs
with the same seed.
"""

from __future__ import annotations

from typing import Optional, Sequence


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``size`` requesters."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("arbiter needs at least one requester")
        self.size = size
        self._next = 0  # highest-priority index

    def arbitrate(self, requests: Sequence[bool]) -> Optional[int]:
        """Grant one of the asserted requests, or None if there are none."""
        if len(requests) != self.size:
            raise ValueError(f"expected {self.size} request lines, got {len(requests)}")
        for offset in range(self.size):
            idx = (self._next + offset) % self.size
            if requests[idx]:
                self._next = (idx + 1) % self.size
                return idx
        return None

    def reset(self) -> None:
        self._next = 0
