"""The arbiter used by the VC and switch allocators.

:class:`RoundRobinArbiter` is rotating-priority and strongly fair: after a
grant the winner becomes lowest priority.  It is deterministic given its
internal state, which makes allocation outcomes reproducible across runs
with the same seed.  Requests are a list of requester indices, so a grant
costs the number of requesters rather than the arbiter's size — the same
statement of round-robin the batched kernel inlines.
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

    def grant(self, requesters: Sequence[int]) -> Optional[int]:
        """Grant the requester first in rotation order from the current
        priority, or None if ``requesters`` is empty."""
        size = self.size
        nxt = self._next
        winner = None
        best = size
        for idx in requesters:
            if not 0 <= idx < size:
                raise ValueError(f"requester {idx} outside 0..{size - 1}")
            distance = (idx - nxt) % size
            if distance < best:
                winner, best = idx, distance
        if winner is not None:
            self._next = (winner + 1) % size
        return winner

    def reset(self) -> None:
        self._next = 0
