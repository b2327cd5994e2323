"""Injection processes.

The paper injects "messages into the network at regular intervals specified
by the injection rate" — a periodic process — so :class:`PeriodicInjection`
is the one the simulator builds.

Rates are in flits/node/cycle, so a node generating ``M``-flit packets
fires every ``M / rate`` cycles on average.
"""

from __future__ import annotations

import random
from typing import List


class InjectionProcess:
    """Decides, per node per cycle, whether a new packet is generated."""

    def __init__(self, num_nodes: int, rate: float, flits_per_packet: int):
        if rate <= 0:
            raise ValueError("injection rate must be positive")
        if flits_per_packet < 1:
            raise ValueError("packets must have at least one flit")
        self.num_nodes = num_nodes
        self.rate = rate
        self.flits_per_packet = flits_per_packet
        #: Mean cycles between packet generations at one node.
        self.interval = flits_per_packet / rate

    def fires(self, node: int, cycle: int, rng: random.Random) -> bool:
        raise NotImplementedError


class PeriodicInjection(InjectionProcess):
    """Fixed inter-arrival of ``M / rate`` cycles with a random per-node
    phase, so the whole network does not inject in lockstep.

    Fractional intervals are handled with an accumulator, so the long-run
    rate is exact (e.g. rate 0.3, M 4 -> every 13.33 cycles on average).
    """

    def __init__(self, num_nodes: int, rate: float, flits_per_packet: int):
        super().__init__(num_nodes, rate, flits_per_packet)
        self._next_fire: List[float] = []

    def _ensure_init(self, rng: random.Random) -> None:
        if not self._next_fire:
            self._next_fire = [
                rng.uniform(0, self.interval) for _ in range(self.num_nodes)
            ]

    def fires(self, node: int, cycle: int, rng: random.Random) -> bool:
        self._ensure_init(rng)
        if cycle >= self._next_fire[node]:
            self._next_fire[node] += self.interval
            return True
        return False

    def fire_due(self, cycle: int, rng: random.Random) -> List[int]:
        """The nodes that fire at ``cycle``, ascending, in one pass over the
        accumulators: what ``fires`` answers node by node."""
        self._ensure_init(rng)
        next_fire, interval = self._next_fire, self.interval
        due = [node for node, at in enumerate(next_fire) if cycle >= at]
        for node in due:
            next_fire[node] += interval
        return due

    def next_fire(self) -> float:
        """The earliest cycle any node fires at (``fires`` draws nothing)."""
        return min(self._next_fire)
