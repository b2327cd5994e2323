"""Destination distributions.

Each pattern maps an injecting node to a destination node.  The paper uses
normal random (NR), bit-complement (BC) and tornado (TN) [19]; transpose is
the standard extra.  ``make_traffic_pattern`` is the one way a run picks
one: ``WorkloadConfig.pattern`` names it.

Deterministic patterns may map a node to itself (e.g. the center nodes of an
odd-sized bit-complement); such nodes simply do not inject — the standard
convention — signalled by returning ``None``.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.noc.topology import MeshTopology
from repro.types import Coordinate


class TrafficPattern:
    """Base class: maps a source node to a destination node (or None)."""

    name = "abstract"

    def __init__(self, topology: MeshTopology):
        self.topology = topology

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        raise NotImplementedError


class UniformTraffic(TrafficPattern):
    """Normal random (NR): uniform over all other nodes."""

    name = "uniform"

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        n = self.topology.num_nodes
        if n < 2:
            return None
        dst = rng.randrange(n - 1)
        return dst if dst < src else dst + 1


class BitComplementTraffic(TrafficPattern):
    """Bit-complement (BC): (x, y) -> (W-1-x, H-1-y).

    On power-of-two meshes this equals complementing the node-id bits; the
    coordinate form generalizes to any dimensions.
    """

    name = "bit_complement"

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        topo = self.topology
        c = topo.coordinates_of(src)
        mirrored = Coordinate(
            *(extent - 1 - v for extent, v in zip(topo.shape, c))
        )
        dst = topo.node_at(mirrored)
        return None if dst == src else dst


class TornadoTraffic(TrafficPattern):
    """Tornado (TN): (x, ...) -> ((x + ceil(W/2) - 1) mod W, ...) [19].

    The rotation is along the x axis only, whatever the dimension count —
    the classic adversarial case for dimension-ordered routing.
    """

    name = "tornado"

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        topo = self.topology
        c = topo.coordinates_of(src)
        shift = math.ceil(topo.width / 2) - 1
        rotated = ((c.x + shift) % topo.width,) + tuple(c)[1:]
        dst = topo.node_at(Coordinate(rotated))
        return None if dst == src else dst


class TransposeTraffic(TrafficPattern):
    """Matrix transpose: (x, y) -> (y, x) (square meshes only)."""

    name = "transpose"

    def __init__(self, topology: MeshTopology):
        super().__init__(topology)
        if topology.ndim != 2:
            raise ValueError("transpose traffic is defined on 2D meshes only")
        if topology.width != topology.height:
            raise ValueError("transpose traffic requires a square mesh")

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        c = self.topology.coordinates_of(src)
        dst = self.topology.node_at(Coordinate(c.y, c.x))
        return None if dst == src else dst


_PATTERNS = {
    "uniform": UniformTraffic,
    "nr": UniformTraffic,
    "bit_complement": BitComplementTraffic,
    "bc": BitComplementTraffic,
    "tornado": TornadoTraffic,
    "tn": TornadoTraffic,
    "transpose": TransposeTraffic,
}


def make_traffic_pattern(name: str, topology: MeshTopology) -> TrafficPattern:
    """Factory accepting both full names and the paper's abbreviations."""
    key = name.lower()
    if key not in _PATTERNS:
        raise ValueError(
            f"unknown traffic pattern {name!r}; choose from {sorted(set(_PATTERNS))}"
        )
    return _PATTERNS[key](topology)
