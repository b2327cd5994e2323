"""Tests for traffic patterns (NR / BC / TN / transpose)."""

import random
from collections import Counter

import pytest

from repro.noc.topology import MeshTopology
from repro.traffic.patterns import (
    BitComplementTraffic,
    TornadoTraffic,
    TransposeTraffic,
    UniformTraffic,
    make_traffic_pattern,
)
from repro.types import Coordinate

TOPO = MeshTopology(shape=(8, 8))
RNG = random.Random(17)


class TestUniform:
    def test_never_self(self):
        pattern = UniformTraffic(TOPO)
        for _ in range(500):
            assert pattern.destination(13, RNG) != 13

    def test_covers_all_destinations(self):
        pattern = UniformTraffic(TOPO)
        seen = {pattern.destination(0, RNG) for _ in range(5000)}
        assert seen == set(range(1, 64))

    def test_roughly_uniform(self):
        pattern = UniformTraffic(TOPO)
        counts = Counter(pattern.destination(0, RNG) for _ in range(12600))
        assert max(counts.values()) < 2 * min(counts.values())

    def test_single_node_mesh_returns_none(self):
        pattern = UniformTraffic(MeshTopology(shape=(1, 1)))
        assert pattern.destination(0, RNG) is None


class TestBitComplement:
    def test_coordinate_complement(self):
        pattern = BitComplementTraffic(TOPO)
        src = TOPO.node_at(Coordinate(2, 5))
        assert pattern.destination(src, RNG) == TOPO.node_at(Coordinate(5, 2))

    def test_matches_bitwise_complement_on_power_of_two(self):
        pattern = BitComplementTraffic(TOPO)
        for src in TOPO.nodes():
            assert pattern.destination(src, RNG) == (~src) & 63

    def test_is_an_involution(self):
        pattern = BitComplementTraffic(TOPO)
        for src in TOPO.nodes():
            dst = pattern.destination(src, RNG)
            assert pattern.destination(dst, RNG) == src

    def test_center_of_odd_mesh_does_not_inject(self):
        topo = MeshTopology(shape=(3, 3))
        pattern = BitComplementTraffic(topo)
        center = topo.node_at(Coordinate(1, 1))
        assert pattern.destination(center, RNG) is None


class TestTornado:
    def test_half_way_around_x(self):
        pattern = TornadoTraffic(TOPO)
        src = TOPO.node_at(Coordinate(1, 4))
        # ceil(8/2) - 1 = 3 columns east, same row.
        assert pattern.destination(src, RNG) == TOPO.node_at(Coordinate(4, 4))

    def test_wraps_modulo_width(self):
        pattern = TornadoTraffic(TOPO)
        src = TOPO.node_at(Coordinate(6, 0))
        assert pattern.destination(src, RNG) == TOPO.node_at(Coordinate(1, 0))

    def test_same_row_always(self):
        pattern = TornadoTraffic(TOPO)
        for src in TOPO.nodes():
            dst = pattern.destination(src, RNG)
            assert TOPO.coordinates_of(dst).y == TOPO.coordinates_of(src).y


class TestTranspose:
    def test_swaps_coordinates(self):
        pattern = TransposeTraffic(TOPO)
        src = TOPO.node_at(Coordinate(2, 6))
        assert pattern.destination(src, RNG) == TOPO.node_at(Coordinate(6, 2))

    def test_diagonal_does_not_inject(self):
        pattern = TransposeTraffic(TOPO)
        diag = TOPO.node_at(Coordinate(3, 3))
        assert pattern.destination(diag, RNG) is None

    def test_requires_square_mesh(self):
        with pytest.raises(ValueError):
            TransposeTraffic(MeshTopology(shape=(4, 2)))


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("uniform", UniformTraffic),
            ("NR", UniformTraffic),
            ("bit_complement", BitComplementTraffic),
            ("bc", BitComplementTraffic),
            ("tornado", TornadoTraffic),
            ("TN", TornadoTraffic),
            ("transpose", TransposeTraffic),
        ],
    )
    def test_names_and_paper_abbreviations(self, name, cls):
        assert isinstance(make_traffic_pattern(name, TOPO), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_traffic_pattern("randomish", TOPO)
