"""Tests for the dimension-agnostic topology core: 3D meshes/tori,
per-link TSV latency, pillar enumeration and the distance memo."""

import pytest

from repro.experiments.degradation import mesh_links, pillar_groups
from repro.noc.flit import Flit
from repro.noc.routing import XYRouting
from repro.types import FlitType
from repro.noc.topology import (
    DEFAULT_TSV_LATENCY,
    GraphTopology,
    Mesh3D,
    MeshTopology,
    Torus3D,
    TorusTopology,
    make_topology,
)
from repro.types import Coordinate, Direction


class TestMesh3DBasics:
    def test_dimensions_and_ports(self):
        topo = Mesh3D(4, 3, 2)
        assert topo.shape == (4, 3, 2)
        assert topo.ndim == 3
        assert topo.num_nodes == 24
        assert topo.num_ports == 7

    def test_2d_shape_constructor_matches_legacy(self):
        legacy = MeshTopology(5, 3)
        shaped = MeshTopology(shape=(5, 3))
        assert legacy.shape == shaped.shape == (5, 3)
        assert legacy.num_ports == shaped.num_ports == 5
        assert list(legacy.nodes()) == list(shaped.nodes())

    def test_row_major_x_fastest_layout(self):
        topo = Mesh3D(3, 3, 3)
        assert topo.coordinates_of(0) == Coordinate(0, 0, 0)
        assert topo.coordinates_of(1) == Coordinate(1, 0, 0)
        assert topo.coordinates_of(3) == Coordinate(0, 1, 0)
        # Layer z occupies the contiguous block [z*w*h, (z+1)*w*h).
        assert topo.coordinates_of(9) == Coordinate(0, 0, 1)
        assert topo.coordinates_of(26) == Coordinate(2, 2, 2)

    def test_coordinate_roundtrip(self):
        topo = Mesh3D(3, 4, 2)
        for node in topo.nodes():
            assert topo.node_at(topo.coordinates_of(node)) == node

    def test_vertical_neighbors(self):
        topo = Mesh3D(3, 3, 3)
        mid = topo.node_at(Coordinate(1, 1, 1))
        assert topo.neighbor(mid, Direction.UP) == topo.node_at(
            Coordinate(1, 1, 2)
        )
        assert topo.neighbor(mid, Direction.DOWN) == topo.node_at(
            Coordinate(1, 1, 0)
        )
        bottom = topo.node_at(Coordinate(1, 1, 0))
        assert topo.neighbor(bottom, Direction.DOWN) is None

    def test_interior_node_has_six_connected_directions(self):
        topo = Mesh3D(3, 3, 3)
        mid = topo.node_at(Coordinate(1, 1, 1))
        assert set(topo.connected_directions(mid)) == {
            Direction.NORTH,
            Direction.EAST,
            Direction.SOUTH,
            Direction.WEST,
            Direction.UP,
            Direction.DOWN,
        }

    def test_distance_is_3d_manhattan(self):
        topo = Mesh3D(4, 4, 4)
        a = topo.node_at(Coordinate(0, 0, 0))
        b = topo.node_at(Coordinate(3, 2, 1))
        assert topo.distance(a, b) == 6


class TestTorus3D:
    def test_vertical_wraparound(self):
        topo = Torus3D(4, 4, 4)
        top = topo.node_at(Coordinate(1, 1, 3))
        assert topo.neighbor(top, Direction.UP) == topo.node_at(
            Coordinate(1, 1, 0)
        )

    def test_wrap_distance(self):
        topo = Torus3D(4, 4, 4)
        a = topo.node_at(Coordinate(0, 0, 0))
        b = topo.node_at(Coordinate(0, 0, 3))
        assert topo.distance(a, b) == 1


class TestLinkLatency:
    def test_default_is_unit_everywhere_in_2d(self):
        topo = MeshTopology(4, 4)
        for node in topo.nodes():
            for direction in topo.connected_directions(node):
                assert topo.link_latency(node, direction) == 1

    def test_tsv_axis_is_slower(self):
        assert DEFAULT_TSV_LATENCY == (1, 1, 2)
        topo = Mesh3D(3, 3, 3)  # defaults to DEFAULT_TSV_LATENCY
        mid = topo.node_at(Coordinate(1, 1, 1))
        assert topo.link_latency(mid, Direction.EAST) == 1
        assert topo.link_latency(mid, Direction.NORTH) == 1
        assert topo.link_latency(mid, Direction.UP) == 2
        assert topo.link_latency(mid, Direction.DOWN) == 2

    def test_uniform_int_spec(self):
        topo = MeshTopology(shape=(3, 3, 3), link_latency=3)
        mid = topo.node_at(Coordinate(1, 1, 1))
        assert topo.link_latency(mid, Direction.WEST) == 3
        assert topo.link_latency(mid, Direction.UP) == 3

    def test_make_topology_factory(self):
        assert isinstance(make_topology("mesh3d", (3, 3, 3)), MeshTopology)
        assert isinstance(make_topology("torus3d", (4, 4, 4)), TorusTopology)
        with pytest.raises(ValueError):
            make_topology("hypercube", (2, 2))


def _header(dst: int) -> Flit:
    return Flit(0, 0, FlitType.HEAD, src=0, dst=dst)


class TestDimensionOrderedRouting3D:
    def test_routes_x_then_y_then_z(self):
        topo = Mesh3D(3, 3, 3)
        xy = XYRouting()
        src = topo.node_at(Coordinate(0, 0, 0))
        dst = topo.node_at(Coordinate(2, 2, 2))
        hops = []
        node = src
        while node != dst:
            (direction,) = xy.candidates(topo, node, _header(dst))
            hops.append(direction)
            node = topo.neighbor(node, direction)
        assert hops == [
            Direction.EAST,
            Direction.EAST,
            Direction.NORTH,
            Direction.NORTH,
            Direction.UP,
            Direction.UP,
        ]

    def test_every_pair_terminates_minimally(self):
        topo = Mesh3D(3, 3, 3)
        xy = XYRouting()
        for src in topo.nodes():
            for dst in topo.nodes():
                if src == dst:
                    continue
                node, hops = src, 0
                while node != dst:
                    (direction,) = xy.candidates(topo, node, _header(dst))
                    node = topo.neighbor(node, direction)
                    hops += 1
                assert hops == topo.distance(src, dst)


class TestPillarGroups:
    def test_one_group_per_column_covering_every_tsv(self):
        shape = (3, 3, 3)
        groups = pillar_groups(shape)
        assert len(groups) == 9  # one per (x, y) column
        # Each group: UP at z=0,1 and DOWN at z=1,2 -> 4 directed links.
        assert all(len(g) == 4 for g in groups)
        vertical = {
            (node, direction)
            for node, direction in mesh_links(shape)
            if direction in (Direction.UP, Direction.DOWN)
        }
        flattened = {link for group in groups for link in group}
        assert flattened == vertical

    def test_rejects_2d_shapes(self):
        with pytest.raises(ValueError):
            pillar_groups((4, 4))


class TestGraphTopologyDistanceMemo:
    def test_distance_is_cached_per_source(self):
        mesh = MeshTopology(4, 4)
        adjacency = {
            node: {
                direction: mesh.neighbor(node, direction)
                for direction in mesh.connected_directions(node)
            }
            for node in mesh.nodes()
        }
        topo = GraphTopology(adjacency)
        assert topo.distance(0, 15) == 6
        # One BFS per source: the first query fills the whole row.
        assert topo._distance_cache[0][5] == 2
        assert topo.distance(0, 15) == 6
        assert topo.distance(0, 5) == 2
