"""Tests for mesh and torus topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import MeshTopology, TorusTopology
from repro.types import Coordinate, Direction


class TestMeshBasics:
    def test_dimensions(self):
        topo = MeshTopology(shape=(8, 8))
        assert topo.num_nodes == 64

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            MeshTopology(shape=(0, 4))

    def test_coordinate_mapping_roundtrip(self):
        topo = MeshTopology(shape=(5, 3))
        for node in topo.nodes():
            assert topo.node_at(topo.coordinates_of(node)) == node

    def test_row_major_layout(self):
        topo = MeshTopology(shape=(4, 4))
        assert topo.coordinates_of(0) == Coordinate(0, 0)
        assert topo.coordinates_of(3) == Coordinate(3, 0)
        assert topo.coordinates_of(4) == Coordinate(0, 1)
        assert topo.coordinates_of(15) == Coordinate(3, 3)

    def test_rejects_out_of_range_node(self):
        topo = MeshTopology(shape=(2, 2))
        with pytest.raises(ValueError):
            topo.coordinates_of(4)
        with pytest.raises(ValueError):
            topo.node_at(Coordinate(2, 0))


class TestMeshNeighbors:
    def test_interior_node_has_four_neighbors(self):
        topo = MeshTopology(shape=(4, 4))
        center = topo.node_at(Coordinate(1, 1))
        assert topo.neighbor(center, Direction.NORTH) == topo.node_at(Coordinate(1, 2))
        assert topo.neighbor(center, Direction.SOUTH) == topo.node_at(Coordinate(1, 0))
        assert topo.neighbor(center, Direction.EAST) == topo.node_at(Coordinate(2, 1))
        assert topo.neighbor(center, Direction.WEST) == topo.node_at(Coordinate(0, 1))

    def test_corner_edges(self):
        topo = MeshTopology(shape=(4, 4))
        origin = 0  # (0, 0)
        assert topo.neighbor(origin, Direction.WEST) is None
        assert topo.neighbor(origin, Direction.SOUTH) is None
        assert set(topo.edge_directions(origin)) == {Direction.WEST, Direction.SOUTH}
        assert set(topo.connected_directions(origin)) == {
            Direction.NORTH,
            Direction.EAST,
        }

    def test_local_has_no_neighbor(self):
        topo = MeshTopology(shape=(2, 2))
        assert topo.neighbor(0, Direction.LOCAL) is None

    def test_neighbor_symmetry(self):
        topo = MeshTopology(shape=(5, 4))
        for node in topo.nodes():
            for d in topo.connected_directions(node):
                other = topo.neighbor(node, d)
                assert topo.neighbor(other, d.opposite) == node


def coordinate_neighbor(topo, node, direction, wrap):
    """The neighbor by coordinate arithmetic, independent of the table."""
    if direction is Direction.LOCAL or direction.axis >= topo.ndim:
        return None
    coord = topo.coordinates_of(node) + direction.delta
    if wrap:
        coord = Coordinate(*(c % n for c, n in zip(coord, topo.shape)))
    return topo.node_at(coord) if topo.contains(coord) else None


@pytest.mark.parametrize(
    "cls, shape",
    [
        (MeshTopology, (4, 4)),
        (TorusTopology, (4, 4)),
        (MeshTopology, (5, 3)),
        (TorusTopology, (2, 5)),
        (MeshTopology, (3, 4, 2)),
        (TorusTopology, (3, 1, 4)),
    ],
)
def test_neighbor_table_equals_coordinate_arithmetic(cls, shape):
    topo = cls(shape=shape)
    wrap = cls is TorusTopology
    for node in topo.nodes():
        for direction in Direction:
            expected = coordinate_neighbor(topo, node, direction, wrap)
            assert topo.neighbor(node, direction) == expected, (node, direction)
    with pytest.raises(ValueError):
        topo.neighbor(topo.num_nodes, Direction.EAST)
    with pytest.raises(ValueError):
        topo.neighbor(-1, Direction.EAST)


class TestMeshDistance:
    def test_distance_is_manhattan(self):
        topo = MeshTopology(shape=(8, 8))
        assert topo.distance(0, 63) == 14
        assert topo.distance(0, 7) == 7

    def test_average_minimal_hops_8x8(self):
        # Known closed form for an 8x8 mesh under uniform traffic:
        # 2 * (n^2-1)/(3n) with n=8 ... ~5.33 for ordered pairs.
        avg = MeshTopology(shape=(8, 8)).average_minimal_hops()
        assert avg == pytest.approx(16 / 3, rel=1e-9)

    def test_minimal_directions(self):
        topo = MeshTopology(shape=(4, 4))
        src = topo.node_at(Coordinate(1, 1))
        dst = topo.node_at(Coordinate(3, 0))
        assert set(topo.minimal_directions(src, dst)) == {
            Direction.EAST,
            Direction.SOUTH,
        }
        assert topo.minimal_directions(src, src) == []

    @given(
        width=st.integers(min_value=2, max_value=8),
        height=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_minimal_directions_reduce_distance(self, width, height, data):
        topo = MeshTopology(shape=(width, height))
        src = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
        if src == dst:
            assert topo.minimal_directions(src, dst) == []
            return
        dirs = topo.minimal_directions(src, dst)
        assert dirs
        for d in dirs:
            nxt = topo.neighbor(src, d)
            assert nxt is not None
            assert topo.distance(nxt, dst) == topo.distance(src, dst) - 1


class TestTorus:
    def test_wraparound_neighbors(self):
        topo = TorusTopology(shape=(4, 4))
        west_edge = topo.node_at(Coordinate(0, 1))
        assert topo.neighbor(west_edge, Direction.WEST) == topo.node_at(
            Coordinate(3, 1)
        )
        south_edge = topo.node_at(Coordinate(2, 0))
        assert topo.neighbor(south_edge, Direction.SOUTH) == topo.node_at(
            Coordinate(2, 3)
        )

    def test_no_edges(self):
        topo = TorusTopology(shape=(4, 4))
        for node in topo.nodes():
            assert topo.edge_directions(node) == []

    def test_wrap_distance(self):
        topo = TorusTopology(shape=(8, 8))
        assert topo.distance(0, 7) == 1  # wraps in x
        assert topo.distance(0, 56) == 1  # wraps in y

    def test_minimal_directions_prefer_wrap(self):
        topo = TorusTopology(shape=(8, 1))
        dirs = topo.minimal_directions(0, 7)
        assert dirs == [Direction.WEST]

    def test_equidistant_offers_both(self):
        topo = TorusTopology(shape=(4, 1))
        dirs = topo.minimal_directions(0, 2)
        assert set(dirs) == {Direction.EAST, Direction.WEST}
