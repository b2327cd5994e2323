"""Tests for routing functions and the XY misroute-detection invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.flit import Flit
from repro.noc.routing import (
    FullyAdaptiveRouting,
    SourceRouting,
    WestFirstRouting,
    XYRouting,
    resolve_routing_function,
    xy_arrival_is_legal,
)
from repro.noc.topology import MeshTopology
from repro.types import Coordinate, Direction, FlitType, RoutingAlgorithm

TOPO = MeshTopology(shape=(8, 8))


def header(dst: int, route=None) -> Flit:
    return Flit(0, 0, FlitType.HEAD, src=0, dst=dst, source_route=route)


class TestXYRouting:
    def test_x_first(self):
        xy = XYRouting()
        src = TOPO.node_at(Coordinate(1, 1))
        dst = TOPO.node_at(Coordinate(4, 5))
        assert xy.candidates(TOPO, src, header(dst)) == [Direction.EAST]

    def test_y_after_x_aligned(self):
        xy = XYRouting()
        src = TOPO.node_at(Coordinate(4, 1))
        dst = TOPO.node_at(Coordinate(4, 5))
        assert xy.candidates(TOPO, src, header(dst)) == [Direction.NORTH]

    def test_ejection_at_destination(self):
        xy = XYRouting()
        assert xy.candidates(TOPO, 9, header(9)) == [Direction.LOCAL]

    def test_full_path_is_minimal_and_x_then_y(self):
        xy = XYRouting()
        src = TOPO.node_at(Coordinate(6, 2))
        dst = TOPO.node_at(Coordinate(1, 7))
        current, hops, seen_y = src, 0, False
        while current != dst:
            (d,) = xy.candidates(TOPO, current, header(dst))
            if d in (Direction.NORTH, Direction.SOUTH):
                seen_y = True
            else:
                assert not seen_y, "X movement after Y violates XY"
            current = TOPO.neighbor(current, d)
            hops += 1
        assert hops == TOPO.distance(src, dst)


class TestWestFirst:
    def test_west_destination_forces_west(self):
        wf = WestFirstRouting()
        src = TOPO.node_at(Coordinate(5, 5))
        dst = TOPO.node_at(Coordinate(1, 2))
        assert wf.candidates(TOPO, src, header(dst)) == [Direction.WEST]

    def test_non_west_is_adaptive(self):
        wf = WestFirstRouting()
        src = TOPO.node_at(Coordinate(1, 1))
        dst = TOPO.node_at(Coordinate(4, 4))
        assert set(wf.candidates(TOPO, src, header(dst))) == {
            Direction.EAST,
            Direction.NORTH,
        }

    def test_never_offers_turn_into_west_alongside_others(self):
        """West-first invariant: whenever WEST is needed it is the only
        candidate, so no turn into west can ever occur mid-route."""
        wf = WestFirstRouting()
        for src in TOPO.nodes():
            for dst in TOPO.nodes():
                if src == dst:
                    continue
                dirs = wf.candidates(TOPO, src, header(dst))
                if Direction.WEST in dirs:
                    assert dirs == [Direction.WEST]


class TestFullyAdaptive:
    def test_offers_all_minimal_directions(self):
        fa = FullyAdaptiveRouting()
        src = TOPO.node_at(Coordinate(2, 2))
        dst = TOPO.node_at(Coordinate(0, 0))
        assert set(fa.candidates(TOPO, src, header(dst))) == {
            Direction.WEST,
            Direction.SOUTH,
        }

    @given(
        src=st.integers(min_value=0, max_value=63),
        dst=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=100, deadline=None)
    def test_candidates_always_minimal(self, src, dst):
        fa = FullyAdaptiveRouting()
        flit = header(dst)
        dirs = fa.candidates(TOPO, src, flit)
        if src == dst:
            assert dirs == [Direction.LOCAL]
            return
        for d in dirs:
            nxt = TOPO.neighbor(src, d)
            assert TOPO.distance(nxt, dst) == TOPO.distance(src, dst) - 1


class TestSourceRouting:
    def test_follows_attached_route(self):
        sr = SourceRouting()
        flit = header(5, route=[Direction.EAST, Direction.NORTH])
        assert sr.candidates(TOPO, 0, flit) == [Direction.EAST]
        SourceRouting.consume_hop(flit)
        assert sr.candidates(TOPO, 1, flit) == [Direction.NORTH]
        SourceRouting.consume_hop(flit)
        assert sr.candidates(TOPO, 9, flit) == [Direction.LOCAL]


class TestFactory:
    @pytest.mark.parametrize(
        "algorithm,cls",
        [
            (RoutingAlgorithm.XY, XYRouting),
            (RoutingAlgorithm.WEST_FIRST, WestFirstRouting),
            (RoutingAlgorithm.FULLY_ADAPTIVE, FullyAdaptiveRouting),
            (RoutingAlgorithm.SOURCE, SourceRouting),
        ],
    )
    def test_factory(self, algorithm, cls):
        assert isinstance(resolve_routing_function(algorithm, TOPO), cls)


class TestXYLegality:
    """The Section 4.2 misroute detector must (a) never flag a correct XY
    path and (b) flag every possible single misroute."""

    def test_injection_always_legal(self):
        assert xy_arrival_is_legal(TOPO, 0, None, 63)
        assert xy_arrival_is_legal(TOPO, 0, Direction.LOCAL, 63)

    def test_arrival_at_destination_legal(self):
        assert xy_arrival_is_legal(TOPO, 5, Direction.WEST, 5)

    @given(
        src=st.integers(min_value=0, max_value=63),
        dst=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=120, deadline=None)
    def test_no_false_positives_on_correct_paths(self, src, dst):
        xy = XYRouting()
        current = src
        flit = header(dst)
        while current != dst:
            (d,) = xy.candidates(TOPO, current, flit)
            nxt = TOPO.neighbor(current, d)
            arrival_port = d.opposite  # the port the flit arrives on at nxt
            assert xy_arrival_is_legal(TOPO, nxt, arrival_port, dst)
            current = nxt

    @given(
        src=st.integers(min_value=0, max_value=63),
        dst=st.integers(min_value=0, max_value=63),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_misroute_is_caught(self, src, dst, data):
        """From any point on a correct XY path, any wrong (but physically
        connected, non-local) output direction produces an arrival the next
        router flags as illegal — so RT logic upsets cannot escape."""
        if src == dst:
            return
        xy = XYRouting()
        # Walk some prefix of the correct path.
        current = src
        flit = header(dst)
        prefix = data.draw(st.integers(min_value=0, max_value=TOPO.distance(src, dst) - 1))
        for _ in range(prefix):
            (d,) = xy.candidates(TOPO, current, flit)
            current = TOPO.neighbor(current, d)
        if current == dst:
            return
        (correct,) = xy.candidates(TOPO, current, flit)
        for wrong in TOPO.connected_directions(current):
            if wrong == correct:
                continue
            misrouted_to = TOPO.neighbor(current, wrong)
            arrival_port = wrong.opposite
            assert not xy_arrival_is_legal(TOPO, misrouted_to, arrival_port, dst), (
                f"misroute {current}->{misrouted_to} toward {dst} undetected"
            )
