"""The one routing walk both static passes read.

:func:`~repro.analysis.cdg.routing_walk` is the only place the analyses ask
a routing function for candidates, so the CDG pass and the traversal pass
decide its edge cases alike: a malformed candidate makes its state a
misroute in both, and port-aware routing over a one-way channel raises in
both.
"""

import pytest

from repro.analysis.cdg import (
    Channel,
    ChannelDependencyGraph,
    routing_walk,
    verify_deadlock_freedom,
)
from repro.analysis.verify import certified_pairs, certify_traversal
from repro.noc.topology import GraphTopology
from repro.types import Direction
from tests.analysis.test_cdg_generic import ClockwiseRouting, ring


class ClockwiseIntoNowhere(ClockwiseRouting):
    """Clockwise, but node 2 also offers a port it does not have."""

    def candidates(self, topology, current, flit):
        ports = super().candidates(topology, current, flit)
        if current == 2 and flit.dst != 2:
            return ports + ["nowhere"]
        return ports


class OneWayTables:
    """A port-aware function that always takes the 'out' port."""

    port_aware = True

    def candidates_from(self, topology, current, in_port, flit):
        return [Direction.LOCAL] if current == flit.dst else ["out"]


class TestOneRoutingWalk:
    def test_walk_states_and_moves(self):
        walk = routing_walk(ring(4), ClockwiseRouting(), 0)
        assert walk.injection == {n: (n, None) for n in (1, 2, 3)}
        assert walk.moves[(3, None)] == [("cw", (0, None))]
        assert walk.moves[(0, None)] == []  # delivered
        assert sorted(walk.moves) == [(n, None) for n in range(4)]

    def test_a_malformed_candidate_misroutes_in_both_passes(self):
        g, fn = ring(4), ClockwiseIntoNowhere()
        assert routing_walk(g, fn, 0).moves[(2, None)] is None
        graph = ChannelDependencyGraph.build(g, fn)
        # The channel into node 2 is held, but nothing is requested after
        # it: the clockwise cycle is cut there.
        assert graph.dependencies_of(Channel(1, 2, "cw")) == set()
        assert verify_deadlock_freedom(g, fn).deadlock_free
        verdict = certify_traversal(g, fn)
        assert not verdict.connected and verdict.stuck_states
        delivered = certified_pairs(g, fn)
        assert (1, 2) in delivered and (1, 3) not in delivered

    def test_port_aware_routing_over_a_one_way_channel_raises_in_both(self):
        g = GraphTopology({"a": {"out": "b"}, "b": {"out": "c"}, "c": {}})
        with pytest.raises(ValueError, match="one-way"):
            ChannelDependencyGraph.build(g, OneWayTables())
        with pytest.raises(ValueError, match="one-way"):
            certify_traversal(g, OneWayTables())

    def test_a_one_way_channel_into_the_destination_is_allowed(self):
        g = GraphTopology({"a": {"out": "b"}})
        walk = routing_walk(g, OneWayTables(), "b")
        assert walk.moves[("a", Direction.LOCAL)] == [("out", ("b", None))]
