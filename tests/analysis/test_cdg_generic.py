"""The CDG verifier over arbitrary node/port graphs (no mesh, no coords).

The generalization contract: the channel-dependency construction and the
deadlock verdicts must work from the :class:`PortGraph` surface alone —
nodes, ports, ``neighbor`` and ``arrival_port`` — so that irregular
topologies (rings with string ports, express links, trees) verify through
exactly the same code path as the 2-D mesh.  Equivalence with the mesh
implementation is pinned by lifting a real mesh into a
:class:`GraphTopology` and comparing verdicts channel-for-channel.
"""

import pytest

from repro.analysis.cdg import ChannelDependencyGraph, verify_deadlock_freedom
from repro.noc.flit import Flit
from repro.noc.routing import FaultAwareRouting
from repro.noc.topology import GraphTopology, MeshTopology, PortGraph
from repro.types import Direction, FlitType


def ring(n):
    """A bidirectional n-ring with string ports 'cw'/'ccw'."""
    return GraphTopology(
        {
            i: {"cw": (i + 1) % n, "ccw": (i - 1) % n}
            for i in range(n)
        }
    )


class ClockwiseRouting:
    """Always route clockwise — deliberately deadlock-prone on a ring."""

    def candidates(self, topology, current, flit):
        if current == flit.dst:
            return [Direction.LOCAL]
        return ["cw"]


class ShortestRingRouting:
    """Minimal ring routing: go whichever way is fewer hops (cw on ties).

    Still deadlock-prone (each direction's channels form a cycle); used to
    check the witness is a genuine cycle of the graph.
    """

    def __init__(self, n):
        self.n = n

    def candidates(self, topology, current, flit):
        if current == flit.dst:
            return [Direction.LOCAL]
        forward = (flit.dst - current) % self.n
        return ["cw"] if forward <= self.n - forward else ["ccw"]


def header(dst):
    return Flit(-1, 0, FlitType.HEAD, -1, dst)


class TestGraphTopologySurface:
    def test_satisfies_the_port_graph_protocol(self):
        assert isinstance(ring(4), PortGraph)
        assert isinstance(MeshTopology(shape=(2, 2)), PortGraph)

    def test_nodes_and_ports(self):
        g = ring(4)
        assert g.num_nodes == 4
        assert list(g.nodes()) == [0, 1, 2, 3]
        assert g.connected_directions(2) == ["ccw", "cw"]
        assert g.neighbor(3, "cw") == 0
        assert g.neighbor(3, "ccw") == 2
        assert g.neighbor(3, "missing") is None

    def test_arrival_port_inverts_neighbor(self):
        g = ring(5)
        for node in g.nodes():
            for port in g.connected_directions(node):
                neighbor = g.neighbor(node, port)
                back = g.arrival_port(node, port)
                assert g.neighbor(neighbor, back) == node

    def test_neighbor_only_nodes_are_added(self):
        g = GraphTopology({"a": {"out": "b"}})
        assert sorted(g.nodes()) == ["a", "b"]
        assert g.connected_directions("b") == []

    def test_one_way_channel_has_no_arrival_port(self):
        g = GraphTopology({"a": {"out": "b"}, "b": {}})
        assert g.arrival_port("a", "out") is None

    def test_distance_follows_directed_channels(self):
        g = GraphTopology({"a": {"out": "b"}, "b": {"out": "c"}, "c": {}})
        assert g.distance("a", "c") == 2
        assert g.distance("c", "a") == -1
        assert g.distance("b", "b") == 0


class TestGenericCdg:
    def test_clockwise_ring_is_flagged_with_ring_witness(self):
        g = ring(4)
        verdict = verify_deadlock_freedom(g, ClockwiseRouting())
        assert not verdict.deadlock_free
        # Only the 4 clockwise channels exist, and they form the cycle.
        assert verdict.num_channels == 4
        assert len(verdict.witness) == 4
        graph = ChannelDependencyGraph.build(g, ClockwiseRouting())
        assert graph.is_cycle(list(verdict.witness))

    def test_shortest_ring_routing_is_flagged_on_large_rings(self):
        g = ring(6)
        verdict = verify_deadlock_freedom(g, ShortestRingRouting(6))
        assert not verdict.deadlock_free
        graph = ChannelDependencyGraph.build(g, ShortestRingRouting(6))
        assert graph.is_cycle(list(verdict.witness))

    def test_triangle_ring_is_deadlock_free(self):
        # Every shortest path is a single hop: no packet ever chains two
        # channels, so the CDG has no edges at all (mirrors the 3-ring
        # torus exemption of NOC008).
        verdict = verify_deadlock_freedom(ring(3), ShortestRingRouting(3))
        assert verdict.deadlock_free
        assert verdict.num_dependencies == 0

    def test_witness_describes_generic_ports(self):
        verdict = verify_deadlock_freedom(ring(4), ClockwiseRouting())
        assert verdict.witness_text[0] == "0->1 via cw"


class TestFaultAwareRoutingOnGenericGraphs:
    """up*/down* table routing never needed a mesh — prove it."""

    def irregular(self):
        # A 6-node graph: a 4-ring with a stub and an express chord.
        # Node ids are strings throughout (ids must be mutually sortable).
        #
        #     s - n0 - n1
        #          |    |
        #         n3 - n2 - e   (e also linked straight to n0: the chord)
        adjacency = {
            "n0": {"ring+": "n1", "ring-": "n3", "stub": "s", "chord": "e"},
            "n1": {"ring+": "n2", "ring-": "n0"},
            "n2": {"ring+": "n3", "ring-": "n1", "express": "e"},
            "n3": {"ring+": "n0", "ring-": "n2"},
            "s": {"up": "n0"},
            "e": {"up": "n2", "chord": "n0"},
        }
        return GraphTopology(adjacency)

    def test_builds_and_is_deadlock_free(self):
        g = self.irregular()
        fn = FaultAwareRouting(g)
        verdict = verify_deadlock_freedom(g, fn)
        assert verdict.deadlock_free

    def test_tables_deliver_every_pair(self):
        g = self.irregular()
        fn = FaultAwareRouting(g)
        for src in g.nodes():
            for dst in g.nodes():
                if src != dst:
                    assert fn.is_reachable(src, dst), (src, dst)

    def test_walks_terminate_at_destination(self):
        g = self.irregular()
        fn = FaultAwareRouting(g)
        for src in g.nodes():
            for dst in g.nodes():
                if src == dst:
                    continue
                node, in_port = src, Direction.LOCAL
                for _ in range(4 * g.num_nodes):
                    dirs = fn.candidates_from(g, node, in_port, header(dst))
                    assert dirs, f"stranded at {node} en route {src}->{dst}"
                    if dirs[0] is Direction.LOCAL:
                        assert node == dst
                        break
                    in_port = g.arrival_port(node, dirs[0])
                    node = g.neighbor(node, dirs[0])
                else:
                    pytest.fail(f"walk {src}->{dst} did not terminate")

    def test_degraded_rebuild_on_generic_graph(self):
        g = self.irregular()
        fn = FaultAwareRouting(g)
        # Kill the express link both ways; everything stays connected via
        # the ring, so every pair must remain routable and deadlock-free.
        fn.rebuild({("n2", "express"), ("e", "up")}, set())
        for src in g.nodes():
            for dst in g.nodes():
                if src != dst:
                    assert fn.is_reachable(src, dst), (src, dst)
        assert verify_deadlock_freedom(g, fn).deadlock_free


class TestMeshEquivalence:
    """A mesh lifted into GraphTopology gets the identical verdict."""

    def lift(self, mesh):
        return GraphTopology(
            {
                node: {
                    direction: mesh.neighbor(node, direction)
                    for direction in mesh.connected_directions(node)
                }
                for node in mesh.nodes()
            }
        )

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4), (5, 3)])
    def test_fault_aware_verdicts_match(self, dims):
        mesh = MeshTopology(shape=dims)
        lifted = self.lift(mesh)
        native = verify_deadlock_freedom(mesh, FaultAwareRouting(mesh), 3)
        generic = verify_deadlock_freedom(lifted, FaultAwareRouting(lifted), 3)
        assert native.deadlock_free and generic.deadlock_free
        assert native.num_channels == generic.num_channels
        assert native.num_dependencies == generic.num_dependencies

    def test_channel_sets_match_channel_for_channel(self):
        mesh = MeshTopology(shape=(3, 3))
        lifted = self.lift(mesh)
        native = ChannelDependencyGraph.build(mesh, FaultAwareRouting(mesh))
        generic = ChannelDependencyGraph.build(lifted, FaultAwareRouting(lifted))
        as_tuples = lambda g: {(c.src, c.dst, c.direction) for c in g.channels}  # noqa: E731
        assert as_tuples(native) == as_tuples(generic)
