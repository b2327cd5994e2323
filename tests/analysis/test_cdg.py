"""Channel-dependency-graph verifier tests.

The load-bearing claims: XY and west-first are provably deadlock-free on a
mesh (the paper's DT and AD platforms), fully-adaptive and torus-XY are
flagged with a concrete witness, and every reported witness is a genuine
cycle of the graph it came from.
"""

import pytest

from repro.analysis.cdg import ChannelDependencyGraph, verify_deadlock_freedom
from repro.noc.routing import resolve_routing_function
from repro.noc.topology import MeshTopology, TorusTopology
from repro.types import RoutingAlgorithm


def _verdict(topology, algorithm, num_vcs=3):
    routing_fn = resolve_routing_function(algorithm, topology)
    return verify_deadlock_freedom(topology, routing_fn, num_vcs)


def _graph(topology, algorithm):
    routing_fn = resolve_routing_function(algorithm, topology)
    return ChannelDependencyGraph.build(topology, routing_fn)


class TestDeadlockFreeRoutings:
    def test_xy_on_paper_mesh_is_deadlock_free(self):
        verdict = _verdict(MeshTopology(shape=(8, 8)), RoutingAlgorithm.XY)
        assert verdict.deadlock_free
        assert verdict.witness == ()
        # Every inter-router channel of an 8x8 mesh is reachable under XY.
        assert verdict.num_channels == 2 * (2 * 7 * 8)

    def test_west_first_on_paper_mesh_is_deadlock_free(self):
        verdict = _verdict(MeshTopology(shape=(8, 8)), RoutingAlgorithm.WEST_FIRST)
        assert verdict.deadlock_free
        # West-first permits strictly more turns than XY, never fewer.
        xy = _verdict(MeshTopology(shape=(8, 8)), RoutingAlgorithm.XY)
        assert verdict.num_dependencies > xy.num_dependencies

    def test_xy_has_no_prohibited_turn_edges(self):
        # The defining property of XY: a packet travelling vertically never
        # turns back into a horizontal channel.
        graph = _graph(MeshTopology(shape=(4, 4)), RoutingAlgorithm.XY)
        from repro.types import Direction

        vertical = (Direction.NORTH, Direction.SOUTH)
        horizontal = (Direction.EAST, Direction.WEST)
        for channel in graph.channels:
            if channel.direction not in vertical:
                continue
            for dep in graph.dependencies_of(channel):
                assert dep.direction not in horizontal, (
                    f"XY CDG fabricated turn {channel} -> {dep}"
                )


class TestDeadlockProneRoutings:
    def test_fully_adaptive_on_mesh_is_flagged(self):
        verdict = _verdict(MeshTopology(shape=(8, 8)), RoutingAlgorithm.FULLY_ADAPTIVE)
        assert not verdict.deadlock_free
        assert len(verdict.witness) >= 2
        assert len(verdict.witness_text) == len(verdict.witness)

    def test_torus_xy_is_flagged_with_wraparound_witness(self):
        topology = TorusTopology(shape=(4, 4))
        verdict = _verdict(topology, RoutingAlgorithm.XY)
        assert not verdict.deadlock_free
        # The cycle lives in one dimension's wrap ring: all witness channels
        # share a direction.
        directions = {c.direction for c in verdict.witness}
        assert len(directions) == 1

    def test_witness_text_matches_channels(self):
        topology = TorusTopology(shape=(4, 4))
        verdict = _verdict(topology, RoutingAlgorithm.XY)
        assert verdict.witness_text == tuple(
            c.describe(topology) for c in verdict.witness
        )

    def test_three_ring_torus_xy_is_actually_deadlock_free(self):
        # On a 3-node wrap ring every shortest path is one hop, so packets
        # never chain two same-direction channels: no wrap cycle exists and
        # the reachability-aware CDG proves it (a naive all-turns CDG would
        # falsely flag this).
        verdict = _verdict(TorusTopology(shape=(3, 3)), RoutingAlgorithm.XY)
        assert verdict.deadlock_free


WITNESS_CASES = [
    (MeshTopology(shape=(2, 2)), RoutingAlgorithm.FULLY_ADAPTIVE),
    (MeshTopology(shape=(3, 3)), RoutingAlgorithm.FULLY_ADAPTIVE),
    (MeshTopology(shape=(4, 4)), RoutingAlgorithm.FULLY_ADAPTIVE),
    (MeshTopology(shape=(5, 3)), RoutingAlgorithm.FULLY_ADAPTIVE),
    (MeshTopology(shape=(8, 8)), RoutingAlgorithm.FULLY_ADAPTIVE),
    (TorusTopology(shape=(4, 4)), RoutingAlgorithm.XY),
    (TorusTopology(shape=(4, 3)), RoutingAlgorithm.XY),
    (TorusTopology(shape=(5, 4)), RoutingAlgorithm.XY),
    (TorusTopology(shape=(4, 4)), RoutingAlgorithm.FULLY_ADAPTIVE),
]


class TestWitnessSoundness:
    """Property: a reported witness is always a real cycle of its graph."""

    @pytest.mark.parametrize(
        "topology, algorithm",
        WITNESS_CASES,
        ids=lambda v: getattr(v, "value", None)
        or f"{type(v).__name__}{v.width}x{v.height}",
    )
    def test_witness_is_a_real_cycle(self, topology, algorithm):
        routing_fn = resolve_routing_function(algorithm, topology)
        graph = ChannelDependencyGraph.build(topology, routing_fn)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert graph.is_cycle(cycle)
        # Each hop of the witness is physically contiguous: the next channel
        # starts at the router the previous one ends in.
        for i, channel in enumerate(cycle):
            assert cycle[(i + 1) % len(cycle)].src == channel.dst

    @pytest.mark.parametrize("width,height", [(2, 2), (3, 4), (4, 4), (8, 8)])
    @pytest.mark.parametrize(
        "algorithm", [RoutingAlgorithm.XY, RoutingAlgorithm.WEST_FIRST]
    )
    def test_mesh_dt_ad_acyclic_across_sizes(self, width, height, algorithm):
        verdict = _verdict(MeshTopology(shape=(width, height)), algorithm)
        assert verdict.deadlock_free

    def test_is_cycle_rejects_non_cycles(self):
        graph = _graph(MeshTopology(shape=(4, 4)), RoutingAlgorithm.XY)
        channels = graph.channels
        assert not graph.is_cycle([])
        # A single channel is a cycle only if it depends on itself.
        assert not graph.is_cycle([channels[0]])


class TestConstruction:
    def test_source_routing_is_rejected(self):
        from repro.noc.routing import SourceRouting

        with pytest.raises(ValueError, match="source routing"):
            ChannelDependencyGraph.build(MeshTopology(shape=(4, 4)), SourceRouting())

    def test_num_vcs_does_not_change_the_graph(self):
        # The paper's VA grants any VC of the selected PC, so the CDG is
        # PC-granular: identical for every num_vcs.
        topology = MeshTopology(shape=(4, 4))
        one = _verdict(topology, RoutingAlgorithm.FULLY_ADAPTIVE, num_vcs=1)
        three = _verdict(topology, RoutingAlgorithm.FULLY_ADAPTIVE, num_vcs=3)
        assert one.num_channels == three.num_channels
        assert one.num_dependencies == three.num_dependencies
        assert one.deadlock_free == three.deadlock_free

    def test_verdict_to_dict_is_json_safe(self):
        import json

        verdict = _verdict(TorusTopology(shape=(4, 4)), RoutingAlgorithm.XY)
        data = json.loads(json.dumps(verdict.to_dict()))
        assert data["deadlock_free"] is False
        assert data["witness"]
