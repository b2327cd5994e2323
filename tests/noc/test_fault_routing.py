"""Static properties of the fault-aware up*/down* table routing.

Three layers of guarantee, each checked against independent ground truth:

* **Healthy mesh** — every pair routable on a minimal (Manhattan) path,
  so fault-free latency matches XY.
* **Degraded reachability** — after killing links/routers, every pair
  still connected in the *both-alive* undirected graph must be routable,
  and greedy table-following must actually terminate at the destination
  (compared against a plain BFS of the surviving graph).
* **Deadlock freedom** — the channel-dependency graph of the rebuilt
  tables (port-aware traversal) is acyclic for every degraded topology
  tried, exhaustively for single-link kills.
"""

import random
from collections import deque

import pytest

from repro.analysis.cdg import verify_deadlock_freedom
from repro.noc.flit import Flit
from repro.noc.routing import FaultAwareRouting
from repro.noc.topology import MeshTopology
from repro.types import Direction, FlitType


def header(src: int, dst: int) -> Flit:
    return Flit(-1, 0, FlitType.HEAD, src, dst)


def all_links(topology: MeshTopology):
    return [
        (node, direction)
        for node in topology.nodes()
        for direction in topology.connected_directions(node)
        if direction is not Direction.LOCAL
    ]


def walk(fn: FaultAwareRouting, topology: MeshTopology, src: int, dst: int):
    """Follow the tables hop by hop; return the hop count or None."""
    node, in_port = src, Direction.LOCAL
    for hops in range(4 * topology.num_nodes):
        dirs = fn.candidates_from(topology, node, in_port, header(src, dst))
        if not dirs:
            return None
        direction = dirs[0]
        if direction is Direction.LOCAL:
            assert node == dst
            return hops
        node = topology.neighbor(node, direction)
        assert node is not None, "tables steered into a missing link"
        in_port = direction.opposite
    pytest.fail(f"walk {src}->{dst} did not terminate")


def both_alive_components(topology, dead_links, dead_routers):
    """Pair-connectivity ground truth: BFS over bidirectionally-live edges."""
    component = {}
    for root in topology.nodes():
        if root in component or root in dead_routers:
            continue
        component[root] = root
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for direction in topology.connected_directions(node):
                if direction is Direction.LOCAL:
                    continue
                neighbor = topology.neighbor(node, direction)
                if (
                    neighbor is None
                    or neighbor in dead_routers
                    or neighbor in component
                    or (node, direction) in dead_links
                    or (neighbor, direction.opposite) in dead_links
                ):
                    continue
                component[neighbor] = root
                queue.append(neighbor)
    return component


class TestHealthyMesh:
    def test_all_pairs_minimal(self):
        topology = MeshTopology(shape=(8, 8))
        fn = FaultAwareRouting(topology)
        for src in topology.nodes():
            for dst in topology.nodes():
                if src == dst:
                    continue
                a = topology.coordinates_of(src)
                b = topology.coordinates_of(dst)
                manhattan = abs(a.x - b.x) + abs(a.y - b.y)
                assert walk(fn, topology, src, dst) == manhattan

    def test_reachable_fraction_is_one(self):
        fn = FaultAwareRouting(MeshTopology(shape=(4, 4)))
        assert fn.reachable_fraction() == 1.0

    def test_healthy_cdg_is_acyclic(self):
        topology = MeshTopology(shape=(8, 8))
        verdict = verify_deadlock_freedom(
            topology, FaultAwareRouting(topology), num_vcs=3
        )
        assert verdict.deadlock_free


class TestSingleLinkKills:
    """Acceptance: any single dead link, 100% of pairs still routable."""

    @pytest.mark.parametrize("width,height", [(5, 5), (8, 8)])
    def test_every_pair_survives_every_single_kill(self, width, height):
        topology = MeshTopology(shape=(width, height))
        fn = FaultAwareRouting(topology)
        for dead in all_links(topology):
            fn.rebuild({dead}, set())
            # reachable_fraction counts every ordered pair, so 1.0 means
            # each of them has a routing-table entry.
            assert fn.reachable_fraction() == 1.0

    def test_exhaustive_cdg_and_walks_small_mesh(self):
        topology = MeshTopology(shape=(5, 5))
        fn = FaultAwareRouting(topology)
        for dead in all_links(topology):
            fn.rebuild({dead}, set())
            verdict = verify_deadlock_freedom(topology, fn, num_vcs=3)
            assert verdict.deadlock_free, f"cycle after killing {dead}"
            for src in topology.nodes():
                for dst in topology.nodes():
                    if src != dst:
                        assert walk(fn, topology, src, dst) is not None

    def test_detour_stays_short(self):
        topology = MeshTopology(shape=(8, 8))
        fn = FaultAwareRouting(topology)
        rng = random.Random(2)
        for dead in rng.sample(all_links(topology), 12):
            fn.rebuild({dead}, set())
            for src in topology.nodes():
                for dst in topology.nodes():
                    if src == dst:
                        continue
                    a = topology.coordinates_of(src)
                    b = topology.coordinates_of(dst)
                    manhattan = abs(a.x - b.x) + abs(a.y - b.y)
                    hops = walk(fn, topology, src, dst)
                    assert hops is not None and hops <= manhattan + 4


class TestMultiKill:
    def test_both_alive_connected_pairs_stay_routable(self):
        topology = MeshTopology(shape=(6, 6))
        fn = FaultAwareRouting(topology)
        links = all_links(topology)
        rng = random.Random(7)
        for _ in range(25):
            dead_links = set(rng.sample(links, rng.randint(2, 12)))
            dead_routers = set(rng.sample(range(36), rng.randint(0, 2)))
            fn.rebuild(dead_links, dead_routers)
            verdict = verify_deadlock_freedom(topology, fn, num_vcs=3)
            assert verdict.deadlock_free
            component = both_alive_components(topology, dead_links, dead_routers)
            for src in topology.nodes():
                for dst in topology.nodes():
                    if src == dst:
                        continue
                    connected = (
                        src in component
                        and dst in component
                        and component[src] == component[dst]
                    )
                    if connected:
                        assert fn.is_reachable(src, dst)
                        assert walk(fn, topology, src, dst) is not None
                    elif fn.is_reachable(src, dst):
                        # Half-alive channels may route beyond the
                        # bidirectional core; if the tables claim a route,
                        # it must really arrive.
                        assert walk(fn, topology, src, dst) is not None

    def test_dead_router_is_unreachable(self):
        topology = MeshTopology(shape=(4, 4))
        fn = FaultAwareRouting(topology, dead_routers={5})
        for node in topology.nodes():
            if node != 5:
                assert not fn.is_reachable(node, 5)
                assert not fn.is_reachable(5, node)
        assert fn.reachable_fraction() < 1.0

    def test_version_bumps_on_rebuild(self):
        fn = FaultAwareRouting(MeshTopology(shape=(3, 3)))
        before = fn.version
        fn.rebuild({(0, Direction.EAST)}, set())
        assert fn.version == before + 1
