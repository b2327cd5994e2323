"""The static verdicts pinned by node ids and port names.

Every case of the matrix below — 2D meshes and tori, the 3D stacks, the
single-link-kill family of the fault-aware tables and the hand-built
``GraphTopology`` fixtures — records what the CDG pass and the traversal
pass decide, with no display text: channels are ``[src, dst, port]``,
pairs are ``[src, dst]``.  The fixture was generated before the two passes
were rebuilt on one routing walk, so it is the oracle that the rebuild
changed no verdict.

Regenerate (only when a verdict is meant to change) with::

    PYTHONPATH=src python -m tests.analysis.test_pinned_verdicts
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.cdg import ChannelDependencyGraph, verify_deadlock_freedom
from repro.analysis.verify import (
    both_alive_pairs,
    certified_pairs,
    certify_traversal,
    directed_channels,
)
from repro.noc.routing import FaultAwareRouting, resolve_routing_function
from repro.noc.topology import GraphTopology, MeshTopology, make_topology
from repro.types import Direction, RoutingAlgorithm
# Module imports, not names: a ``Test*`` class imported by name would be
# collected a second time here.
from tests.analysis import test_cdg_generic as generic
from tests.analysis import test_verify

FIXTURE = (
    pathlib.Path(__file__).resolve().parents[1]
    / "fixtures"
    / "analysis"
    / "verdicts_parent_5d84bd0.json"
)

ROUTINGS = ("xy", "west_first", "fully_adaptive", "ft_table")
PLATFORMS = (
    [(kind, shape) for kind in ("mesh", "torus")
     for shape in ((3, 3), (4, 4), (5, 3), (5, 5))]
    + [("mesh3d", (2, 2, 2)), ("mesh3d", (3, 3, 2)), ("torus3d", (3, 3, 3))]
)


class IntoTheSink:
    """Routes everything from 'a' into a node with no way out."""

    def candidates(self, topology, current, flit):
        if current == flit.dst:
            return [Direction.LOCAL]
        return ["out"] if current == "a" else []


def _port(port):
    return getattr(port, "name", None) or str(port)


def _channel(channel):
    return [channel.src, channel.dst, _port(channel.direction)]


def _verdicts(topology, routing_fn, expected_pairs=None):
    graph = ChannelDependencyGraph.build(topology, routing_fn)
    edges = sorted(
        json.dumps([_channel(a), _channel(b)])
        for a in graph.channels
        for b in graph.dependencies_of(a)
    )
    cdg = verify_deadlock_freedom(topology, routing_fn)
    traversal = certify_traversal(topology, routing_fn, expected_pairs)
    delivered = certified_pairs(topology, routing_fn)
    nodes = sorted(topology.nodes())
    return {
        "cdg": {
            "deadlock_free": cdg.deadlock_free,
            "num_channels": cdg.num_channels,
            "num_dependencies": cdg.num_dependencies,
            "edges_sha256": hashlib.sha256(
                "\n".join(edges).encode()
            ).hexdigest(),
            "witness": [_channel(c) for c in cdg.witness],
        },
        "traversal": {
            "connected": traversal.connected,
            "livelock_free": traversal.livelock_free,
            "delivered_pairs": traversal.delivered_pairs,
            "expected_pairs": traversal.expected_pairs,
            "total_pairs": traversal.total_pairs,
            "extra_pairs": traversal.extra_pairs,
            "max_route_length": traversal.max_route_length,
            "missing_samples": len(traversal.missing_pairs),
            "stuck_samples": len(traversal.stuck_states),
            "witness_length": len(traversal.livelock_witness),
            "uncertified_pairs": [
                [src, dst]
                for src in nodes
                for dst in nodes
                if src != dst and (src, dst) not in delivered
            ],
        },
    }


def _platform(kind, shape, name):
    topology = make_topology(kind, shape)
    routing_fn = resolve_routing_function(RoutingAlgorithm(name), topology)
    return topology, routing_fn, None


def _lifted_ft_table(dims):
    graph = generic.TestMeshEquivalence().lift(MeshTopology(shape=dims))
    return graph, FaultAwareRouting(graph), None


def cases():
    """``name -> (topology, routing function, expected pairs)``, built
    fresh on every call (the fault-aware tables are stateful)."""
    out = {}
    for kind, shape in PLATFORMS:
        for name in ROUTINGS:
            label = f"{kind}{'x'.join(map(str, shape))}_{name}"
            out[label] = lambda kind=kind, shape=shape, name=name: _platform(
                kind, shape, name
            )
    mesh = MeshTopology(shape=(4, 4))
    for src, port in directed_channels(mesh):
        out[f"mesh4x4_ft_table_kill_{src}_{port.name.lower()}"] = (
            lambda src=src, port=port: (
                mesh,
                FaultAwareRouting(mesh, dead_links=[(src, port)]),
                both_alive_pairs(mesh, [(src, port)]),
            )
        )
    out["ring4_clockwise"] = lambda: (
        generic.ring(4), generic.ClockwiseRouting(), None
    )
    for n in (3, 6):
        out[f"ring{n}_shortest"] = lambda n=n: (
            generic.ring(n), generic.ShortestRingRouting(n), None
        )
    irregular = generic.TestFaultAwareRoutingOnGenericGraphs().irregular

    def degraded():
        graph = irregular()
        routing_fn = FaultAwareRouting(graph)
        routing_fn.rebuild({("n2", "express"), ("e", "up")}, set())
        return graph, routing_fn, None

    out["irregular_ft_table"] = lambda: (
        irregular(), FaultAwareRouting(irregular()), None
    )
    out["irregular_ft_table_degraded"] = degraded
    for dims in ((3, 3), (4, 4), (5, 3)):
        label = f"lifted{'x'.join(map(str, dims))}_ft_table"
        out[label] = lambda dims=dims: _lifted_ft_table(dims)
    out["oscillator_livelock"] = lambda: (
        test_verify.TestNegativeTraversal().oscillator(),
        test_verify.LivelockRouting(),
        None,
    )
    out["sink_stuck"] = lambda: (
        GraphTopology({"a": {"out": "sink"}, "sink": {}}), IntoTheSink(), None
    )
    return out


def _pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(cases()))
def test_verdicts_match_the_pinned_ones(name):
    topology, routing_fn, expected = cases()[name]()
    actual = json.loads(json.dumps(_verdicts(topology, routing_fn, expected)))
    assert actual == _pinned()[name]


def test_the_fixture_covers_exactly_the_matrix():
    assert sorted(_pinned()) == sorted(cases())


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {name: _verdicts(*build()) for name, build in cases().items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
