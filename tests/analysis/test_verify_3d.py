"""Static certification of the 3D stack: dimension-ordered routing must
certify deadlock-free on a 3x3x3 mesh, and the fault-aware rebuild must
survive every possible single-link kill (TSVs included)."""

import pytest

from repro.analysis.cdg import Channel, verify_deadlock_freedom
from repro.analysis.verify import (
    STANDARD_TARGETS,
    certify_config,
    certify_fault_trial,
    certify_traversal,
    directed_channels,
    sweep_single_link_kills,
    topology_of,
)
from repro.config import NoCConfig, SimulationConfig
from repro.noc.routing import FaultAwareRouting, resolve_routing_function
from repro.noc.topology import MeshTopology, TorusTopology
from repro.types import Direction, RoutingAlgorithm


def _config3d(**noc_kw) -> SimulationConfig:
    noc_kw.setdefault("shape", (3, 3, 3))
    noc_kw.setdefault("topology", "mesh3d")
    noc_kw.setdefault("link_latency", (1, 1, 2))
    noc_kw.setdefault("retx_buffer_depth", 5)
    noc_kw.setdefault("routing", RoutingAlgorithm.XY)
    return SimulationConfig(noc=NoCConfig(**noc_kw))


class TestDOR3DCertification:
    def test_dor_certifies_on_3x3x3_mesh(self):
        entry = certify_config(_config3d(), name="mesh3x3x3")
        routing = entry["routing"]
        assert routing["certified"] is True
        assert routing["connected"] is True
        assert routing["livelock_free"] is True
        assert routing["deadlock_free"] is True
        # All 27*26 ordered pairs have a proven route.
        assert routing["delivered_pairs"] == 27 * 26

    def test_platform_block_is_shape_normalized(self):
        entry = certify_config(_config3d(), name="mesh3x3x3")
        platform = entry["platform"]
        assert platform["shape"] == [3, 3, 3]
        assert platform["link_latency"] == [1, 1, 2]
        assert "width" not in platform and "height" not in platform

    def test_2d_platform_block_uses_the_same_keys(self):
        config = SimulationConfig(noc=NoCConfig(shape=(5, 5)))
        platform = certify_config(config, name="mesh5x5")["platform"]
        assert platform["shape"] == [5, 5] and platform["link_latency"] == 1
        assert "width" not in platform and "height" not in platform


class TestExhaustiveSingleLinkKills3D:
    def test_every_single_link_kill_stays_certified(self):
        """The fault-aware rebuild must keep every surviving pair
        connected, livelock-free and deadlock-free for each of the 108
        possible single-link kills of the 3x3x3 mesh."""
        topology = topology_of(_config3d())
        verdict = sweep_single_link_kills(topology)
        assert verdict.trials == 108  # 72 planar + 36 vertical channels
        assert verdict.certified is True
        assert verdict.all_connected is True
        assert verdict.all_deadlock_free is True
        assert verdict.min_delivered_fraction == 1.0

    def test_tsv_kill_reroutes_through_other_pillars(self):
        topology = topology_of(_config3d())
        vertical = [
            chan
            for chan in directed_channels(topology)
            if chan[1] in (Direction.UP, Direction.DOWN)
        ]
        assert len(vertical) == 36  # 9 pillars x 2 edges x 2 directions
        cert = certify_fault_trial(topology, [vertical[0]])
        assert cert.certified is True
        assert cert.connected is True


class TestStandardTargetPin:
    def test_3d_target_is_pinned_in_the_certificate(self):
        names = [t["name"] for t in STANDARD_TARGETS]
        assert "mesh3x3x3_dor" in names
        target = next(t for t in STANDARD_TARGETS if t["name"] == "mesh3x3x3_dor")
        assert target["expect"]["certified"] is True
        assert target["expect"]["single_link_kills_certified"] is True


class TestThreeDimensionalText:
    """Witnesses and missing pairs name a 3D node by every axis."""

    def test_a_tsv_channel_names_both_layers(self):
        mesh = MeshTopology(shape=(2, 2, 2))
        text = Channel(0, 4, Direction.UP).describe(mesh)
        assert text == "(0,0,0)->(0,0,1) via UP"

    def test_cdg_witness_names_the_layer(self):
        torus = TorusTopology(shape=(3, 3, 3))
        routing_fn = resolve_routing_function(
            RoutingAlgorithm.FULLY_ADAPTIVE, torus
        )
        verdict = verify_deadlock_freedom(torus, routing_fn)
        assert not verdict.deadlock_free
        for text in verdict.witness_text:
            assert text.count(",") == 4, text  # (x,y,z)->(x,y,z)

    def test_missing_pairs_name_the_layer(self):
        mesh = MeshTopology(shape=(2, 2, 2))
        routing_fn = FaultAwareRouting(mesh)
        routing_fn.rebuild(set(), {7})
        verdict = certify_traversal(mesh, routing_fn)
        assert not verdict.connected
        assert verdict.missing_pairs[0] == "(0,0,0)->(1,1,1)"
