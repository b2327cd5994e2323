"""Torus extension tests: wrap links, wrap-aware routing, recovery pairing."""

import pytest

from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.network import Network
from repro.noc.routing import TorusXYRouting
from repro.noc.simulator import run_simulation
from repro.noc.topology import TorusTopology
from repro.noc.flit import Flit
from repro.types import Direction, FlitType


def torus_config(**overrides):
    defaults = dict(
        shape=(4, 4),
        topology="torus",
        deadlock_recovery_enabled=True,
        deadlock_threshold=24,
    )
    defaults.update(overrides)
    return NoCConfig(**defaults)


class TestConfigValidation:
    def test_rejects_small_torus(self):
        with pytest.raises(ValueError):
            NoCConfig(shape=(2, 4), topology="torus")

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            NoCConfig(topology="hypercube")


class TestWiring:
    def test_every_port_wired(self):
        net = Network(SimulationConfig(noc=torus_config()))
        for router in net.routers:
            for port in range(4):
                assert router.out_links[port] is not None
                assert router.in_links[port] is not None

    def test_link_count(self):
        net = Network(SimulationConfig(noc=torus_config()))
        mesh_links = [l for l in net.links if not l.is_local]
        # 4x4 torus: 16 nodes x 4 outgoing inter-router links.
        assert len(mesh_links) == 64


class TestTorusXYRouting:
    def test_prefers_wrap_when_shorter(self):
        topo = TorusTopology(8, 8)
        routing = TorusXYRouting()
        flit = Flit(0, 0, FlitType.HEAD, src=0, dst=7)  # x: 0 -> 7
        assert routing.candidates(topo, 0, flit) == [Direction.WEST]

    def test_x_before_y(self):
        topo = TorusTopology(8, 8)
        routing = TorusXYRouting()
        dst = topo.node_at_coords = 7 + 8 * 7  # (7, 7)
        flit = Flit(0, 0, FlitType.HEAD, src=0, dst=dst)
        (d,) = routing.candidates(topo, 0, flit)
        assert d in (Direction.EAST, Direction.WEST)

    def test_ejects_at_destination(self):
        topo = TorusTopology(4, 4)
        routing = TorusXYRouting()
        flit = Flit(0, 0, FlitType.HEAD, src=0, dst=5)
        assert routing.candidates(topo, 5, flit) == [Direction.LOCAL]


class TestEndToEnd:
    def test_uniform_traffic_delivers(self):
        result = run_simulation(
            SimulationConfig(
                noc=torus_config(),
                workload=WorkloadConfig(
                    injection_rate=0.2,
                    num_messages=300,
                    warmup_messages=50,
                    max_cycles=40_000,
                ),
            )
        )
        assert result.packets_delivered >= 300
        assert result.packets_lost == 0

    def test_torus_shortens_paths_vs_mesh(self):
        workload = WorkloadConfig(
            injection_rate=0.15,
            num_messages=300,
            warmup_messages=50,
            max_cycles=40_000,
        )
        torus = run_simulation(
            SimulationConfig(noc=torus_config(), workload=workload)
        )
        mesh = run_simulation(
            SimulationConfig(noc=NoCConfig(shape=(4, 4)), workload=workload)
        )
        assert torus.avg_hops < mesh.avg_hops

    def test_hops_match_torus_minimal_distance(self):
        from tests.conftest import inject_packet, run_until_delivered

        net = Network(SimulationConfig(noc=torus_config()))
        net.stats.start_measurement()
        inject_packet(net, src=0, dst=15)  # (3,3): distance 2 on a 4x4 torus
        run_until_delivered(net, 1)
        assert net.stats.hops.mean == net.topology.distance(0, 15) == 2
