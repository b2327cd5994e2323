"""Tests for the non-invasive packet tracer."""

from repro.config import NoCConfig, SimulationConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.trace import PacketTracer
from repro.types import Corruption


def build(shape=(3, 1), **noc):
    return Network(SimulationConfig(noc=NoCConfig(shape=shape, **noc)))


class TestTracer:
    def test_tracks_full_journey(self):
        net = build()
        net.interfaces[0].enqueue(Packet(0, src=0, dst=2, num_flits=4, injection_cycle=0))
        tracer = PacketTracer(net, watch=[0])
        assert tracer.run_until_delivered(1, max_cycles=100) is not None
        trace = tracer.trace(0)
        assert trace.sightings, "must have observed the packet"
        locations = trace.locations_visited()
        assert any("router 0" in loc for loc in locations)
        assert any("router 1" in loc for loc in locations)
        assert any("link" in loc for loc in locations)

    def test_unwatched_packets_not_recorded(self):
        net = build()
        net.interfaces[0].enqueue(Packet(0, src=0, dst=2, num_flits=4, injection_cycle=0))
        net.interfaces[1].enqueue(Packet(1, src=1, dst=2, num_flits=4, injection_cycle=0))
        tracer = PacketTracer(net, watch=[1])
        tracer.run_until_delivered(2, max_cycles=200)
        assert all(s.packet_id == 1 for s in tracer.trace(1).sightings)

    def test_link_crossings_match_hops_fault_free(self):
        net = build(shape=(4, 1))
        net.interfaces[0].enqueue(Packet(0, src=0, dst=3, num_flits=2, injection_cycle=0))
        tracer = PacketTracer(net, watch=[0])
        tracer.run_until_delivered(1, max_cycles=100)
        # 3 inter-router hops on a 1x4 row.
        assert tracer.trace(0).link_crossings(0) == 3

    def test_retransmission_shows_extra_crossing(self):
        net = build(shape=(4, 1), num_vcs=1)
        hits = {"n": 0}

        def upset(cycle, node, direction=None):
            hits["n"] += 1
            return Corruption.MULTI if hits["n"] == 1 else None

        net.injector.link_upset = upset  # type: ignore[method-assign]
        net.interfaces[0].enqueue(Packet(0, src=0, dst=3, num_flits=2, injection_cycle=0))
        tracer = PacketTracer(net, watch=[0])
        tracer.run_until_delivered(1, max_cycles=100)
        assert tracer.trace(0).link_crossings(0) == 4  # 3 hops + 1 replay

    def test_observes_source_queue(self):
        net = build(num_vcs=1)
        for pid in range(6):
            net.interfaces[0].enqueue(
                Packet(pid, src=0, dst=2, num_flits=4, injection_cycle=0)
            )
        tracer = PacketTracer(net, watch=[5])
        tracer.step_and_observe()
        locations = tracer.trace(5).locations_visited()
        assert any("source queue" in loc for loc in locations)

    def test_timeout_returns_none(self):
        net = build()
        tracer = PacketTracer(net, watch=[0])
        assert tracer.run_until_delivered(1, max_cycles=5) is None
