"""Router pipeline behaviour tests: wormhole semantics, credits, timing.

These use tiny scripted networks (via the conftest helpers) so that every
assertion pins a specific architectural behaviour rather than an emergent
statistic.
"""

import pytest

from repro.types import Direction, RoutingAlgorithm, VCState
from tests.conftest import (
    build_network,
    inject_packet,
    run_until_delivered,
    small_noc,
)


class TestSinglePacketDelivery:
    def test_neighbor_delivery(self):
        net = build_network(small_noc(shape=(2, 1)))
        inject_packet(net, src=0, dst=1)
        cycles = run_until_delivered(net, 1)
        assert net.delivered == 1
        # 4 flits over: NI serialization + pipeline + link + ejection.
        assert cycles < 25

    def test_corner_to_corner(self):
        net = build_network()
        inject_packet(net, src=0, dst=15)
        run_until_delivered(net, 1)
        assert net.delivered == 1

    def test_self_addressed_packet(self):
        # dst == src still goes NI -> router -> NI via the LOCAL port.
        net = build_network(small_noc(shape=(2, 2)))
        inject_packet(net, src=0, dst=0)
        run_until_delivered(net, 1)
        assert net.delivered == 1

    def test_network_drains_completely(self):
        net = build_network()
        for i in range(8):
            inject_packet(net, src=i, dst=15 - i, packet_id=i)
        run_until_delivered(net, 8)
        net.run_cycles(10)
        assert net.in_flight_flits == 0


class TestPipelineDepthTiming:
    def _latency(self, stages: int) -> float:
        net = build_network(
            small_noc(shape=(4, 1), pipeline_stages=stages)
        )
        net.stats.start_measurement()
        inject_packet(net, src=0, dst=3)
        run_until_delivered(net, 1)
        return net.stats.latency.mean

    def test_deeper_pipelines_are_slower_per_hop(self):
        lat = {stages: self._latency(stages) for stages in (1, 2, 3, 4)}
        assert lat[2] <= lat[3] <= lat[4]
        assert lat[1] <= lat[2]
        # Three extra hops at one extra stage each => at least 3 cycles gap.
        assert lat[4] - lat[2] >= 3


class TestWormholeSemantics:
    def test_flits_of_packet_arrive_contiguously_per_vc(self):
        """Wormhole + VC allocation: flits of two packets may interleave on
        a physical link but never within one VC stream."""
        net = build_network(small_noc(shape=(2, 1)), backend="object")
        seen = []
        ni = net.interfaces[1]
        original = ni.reassembler.accept

        def spy(flit, num):
            seen.append((flit.packet_id, flit.seq))
            return original(flit, num)

        ni.reassembler.accept = spy  # type: ignore[assignment]
        for i in range(3):
            inject_packet(net, src=0, dst=1, packet_id=i)
        run_until_delivered(net, 3)
        assert seen
        per_packet = {}
        for pid, seq in seen:
            per_packet.setdefault(pid, []).append(seq)
        for pid, seqs in per_packet.items():
            assert seqs == sorted(seqs), f"packet {pid} flits out of order"

    def test_tail_releases_output_vc(self):
        net = build_network(small_noc(shape=(2, 1), num_vcs=1), backend="object")
        inject_packet(net, src=0, dst=1)
        run_until_delivered(net, 1)
        router = net.routers[0]
        for channels in router.outputs:
            for channel in channels:
                assert not channel.is_allocated

    def test_input_vcs_return_to_idle(self):
        net = build_network(small_noc(shape=(2, 1)), backend="object")
        inject_packet(net, src=0, dst=1)
        run_until_delivered(net, 1)
        net.run_cycles(5)
        for router in net.routers:
            for port_vcs in router.inputs:
                for ivc in port_vcs:
                    assert ivc.state is VCState.IDLE
                    assert ivc.buffer.is_empty


class TestCreditFlowControl:
    def test_buffers_never_overflow_under_load(self):
        """Credit flow control is what prevents VCBuffer.push from raising;
        saturating a small network exercises it hard."""
        net = build_network(
            small_noc(shape=(2, 2), vc_buffer_depth=2), backend="object"
        )
        pid = 0
        for cycle in range(300):
            if cycle % 2 == 0:
                for src in range(4):
                    inject_packet(net, src=src, dst=3 - src, packet_id=pid)
                    pid += 1
            net.step()  # OverflowError here means broken credit accounting

    def test_credits_restore_after_drain(self):
        net = build_network(small_noc(shape=(2, 1)), backend="object")
        inject_packet(net, src=0, dst=1)
        run_until_delivered(net, 1)
        net.run_cycles(5)
        router = net.routers[0]
        depth = net.config.noc.vc_buffer_depth
        for port in range(4):
            if router.out_links[port] is None:
                continue
            for channel in router.outputs[port]:
                assert channel.credits == depth


class TestRoutingAlgorithmsEndToEnd:
    @pytest.mark.parametrize(
        "algorithm",
        [RoutingAlgorithm.XY, RoutingAlgorithm.WEST_FIRST],
    )
    def test_all_pairs_small_mesh(self, algorithm):
        net = build_network(small_noc(shape=(3, 3), routing=algorithm))
        pid = 0
        for src in range(9):
            for dst in range(9):
                if src != dst:
                    inject_packet(net, src=src, dst=dst, packet_id=pid)
                    pid += 1
        run_until_delivered(net, pid, max_cycles=20000)
        assert net.delivered == pid

    def test_source_routed_path_is_followed(self):
        net = build_network(
            small_noc(shape=(3, 3), routing=RoutingAlgorithm.SOURCE)
        )
        # A deliberately non-minimal route: east, east, north, west.
        route = [Direction.EAST, Direction.EAST, Direction.NORTH, Direction.WEST]
        packet = inject_packet(net, src=0, dst=4, source_route=route)
        run_until_delivered(net, 1)
        assert net.delivered == 1

    def test_hops_match_minimal_distance_xy(self):
        net = build_network()
        net.stats.start_measurement()
        inject_packet(net, src=0, dst=15)  # distance 6 on a 4x4
        run_until_delivered(net, 1)
        # hops = router-to-router traversals = manhattan distance.
        assert net.stats.hops.mean == net.topology.distance(0, 15)
