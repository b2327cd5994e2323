"""Router edge cases: NACK corner paths, stale signals, NI details."""

import pytest

from repro.config import NoCConfig, SimulationConfig
from repro.noc.link import NackSignal
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.types import Corruption, Direction, LinkProtection, VCState
from tests.conftest import inject_packet, run_until_delivered


def build(**noc_overrides):
    defaults = dict(shape=(3, 1), num_vcs=1)
    defaults.update(noc_overrides)
    return Network(SimulationConfig(noc=NoCConfig(**defaults), backend="object"))


class TestNackEdgeCases:
    def test_stale_link_nack_is_ignored(self):
        """A NACK naming a sequence no longer in the replay window (cannot
        happen within protocol timing, but can via a glitched duplicate)
        must not corrupt channel state."""
        net = build()
        inject_packet(net, src=0, dst=2)
        run_until_delivered(net, 1)
        router = net.routers[0]
        link = router.out_links[int(Direction.EAST)]
        # Forge a NACK for an ancient sequence.
        link.send_nack(net.cycle, NackSignal(vc=0, seq=0, kind="link"))
        net.run_cycles(3)
        channel = router.outputs[int(Direction.EAST)][0]
        # Entries still in the window get replayed (harmlessly dropped
        # downstream by the sequence filter); nothing crashes or leaks.
        inject_packet(net, src=0, dst=2, packet_id=1)
        run_until_delivered(net, 2)

    def test_stale_route_nack_without_owner_is_ignored(self):
        net = build()
        inject_packet(net, src=0, dst=2)
        run_until_delivered(net, 1)
        net.run_cycles(5)
        router = net.routers[0]
        link = router.out_links[int(Direction.EAST)]
        link.send_nack(net.cycle, NackSignal(vc=0, seq=99, kind="route"))
        net.run_cycles(3)  # must not raise
        inject_packet(net, src=0, dst=2, packet_id=1)
        run_until_delivered(net, 2)

    def test_unknown_nack_kind_raises(self):
        net = build()
        router = net.routers[0]
        with pytest.raises(ValueError):
            router._handle_nack(0, int(Direction.EAST), NackSignal(0, 0, "bogus"))


class TestGiveUpPath:
    def test_max_nack_retries_accepts_corrupt(self):
        """A permanently corrupted stream (corrupt retransmission-buffer
        copy, no duplicate buffer) must terminate via the give-up escape,
        not loop forever."""
        net = build(max_nack_retries=3)

        def always_multi(cycle, node, direction=None):
            return Corruption.MULTI

        net.injector.link_upset = always_multi  # type: ignore[method-assign]
        inject_packet(net, src=0, dst=1, num_flits=2)
        for _ in range(300):
            net.step()
            if net.completed:
                break
        assert net.completed == 1
        assert net.stats.counter("retransmission_giveups") >= 1
        assert net.stats.counter("packets_delivered_corrupt") == 1


class TestE2EStaleSignals:
    def test_stale_retransmit_request_is_ignored(self):
        net = build(link_protection=LinkProtection.E2E)
        inject_packet(net, src=0, dst=2)
        run_until_delivered(net, 1)
        net.run_cycles(10)  # let the ACK release the copy
        ni = net.interfaces[0]
        assert 0 not in ni.e2e_copies
        ni.retransmit(0)  # stale request after release: no-op
        assert not ni.pending

    def test_release_unknown_packet_is_noop(self):
        net = build(link_protection=LinkProtection.E2E)
        net.interfaces[0].release(12345)


class TestNIWormholeInterleaving:
    def test_ni_serializes_one_flit_per_cycle(self):
        net = build(shape=(2, 1), num_vcs=3)
        for pid in range(3):
            inject_packet(net, src=0, dst=1, packet_id=pid)
        # 3 packets x 4 flits over one local link at 1 flit/cycle: at least
        # 12 cycles before the last ejects.
        cycles = run_until_delivered(net, 3)
        assert cycles >= 12

    def test_queued_packets_property(self):
        net = build(num_vcs=1)
        for pid in range(4):
            inject_packet(net, src=0, dst=2, packet_id=pid)
        net.step()
        assert net.interfaces[0].queued_packets >= 3


class TestMisrouteToLocal:
    def test_wrong_ejection_reforwarded(self):
        """An RT fault can eject a packet at the wrong node (misroute to
        the LOCAL port).  The NI detects the misdelivery behaviourally and
        forwards the packet onward."""
        net = build()
        state = {"armed": True}

        def rt_upset(cycle, node):
            if state["armed"] and node == 1:
                state["armed"] = False
                return True
            return False

        net.injector.routing_upset = rt_upset  # type: ignore[method-assign]
        # Force the misdirection to be the LOCAL port.
        net.injector.misdirect = lambda correct, allowed: Direction.LOCAL  # type: ignore[method-assign]
        inject_packet(net, src=0, dst=2)
        for _ in range(400):
            net.step()
            if net.completed:
                break
        assert net.delivered == 1
        assert net.stats.counter("packets_misrouted") == 1
        assert net.stats.counter("packets_reforwarded") == 1
