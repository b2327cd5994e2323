"""Tests for links, delay lines and reverse channels."""

import pytest

from repro.noc.flit import Flit
from repro.noc.link import (
    DelayLine,
    HandshakeChannel,
    Link,
    NackSignal,
    ProbeSignal,
)
from repro.types import Corruption, Direction, FlitType


def make_flit(seq=0):
    return Flit(packet_id=0, seq=seq, ftype=FlitType.HEAD, src=0, dst=1)


class TestDelayLine:
    def test_single_cycle_latency(self):
        line = DelayLine(1)
        line.push(10, "x")
        assert line.pop_due(10) == []
        assert line.pop_due(11) == ["x"]
        assert line.pop_due(12) == []

    def test_multi_cycle_latency(self):
        line = DelayLine(3)
        line.push(0, "a")
        assert line.pop_due(2) == []
        assert line.pop_due(3) == ["a"]

    def test_ordering_preserved(self):
        line = DelayLine(1)
        line.push(0, "a")
        line.push(0, "b")
        assert line.pop_due(1) == ["a", "b"]

    def test_late_pop_gets_everything_due(self):
        line = DelayLine(1)
        line.push(0, "a")
        line.push(1, "b")
        assert line.pop_due(5) == ["a", "b"]

    def test_peek_pending(self):
        line = DelayLine(1)
        line.push(0, "a")
        assert line.peek_pending() == ["a"]
        assert len(line) == 1

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            DelayLine(0)


class TestLink:
    def test_flit_transfer_carries_metadata(self):
        link = Link(0, Direction.EAST, 1, Direction.WEST)
        flit = make_flit()
        link.send_flit(0, vc=2, seq=7, flit=flit, corruption=Corruption.SINGLE)
        assert flit.link_seq == 7
        (transfer,) = link.flits.pop_due(1)
        assert transfer.vc == 2 and transfer.seq == 7
        assert transfer.corruption is Corruption.SINGLE
        assert link.flit_traversals == 1

    def test_reverse_channels(self):
        link = Link(0, Direction.EAST, 1, Direction.WEST)
        link.send_credit(0, vc=1)
        link.send_nack(0, NackSignal(vc=1, seq=3, kind="link"))
        assert link.credits.pop_due(0) == []
        (credit,) = link.credits.pop_due(1)
        assert credit.vc == 1
        (nack,) = link.nacks.pop_due(1)
        assert nack.seq == 3 and nack.kind == "link"

    def test_probe_channel(self):
        link = Link(0, Direction.EAST, 1, Direction.WEST)
        link.send_probe(0, ProbeSignal(origin=5, target_vc=2))
        (probe,) = link.control.pop_due(1)
        assert probe.origin == 5 and probe.target_vc == 2 and probe.kind == "probe"

    def test_is_idle(self):
        link = Link(0, Direction.EAST, 1, Direction.WEST)
        assert link.is_idle
        link.send_credit(0, 0)
        assert not link.is_idle
        link.credits.pop_due(1)
        assert link.is_idle


class TestHandshakeChannel:
    def test_clean_sample_passes(self):
        hs = HandshakeChannel(tmr_enabled=True)
        assert hs.sample(glitch=False)
        assert hs.glitches_masked == 0

    def test_tmr_masks_glitch(self):
        hs = HandshakeChannel(tmr_enabled=True)
        assert hs.sample(glitch=True)
        assert hs.glitches_masked == 1
        assert hs.signals_lost == 0

    def test_without_tmr_signal_lost(self):
        hs = HandshakeChannel(tmr_enabled=False)
        assert not hs.sample(glitch=True)
        assert hs.signals_lost == 1
