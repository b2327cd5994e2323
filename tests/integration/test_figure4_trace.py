"""Cycle-exact test of the Figure 4 HBH retransmission flow.

A single deterministic multi-bit upset hits the header flit on its link
traversal.  The paper's Figure 4 narrative, checked point by point:

* the corrupted flit is dropped at the receiver and NACKed;
* in-flight successor flits are dropped and replayed *in order* from the
  barrel-shift retransmission buffer (no in-situ re-arrangement);
* the end-to-end "latency penalty of two clock cycles" (Section 3.1);
* the delivered packet is byte-identical to the clean run (headers not
  contaminated).

Timing note (also in EXPERIMENTS.md): our receiver checks ECC
combinationally in the arrival cycle, so the NACK turnaround is one cycle
tighter than the paper's 3-cycle budget and only one in-flight successor
needs dropping; the stated 2-cycle penalty and the 3-deep buffer bound are
unchanged.
"""

from repro.config import NoCConfig, SimulationConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.types import Corruption


def run_trace(corrupt_nth_traversal=None):
    net = Network(SimulationConfig(noc=NoCConfig(shape=(2, 1), num_vcs=1)))
    if corrupt_nth_traversal is not None:
        counter = {"n": 0}

        def link_upset(cycle, node, direction=None):
            counter["n"] += 1
            if counter["n"] == corrupt_nth_traversal:
                return Corruption.MULTI
            return None

        net.injector.link_upset = link_upset  # type: ignore[method-assign]
    net.interfaces[0].enqueue(Packet(0, src=0, dst=1, num_flits=4, injection_cycle=0))
    net.stats.start_measurement()
    for _ in range(200):
        net.step()
        if net.delivered == 1:
            break
    return net


class TestFigure4Trace:
    def test_clean_baseline(self):
        net = run_trace()
        assert net.delivered == 1
        assert net.stats.counter("retransmission_rounds") == 0

    def test_header_error_recovered_with_two_cycle_penalty(self):
        clean = run_trace()
        faulty = run_trace(corrupt_nth_traversal=1)
        assert faulty.delivered == 1
        assert faulty.stats.counter("retransmission_rounds") == 1
        assert faulty.stats.counter("link_errors_corrected") == 1
        # The corrupted header plus the one in-flight successor are dropped
        # and replayed in order.
        assert faulty.stats.counter("flits_dropped") == 2
        assert faulty.stats.counter("flits_retransmitted") == 2
        # Section 3.1: "a latency penalty of two clock cycles".
        assert faulty.stats.latency.mean - clean.stats.latency.mean == 2.0

    def test_body_flit_error_cheaper_than_header(self):
        # A body-flit replay overlaps the header's downstream pipeline
        # latency, so it costs just the one masked transmission slot —
        # within the paper's two-cycle worst case.
        clean = run_trace()
        faulty = run_trace(corrupt_nth_traversal=3)  # third flit (D3)
        assert faulty.delivered == 1
        assert faulty.stats.counter("retransmission_rounds") == 1
        assert faulty.stats.latency.mean - clean.stats.latency.mean == 1.0

    def test_tail_flit_error(self):
        clean = run_trace()
        faulty = run_trace(corrupt_nth_traversal=4)
        assert faulty.delivered == 1
        # Nothing in flight behind the tail: only the tail is replayed.
        assert faulty.stats.counter("flits_retransmitted") == 1
        assert faulty.stats.latency.mean - clean.stats.latency.mean == 1.0

    def test_delivered_packet_is_clean(self):
        faulty = run_trace(corrupt_nth_traversal=1)
        assert faulty.stats.counter("packets_delivered_corrupt") == 0
        assert faulty.lost == 0

    def test_back_to_back_errors_each_recovered(self):
        net = run_trace(corrupt_nth_traversal=None)
        # Corrupt the first transmission *and* its replay: the replay is
        # protected by the same machinery (the clean copy stays buffered).
        net2 = Network(SimulationConfig(noc=NoCConfig(shape=(2, 1), num_vcs=1)))
        counter = {"n": 0}

        def link_upset(cycle, node, direction=None):
            counter["n"] += 1
            return Corruption.MULTI if counter["n"] in (1, 3) else None

        net2.injector.link_upset = link_upset  # type: ignore[method-assign]
        net2.interfaces[0].enqueue(Packet(0, 0, 1, 4, 0))
        net2.stats.start_measurement()
        for _ in range(200):
            net2.step()
            if net2.delivered == 1:
                break
        assert net2.delivered == 1
        assert net2.stats.counter("retransmission_rounds") == 2
        assert net2.stats.counter("packets_delivered_corrupt") == 0
