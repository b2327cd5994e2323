#!/usr/bin/env python3
"""Trace a packet's journey through the network — with a retransmission.

Injects one 4-flit packet across a 2x4 mesh, corrupts its header once on a
link, and prints the flit's full journey as recorded by the non-invasive
:class:`repro.noc.trace.PacketTracer`: buffer-by-buffer, link-by-link,
including the retransmission (the header crosses the faulted link twice).

Run:  python examples/trace_packet.py
"""

from repro.config import NoCConfig, SimulationConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.trace import PacketTracer
from repro.types import Corruption


def main() -> None:
    # The tracer watches router objects: ask for the object model.
    net = Network(
        SimulationConfig(noc=NoCConfig(shape=(4, 2), num_vcs=1), backend="object")
    )

    # Deterministically corrupt the 3rd inter-router flit traversal (the
    # header's second hop).
    counter = {"n": 0}

    def link_upset(cycle, node, direction=None):
        counter["n"] += 1
        return Corruption.MULTI if counter["n"] == 3 else None

    net.injector.link_upset = link_upset  # type: ignore[method-assign]

    net.interfaces[0].enqueue(Packet(0, src=0, dst=7, num_flits=4, injection_cycle=0))
    tracer = PacketTracer(net, watch=[0])
    done = tracer.run_until_delivered(1, max_cycles=200)
    print(f"packet 0 delivered at cycle {done} "
          f"(route (0,0) -> (3,1), {net.stats.counter('retransmission_rounds')} "
          f"retransmission round(s))")
    print()

    trace = tracer.trace(0)
    print("header flit (seq 0) journey:")
    last = None
    for sighting in trace.journey(0):
        if sighting.location != last:
            print(f"  {sighting}")
            last = sighting.location

    print()
    # The corrupted flit crossed its faulted link twice: find it.
    crossings = {seq: trace.link_crossings(seq) for seq in range(4)}
    victim = max(crossings, key=crossings.get)
    print(f"link crossings per flit: {crossings}")
    print(
        f"flit {victim} crossed {crossings[victim]} links for a 4-hop path — "
        f"the extra crossing is its retransmission:"
    )
    last = None
    for sighting in trace.journey(victim):
        if sighting.location != last:
            print(f"  {sighting}")
            last = sighting.location


if __name__ == "__main__":
    main()
