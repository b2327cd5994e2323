"""Figures 10 and 11: scripted deadlock scenarios broken by the recovery
scheme.

``run_deadlock_demo`` builds the canonical cyclic deadlock: four source-
routed packets on a 2x2 mesh with one virtual channel, each packet longer
than a VC buffer so each wormhole holds one channel of the cycle while its
head waits for the next.  Without recovery the configuration is a true
deadlock (nothing is ever delivered); with the probe-based detection and
retransmission-buffer recovery every packet is delivered.

``run_worst_case_demo`` reproduces the Figure 11 situation: partially
transferred packets block other packets already in the router buffers, so
recovery must *absorb* the partial packets; the Eq. 1 bound
(``B2 > M x N``) is what guarantees this absorption fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import NoCConfig, SimulationConfig
from repro.core.deadlock import buffer_lower_bound
from repro.experiments.common import Claim
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.types import Direction, RoutingAlgorithm

E, N, S, W = Direction.EAST, Direction.NORTH, Direction.SOUTH, Direction.WEST

#: The 2x2 cyclic configuration: (source node, route, destination node).
#: Node ids: (x, y) -> y*2 + x, so 0=(0,0), 1=(1,0), 2=(0,1), 3=(1,1).
CYCLE_SPECS: Tuple[Tuple[int, List[Direction], int], ...] = (
    (0, [E, N], 3),  # around the square clockwise...
    (1, [N, W], 2),
    (3, [W, S], 0),
    (2, [S, E], 1),
)


@dataclass
class DeadlockOutcome:
    recovery_enabled: bool
    delivered: int
    expected: int
    cycles_to_resolution: Optional[int]
    deadlocks_detected: int
    probes_sent: int
    recovery_forwards: int
    satisfies_eq1: bool

    @property
    def deadlock_broken(self) -> bool:
        return self.delivered == self.expected


def _build_network(
    recovery: bool,
    flits_per_packet: int,
    vc_buffer_depth: int,
    retx_depth: int = 3,
    threshold: int = 10,
) -> Network:
    noc = NoCConfig(
        shape=(2, 2),
        num_vcs=1,
        vc_buffer_depth=vc_buffer_depth,
        flits_per_packet=flits_per_packet,
        retx_buffer_depth=retx_depth,
        routing=RoutingAlgorithm.SOURCE,
        deadlock_recovery_enabled=recovery,
        deadlock_threshold=threshold,
    )
    return Network(SimulationConfig(noc=noc))


def run_deadlock_demo(
    recovery: bool = True,
    flits_per_packet: int = 6,
    vc_buffer_depth: int = 4,
    max_cycles: int = 3000,
) -> DeadlockOutcome:
    """The Figure 10 scenario: a 4-node cyclic wormhole deadlock."""
    net = _build_network(recovery, flits_per_packet, vc_buffer_depth)
    for pid, (src, route, dst) in enumerate(CYCLE_SPECS):
        packet = Packet(
            packet_id=pid,
            src=src,
            dst=dst,
            num_flits=flits_per_packet,
            injection_cycle=0,
            source_route=list(route),
        )
        net.interfaces[src].enqueue(packet)

    resolution = None
    for _ in range(max_cycles):
        net.step()
        if net.delivered == len(CYCLE_SPECS):
            resolution = net.cycle
            break
    net.finalize_stats()
    return DeadlockOutcome(
        recovery_enabled=recovery,
        delivered=net.delivered,
        expected=len(CYCLE_SPECS),
        cycles_to_resolution=resolution,
        deadlocks_detected=net.stats.counter("deadlocks_detected"),
        probes_sent=net.stats.counter("probes_sent"),
        recovery_forwards=net.stats.counter("recovery_forwards"),
        satisfies_eq1=buffer_lower_bound(
            flits_per_packet,
            [vc_buffer_depth] * len(CYCLE_SPECS),
            [3] * len(CYCLE_SPECS),
        ),
    )


def run_worst_case_demo(
    recovery: bool = True,
    max_cycles: int = 4000,
) -> DeadlockOutcome:
    """The Figure 11 situation: the deadlock forms while *more* packets are
    partially transferred behind it ("partially transferred messages prevent
    other messages from entering the transmission buffers").

    Recovery has to resolve the cycle while follower packets press into the
    same buffers — and must not admit them mid-recovery (the no-new-packets
    rule).  The Eq. 1 arithmetic of the paper's Figure 11 example
    (``T=6, R=3, M=4, n=4 -> B2 = 36 > 32``) is checked directly by the
    deadlock-theorem tests; this scenario checks the behavioural side.
    """
    flits_per_packet = 6
    vc_buffer_depth = 4
    net = _build_network(recovery, flits_per_packet, vc_buffer_depth)
    # Two packets per node around the cycle: the first four establish the
    # deadlock, the second four are the partially transferred followers.
    pid = 0
    for wave in range(2):
        for src, route, dst in CYCLE_SPECS:
            packet = Packet(
                packet_id=pid,
                src=src,
                dst=dst,
                num_flits=flits_per_packet,
                injection_cycle=0,
                source_route=list(route),
            )
            net.interfaces[src].enqueue(packet)
            pid += 1

    expected = pid
    resolution = None
    for _ in range(max_cycles):
        net.step()
        if net.delivered == expected:
            resolution = net.cycle
            break
    net.finalize_stats()
    return DeadlockOutcome(
        recovery_enabled=recovery,
        delivered=net.delivered,
        expected=expected,
        cycles_to_resolution=resolution,
        deadlocks_detected=net.stats.counter("deadlocks_detected"),
        probes_sent=net.stats.counter("probes_sent"),
        recovery_forwards=net.stats.counter("recovery_forwards"),
        satisfies_eq1=buffer_lower_bound(
            flits_per_packet,
            [vc_buffer_depth] * len(CYCLE_SPECS),
            [3] * len(CYCLE_SPECS),
        ),
    )


def run_deadlock_scenarios() -> Dict[str, DeadlockOutcome]:
    """Figures 10 and 11, each with recovery off (the deadlock is real) and
    on (the probe + retransmission-buffer scheme breaks it)."""
    return {
        "fig10_without": run_deadlock_demo(recovery=False, max_cycles=600),
        "fig10_with": run_deadlock_demo(recovery=True),
        "fig11_without": run_worst_case_demo(recovery=False, max_cycles=600),
        "fig11_with": run_worst_case_demo(recovery=True),
    }


def claims(outcomes: Dict[str, DeadlockOutcome]) -> List[Claim]:
    """Both configurations are true deadlocks; recovery delivers everything
    by the paper's mechanism — probes confirm the cycle, flits are absorbed
    into retransmission buffers, Eq. 1 holds."""
    rows = []
    for fig in ("fig10", "fig11"):
        stuck, freed = outcomes[f"{fig}_without"], outcomes[f"{fig}_with"]
        rows += [
            Claim(f"{fig}.delivered_without_recovery", stuck.delivered, "==", 0),
            Claim(f"{fig}.deadlock_broken", freed.deadlock_broken, "==", True),
            Claim(f"{fig}.probes_sent", freed.probes_sent, ">=", 1),
            Claim(f"{fig}.deadlocks_detected", freed.deadlocks_detected, ">=", 1),
            Claim(f"{fig}.flits_absorbed", freed.recovery_forwards, ">=", 1),
            Claim(f"{fig}.satisfies_eq1", freed.satisfies_eq1, "==", True),
        ]
    return rows


def main() -> None:
    outcomes = run_deadlock_scenarios()
    for fig, name in (
        ("fig10", "Figure 10 (cyclic deadlock)"),
        ("fig11", "Figure 11 (worst case: partial packets)"),
    ):
        print(name)
        without, with_rec = outcomes[f"{fig}_without"], outcomes[f"{fig}_with"]
        print(
            f"  without recovery: delivered {without.delivered}/{without.expected}"
            f" (deadlocked: {not without.deadlock_broken})"
        )
        print(
            f"  with recovery:    delivered {with_rec.delivered}/{with_rec.expected}"
            f" in {with_rec.cycles_to_resolution} cycles"
            f" ({with_rec.deadlocks_detected} detections,"
            f" {with_rec.probes_sent} probes,"
            f" {with_rec.recovery_forwards} flits absorbed;"
            f" Eq.1 satisfied: {with_rec.satisfies_eq1})"
        )
        print()


if __name__ == "__main__":
    main()
