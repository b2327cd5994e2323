"""Delivery invariants under randomized fault schedules.

The protection suite's contract, stated as invariants and fuzzed over
seeds and fault mixes with hypothesis:

* **exactly-once**: every delivered packet is delivered exactly once;
* **completeness**: a delivered packet contains all its flits, in order;
* **integrity** (HBH): no delivered flit carries residual corruption;
* **conservation**: injected = delivered + lost + still-in-flight/queued.
"""

from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.types import Corruption, FaultSite


class RecordingNetwork(Network):
    """A network whose NIs record every completed delivery."""

    def __init__(self, config):
        super().__init__(config)
        self.deliveries: List[List] = []
        from repro.core.schemes import DeliveryAction, destination_policy

        for ni in self.interfaces:
            original = ni._handle_packet

            def spying_handler(cycle, flits, _orig=original, _node=ni.node):
                decision = destination_policy(
                    self.config.noc.link_protection, _node, flits
                )
                if decision.action in (
                    DeliveryAction.DELIVER,
                    DeliveryAction.DELIVER_CORRUPT,
                ):
                    self.deliveries.append(list(flits))
                return _orig(cycle, flits)

            ni._handle_packet = spying_handler  # type: ignore[method-assign]


def run_with_faults(seed: int, link_rate: float, rt_rate: float, sa_rate: float):
    config = SimulationConfig(
        noc=NoCConfig(shape=(4, 4)),
        faults=FaultConfig(
            rates={
                FaultSite.LINK: link_rate,
                FaultSite.ROUTING: rt_rate,
                FaultSite.SW_ALLOC: sa_rate,
            },
            link_multi_bit_fraction=0.6,
            seed=seed,
        ),
        workload=WorkloadConfig(injection_rate=0.2, num_messages=10**9),
    )
    net = RecordingNetwork(config)
    import random

    rng = random.Random(seed)
    injected: Dict[int, int] = {}
    pid = 0
    for cycle in range(260):
        if cycle < 160 and cycle % 2 == 0:
            src = rng.randrange(16)
            dst = rng.randrange(15)
            dst = dst if dst < src else dst + 1
            net.interfaces[src].enqueue(
                Packet(pid, src=src, dst=dst, num_flits=4, injection_cycle=cycle)
            )
            injected[pid] = dst
            pid += 1
        net.step()
    # Drain window.
    for _ in range(600):
        if net.delivered + net.lost >= pid:
            break
        net.step()
    return net, injected


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    link_rate=st.sampled_from([0.0, 0.01, 0.05]),
    rt_rate=st.sampled_from([0.0, 0.01]),
    sa_rate=st.sampled_from([0.0, 0.005]),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_delivery_invariants_under_fault_storms(seed, link_rate, rt_rate, sa_rate):
    net, injected = run_with_faults(seed, link_rate, rt_rate, sa_rate)

    delivered_ids = [flits[0].packet_id for flits in net.deliveries]
    # Exactly-once.
    assert len(delivered_ids) == len(set(delivered_ids)), "duplicate delivery"
    # Completeness + in-order + integrity.
    for flits in net.deliveries:
        assert [f.seq for f in flits] == [0, 1, 2, 3]
        assert len({f.packet_id for f in flits}) == 1
        assert all(
            f.corruption is Corruption.NONE for f in flits
        ), "HBH delivered residual corruption"
    # Every delivery went to the packet's destination (RT faults corrected).
    for flits in net.deliveries:
        head = flits[0]
        assert head.true_dst == injected[head.packet_id]
    # Conservation.
    assert net.delivered == len(net.deliveries)
    assert net.delivered + net.lost <= len(injected)


def test_zero_faults_delivers_everything():
    net, injected = run_with_faults(seed=1, link_rate=0.0, rt_rate=0.0, sa_rate=0.0)
    assert net.delivered == len(injected)
    assert net.lost == 0
