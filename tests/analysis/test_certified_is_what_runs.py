"""What ``repro verify``/``repro lint`` certify is what ``Network`` runs.

The routing a hard-fault config installs, and the dead sets its schedule
folds into, are decided once (``routing_for_config``,
``PermanentFaultSchedule.dead_components``); the static analyses resolve
through the same two.  The property below draws a platform and a schedule
and requires the runtime routing function, once every death has struck, to
equal the static resolution; the cases under it are the divergences the
three hand-written copies of the rule had grown.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.linter import cdg_verdict_for
from repro.analysis.verify import (
    certified_pairs,
    static_routing_for,
    topology_of,
)
from repro.config import FaultConfig, NoCConfig, SimulationConfig
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
)
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
from repro.noc.network import Network
from repro.noc.routing import FaultAwareRouting
from repro.types import Direction, RoutingAlgorithm
from tests.test_config_canonical import platforms

#: Dead on arrival (negative and zero) and mid-run deaths.
CYCLES = st.integers(min_value=-3, max_value=25)


@st.composite
def hard_fault_configs(draw) -> SimulationConfig:
    """A small mesh/torus/3D platform on rerouting-capable routing, with
    link, router and VC deaths — whole VC sets of one link included, the
    case that must escalate to the link."""
    platform = draw(platforms())
    noc = platform.noc.replace(
        num_vcs=draw(st.integers(min_value=1, max_value=3)),
        routing=draw(
            st.sampled_from([RoutingAlgorithm.XY, RoutingAlgorithm.FT_TABLE])
        ),
    )
    topology = topology_of(platform)
    links = [
        (node, direction)
        for node in topology.nodes()
        for direction in topology.connected_directions(node)
    ]
    faults = []
    for node, direction in draw(
        st.lists(st.sampled_from(links), min_size=1, max_size=5, unique=True)
    ):
        damage = draw(st.sampled_from(["link", "router", "vcs"]))
        if damage == "vcs":
            for vc in draw(
                st.sets(st.integers(0, noc.num_vcs - 1), min_size=1)
            ):
                faults.append(
                    PermanentFault("vc", node, direction, vc, draw(CYCLES))
                )
        else:
            where = direction if damage == "link" else None
            faults.append(PermanentFault(damage, node, where, None, draw(CYCLES)))
    return SimulationConfig(
        noc=noc,
        faults=FaultConfig(permanent=PermanentFaultSchedule.of(*faults)),
    )


@settings(max_examples=40, deadline=None)
@given(hard_fault_configs())
def test_runtime_routing_equals_the_static_resolution(config):
    topology = topology_of(config)
    static_fn, expected = static_routing_for(config, topology)
    network = Network(config)
    last = max(fault.cycle for fault in config.faults.permanent)
    while network.cycle <= last:
        network.step()
    runtime_fn = network.routing_fn
    assert isinstance(runtime_fn, FaultAwareRouting)
    assert isinstance(static_fn, FaultAwareRouting)
    assert runtime_fn._alive_channels == static_fn._alive_channels
    assert runtime_fn._table == static_fn._table
    # The certificate and the NIs' undeliverable-destination filter agree
    # pair by pair, and every pair the degraded topology still joins in
    # both directions is among them.
    certified = certified_pairs(topology, static_fn)
    nodes = list(topology.nodes())
    assert certified == {
        (src, dst)
        for src in nodes
        for dst in nodes
        if src != dst and network.is_reachable(src, dst)
    }
    assert expected <= certified


def _config(num_vcs=3, **faults) -> SimulationConfig:
    return SimulationConfig(
        noc=NoCConfig(shape=(4, 4), num_vcs=num_vcs),
        faults=dataclasses.replace(FaultConfig.fault_free(), **faults),
    )


def test_wear_out_substitution_is_certified_not_plain_xy():
    """(a) An intermittent site plus wear-out runs fault-aware routing with
    no schedule at all; the static side used to test the schedule only."""
    config = _config(
        intermittent=IntermittentFaultSchedule.of(
            IntermittentFault(5, Direction.EAST, 0.4, 30.0, 200.0)
        ),
        wear_out=WearOutConfig(threshold=5.0),
    )
    static_fn, expected = static_routing_for(config, topology_of(config))
    assert isinstance(Network(config).routing_fn, FaultAwareRouting)
    assert isinstance(static_fn, FaultAwareRouting)
    assert expected is None  # nothing is scheduled to die
    verdict = cdg_verdict_for(config)
    assert verdict is not cdg_verdict_for(_config())  # plain XY's verdict
    assert verdict.deadlock_free


def test_every_vc_of_a_link_dead_is_the_link_dead():
    """(b) The runtime kills the link with its last VC; the certified
    tables used to keep it alive unless the platform had one VC."""
    dead = [PermanentFault("vc", 5, Direction.EAST, vc) for vc in range(3)]
    config = _config(permanent=PermanentFaultSchedule.of(*dead))
    network = Network(config)
    assert network._dead_links == {(5, Direction.EAST)}
    static_fn, _ = static_routing_for(config, topology_of(config))
    assert (5, Direction.EAST) not in static_fn._alive_channels
    assert network.routing_fn._table == static_fn._table
    survivors = PermanentFaultSchedule.of(*dead[:2])
    assert survivors.dead_components(3) == (set(), set())
    assert survivors.dead_components(2) == ({(5, Direction.EAST)}, set())


def test_dead_components_through_cycle():
    schedule = PermanentFaultSchedule.of(
        PermanentFault("link", 1, Direction.EAST, cycle=-2),
        PermanentFault("router", 7),
        PermanentFault("link", 2, Direction.WEST, cycle=1),
        PermanentFault("router", 9, cycle=40),
    )
    assert schedule.dead_components(3, through_cycle=0) == (
        {(1, Direction.EAST)},
        {7},
    )
    assert schedule.dead_components(3) == (
        {(1, Direction.EAST), (2, Direction.WEST)},
        {7, 9},
    )
