"""Fault-storm stress: permanent + transient faults under saturation.

The CI job of the same name runs this module on every push.  It drives a
short saturation-level run with every fault layer enabled at once —
permanent link/router/VC deaths landing mid-run on top of aggressive
transient upset rates — with ``invariant_checks=True``, so the per-cycle
sanitizer (flit conservation, allocation bijectivity, VC state legality)
audits every cycle of the storm.  The run must terminate (no wedged
wormholes, no hung drain) and every injected packet must reach a final
outcome.  Logic faults, permanent deaths and the sanitizer all sit outside
the kernel's domain; the config asks for ``backend="object"`` anyway, so
the storm runs on the object loop by construction.
"""

import dataclasses

import pytest

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
from repro.noc.simulator import Simulator, run_simulation
from repro.types import Direction, FaultSite, RoutingAlgorithm

STORM_SCHEDULE = PermanentFaultSchedule.of(
    PermanentFault("link", 5, Direction.EAST),  # dead on arrival
    PermanentFault("link", 9, Direction.NORTH, cycle=150),
    PermanentFault("vc", 6, Direction.SOUTH, vc=1, cycle=250),
    PermanentFault("router", 12, cycle=400),
)


def storm_config(**overrides) -> SimulationConfig:
    faults = FaultConfig(
        rates={
            FaultSite.LINK: 1e-3,
            FaultSite.ROUTING: 1e-4,
            FaultSite.VC_ALLOC: 1e-4,
            FaultSite.SW_ALLOC: 1e-4,
        },
        seed=5,
    )
    config = SimulationConfig(
        noc=NoCConfig(shape=(4, 4), routing=RoutingAlgorithm.XY),
        faults=dataclasses.replace(faults, permanent=STORM_SCHEDULE),
        workload=WorkloadConfig(
            pattern="uniform",
            injection_rate=0.45,  # past the ~0.4 saturation knee
            num_messages=1400,  # long enough to reach the cycle-400 death
            warmup_messages=200,
            max_cycles=60_000,
            seed=5,
        ),
        invariant_checks=True,
        backend="object",
    )
    return config.replace(**overrides) if overrides else config


def test_fault_storm_survives_with_invariants():
    """Saturation + transients + permanent deaths: clean termination."""
    result = run_simulation(storm_config())
    assert not result.hit_cycle_limit
    assert result.packets_delivered + result.packets_lost >= 1400
    assert result.packets_delivered > result.packets_lost
    assert result.counter("permanent_faults_applied") == len(STORM_SCHEDULE)
    assert result.counter("reroute_recomputations") >= 1


def test_activity_bookkeeping_survives_permanent_teardown():
    """Every teardown path — the dead-on-arrival link, then the link, VC
    and router deaths mid-run — leaves each router's occupancy index and
    pending-output flag covering its work, checked after every cycle."""
    sim = Simulator(storm_config())
    net = sim.network
    assert net.kernel is None
    while net.cycle < 600 and sim.should_continue():
        sim.advance()
        for router in net.routers:
            assert router.activity_index_problems() == [], router.node
            # ... and no stale entry survives a cycle
            assert router._occ == [
                index for index, ivc in enumerate(router._ivcs) if len(ivc.buffer)
            ]
    assert net.cycle == 600
    assert net.stats.counter("permanent_faults_applied") == len(STORM_SCHEDULE)
