"""Burst-storm stress: intermittent bursts + wear-out on top of transients.

The CI resilience job runs this module on every push.  It drives a short
saturation-level run with the whole soft→hard lifecycle active at once —
several intermittent sites bursting hard, a wear-out policy escalating the
most-stressed of them into permanent deaths mid-run, background transient
upsets — with ``invariant_checks=True`` so the per-cycle sanitizer audits
every cycle on both loops.  The storm must terminate cleanly, replay
bit-identically on the polling and activity-driven loops, and survive a
checkpoint taken mid-burst with a bit-for-bit identical resume.
"""

import dataclasses

import pytest

from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
)
from repro.noc.simulator import Simulator, run_simulation
from repro.serialization import result_to_dict
from repro.types import Direction, FaultSite, RoutingAlgorithm
from tests.conftest import reference_loop

BURST_SITES = IntermittentFaultSchedule.of(
    IntermittentFault(1, Direction.EAST, 0.7, 60.0, 30.0),
    IntermittentFault(5, Direction.NORTH, 0.5, 40.0, 40.0),
    IntermittentFault(10, Direction.WEST, 0.6, 50.0, 20.0, start=100),
    IntermittentFault(14, Direction.SOUTH, 0.4, 30.0, 60.0),
)


def storm_config(**overrides) -> SimulationConfig:
    faults = FaultConfig(
        rates={
            FaultSite.LINK: 1e-3,
            FaultSite.ROUTING: 1e-4,
            FaultSite.VC_ALLOC: 1e-4,
        },
        seed=8,
        intermittent=BURST_SITES,
        wear_out=WearOutConfig(threshold=60.0, strike_weight=1.0),
    )
    config = SimulationConfig(
        noc=NoCConfig(shape=(4, 4), routing=RoutingAlgorithm.FT_TABLE),
        faults=faults,
        workload=WorkloadConfig(
            pattern="uniform",
            injection_rate=0.40,
            num_messages=1200,
            warmup_messages=200,
            max_cycles=60_000,
            seed=8,
        ),
        invariant_checks=True,
    )
    return config.replace(**overrides) if overrides else config


def _observables(result):
    out = result_to_dict(result)
    out.pop("config")
    return out


def test_burst_storm_survives_with_invariants(activity_driven):
    """Bursts + escalations + transients at saturation: clean termination
    (on both cycle loops: the ``activity_driven`` fixture)."""
    result = run_simulation(storm_config())
    assert not result.hit_cycle_limit
    assert result.packets_delivered + result.packets_lost >= 1200
    assert result.packets_delivered > result.packets_lost
    assert result.counter("intermittent_bursts_started") >= 4
    assert result.counter("intermittent_strikes") > 0
    # The storm is tuned so wear-out actually escalates: soft faults turn
    # into hard deaths with the full permanent-fault teardown behind them.
    escalations = result.counter("wear_out_escalations")
    assert escalations >= 1
    assert result.counter("permanent_faults_applied") == escalations
    assert result.counter("reroute_recomputations") >= escalations


def test_burst_storm_loops_bit_identical():
    """The storm replays identically on the fast and polling loops."""
    fast = run_simulation(storm_config())
    with reference_loop():
        full = run_simulation(storm_config())
    assert _observables(fast) == _observables(full)


def test_checkpoint_mid_burst_resumes_bit_for_bit(activity_driven, tmp_path):
    """Interrupting inside an open burst window loses nothing.

    The snapshot must carry every per-site stream, phase, next-toggle
    cycle and stress tally; the resumed run finishes identical to the
    uninterrupted one.
    """
    config = storm_config()
    golden = Simulator(config).run()
    assert not golden.hit_cycle_limit

    sim = Simulator(config)
    sim.run_to_cycle(300)
    # Mid-burst by construction: the sites are on ~60% of the time, so at
    # cycle 300 at least one window is open (seeded, hence stable).
    assert any(site.on for site in sim.network.lifecycle.sites)
    path = tmp_path / "burst.ckpt"
    save_checkpoint(sim, path)
    del sim

    resumed = load_checkpoint(path)
    assert resumed.resumed_from_cycle == 300
    assert _observables(resumed.run()) == _observables(golden)
