"""Property-based fuzz smoke for checkpoint/resume.

Seeded, bounded generation of *valid* configurations (each must pass the
``repro lint`` ERROR rules — the generator constructs within the NOC0xx
envelope deliberately), then for every one: a 200-cycle run with the
per-cycle invariant sanitizer on, interrupted at the midpoint via a real
checkpoint file, resumed, and required to finish bit-for-bit equal to the
uninterrupted run.  Catches state the snapshot forgets to carry — a new
field added to a router, a fresh RNG draw, an unpickled cache — across a
far wider config cross-product than the hand-written scenarios.
"""

import random

import pytest

from repro.analysis.linter import lint_config
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
)
from repro.experiments.degradation import mesh_links
from repro.noc.simulator import Simulator
from repro.serialization import result_to_dict
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm

RUN_CYCLES = 200
SEEDS = range(8)


def _random_config(rng: random.Random) -> SimulationConfig:
    """One bounded-random, lint-clean configuration."""
    width = rng.randint(2, 4)
    height = rng.randint(2, 4)
    routing = rng.choice(
        [
            RoutingAlgorithm.XY,
            RoutingAlgorithm.WEST_FIRST,
            RoutingAlgorithm.FULLY_ADAPTIVE,
        ]
    )
    # Fully-adaptive has cyclic channel dependencies (NOC004): it is only
    # valid with deadlock recovery; the others get it at random (NOC005
    # is a warning, not an error).
    deadlock_recovery = routing is RoutingAlgorithm.FULLY_ADAPTIVE
    flits = rng.randint(2, 4)
    vc_depth = rng.randint(flits, flits + 2)  # NOC007 wants a whole packet
    # Generous retransmission depth keeps NOC001's Eq. 1 bound satisfied
    # whenever recovery is on (and NOC002's round-trip floor always).
    retx_depth = vc_depth + flits if deadlock_recovery else rng.randint(3, 5)
    sites = rng.sample(sorted(FaultSite, key=lambda s: s.value), k=rng.randint(0, 3))
    rates = {site: rng.choice([0.001, 0.005, 0.01]) for site in sites}
    noc = NoCConfig(
        shape=(width, height),
        num_vcs=rng.randint(2, 3),
        vc_buffer_depth=vc_depth,
        flits_per_packet=flits,
        retx_buffer_depth=retx_depth,
        pipeline_stages=rng.choice([1, 2, 3, 4]),
        routing=routing,
        link_protection=rng.choice(list(LinkProtection)),
        deadlock_recovery_enabled=deadlock_recovery,
        deadlock_threshold=rng.randint(16, 48),
    )
    patterns = ["uniform", "bit_complement"]
    if width == height:
        patterns.append("transpose")  # transpose needs a square mesh
    workload = WorkloadConfig(
        pattern=rng.choice(patterns),
        injection_rate=rng.choice([0.05, 0.1, 0.2]),
        num_messages=10_000_000,  # the 200-cycle bound below is the limit
        warmup_messages=rng.randint(0, 10),
        max_cycles=RUN_CYCLES,
        seed=rng.randint(0, 2**31),
    )
    # Sometimes add an intermittent/wear-out lifecycle over a couple of
    # connected links (the per-site RNG streams and burst windows are part
    # of what the checkpoint must carry).
    intermittent = IntermittentFaultSchedule.empty()
    wear_out = None
    if rng.random() < 0.5:
        sites = rng.sample(mesh_links((width, height)), k=rng.randint(1, 2))
        intermittent = IntermittentFaultSchedule.of(
            *(
                IntermittentFault(
                    node,
                    direction,
                    rate=rng.choice([0.1, 0.3, 0.45]),
                    mean_on=rng.choice([8.0, 20.0]),
                    mean_off=rng.choice([30.0, 80.0]),
                    start=rng.choice([0, 40]),
                )
                for node, direction in sites
            )
        )
        if rng.random() < 0.5:
            # Low thresholds so escalation can land inside the 200-cycle
            # window; traversal weight makes stress grow with traffic.
            wear_out = WearOutConfig(
                threshold=rng.choice([5.0, 30.0]),
                strike_weight=1.0,
                traversal_weight=rng.choice([0.0, 0.1]),
            )
    return SimulationConfig(
        noc=noc,
        faults=FaultConfig(
            rates=rates,
            seed=rng.randint(0, 2**31),
            intermittent=intermittent,
            wear_out=wear_out,
        ),
        workload=workload,
        invariant_checks=True,
    )


def _observables(result):
    out = result_to_dict(result)
    out.pop("config")
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_random_config_lint_run_checkpoint_resume(seed, tmp_path):
    rng = random.Random(seed)
    config = _random_config(rng)

    report = lint_config(config, source=f"fuzz-seed-{seed}")
    assert not report.errors, [d.format() for d in report.errors]

    golden = Simulator(config).run()
    assert golden.cycles == RUN_CYCLES  # bounded for CI

    sim = Simulator(config)
    # The sanitizer keeps every generated config on the object loop.
    assert sim.network.kernel is None
    sim.run_to_cycle(RUN_CYCLES // 2)
    path = tmp_path / "fuzz.ckpt"
    save_checkpoint(sim, path)
    del sim
    resumed = load_checkpoint(path)
    assert resumed.resumed_from_cycle == RUN_CYCLES // 2
    assert _observables(resumed.run()) == _observables(golden)
