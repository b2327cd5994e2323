"""Shared test fixtures and scenario builders."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import pytest

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.types import Direction, RoutingAlgorithm


@contextmanager
def reference_loop(enabled: bool = True) -> Iterator[None]:
    """Inside the block every object-model :class:`Network` steps with
    ``Network._step_full`` (poll every component every cycle) instead of
    the activity-driven loop.

    The package has no switch for the reference loop — this rebinding is
    the one way to run it, and only tests use it (nothing under
    ``benchmarks/``, ``tools/`` or ``src/`` imports ``tests``).
    ``enabled=False`` leaves the default loop in place, so a
    ``[True, False]`` parametrisation can wrap both cases.
    """
    if not enabled:
        yield
        return
    active = Network._step_active
    Network._step_active = Network._step_full
    try:
        yield
    finally:
        Network._step_active = active


@pytest.fixture(params=[True, False])
def activity_driven(request) -> Iterator[bool]:
    """Run the test once per object-model cycle loop: the activity-driven
    one (``True``) and, via :func:`reference_loop`, the reference."""
    with reference_loop(not request.param):
        yield request.param


def small_noc(**overrides) -> NoCConfig:
    """A 4x4 mesh with the paper's router parameters (fast for tests)."""
    defaults = dict(shape=(4, 4))
    defaults.update(overrides)
    return NoCConfig(**defaults)


def build_network(
    noc: Optional[NoCConfig] = None,
    faults: Optional[FaultConfig] = None,
    **sim_overrides,
) -> Network:
    config = SimulationConfig(
        noc=noc or small_noc(),
        faults=faults or FaultConfig.fault_free(),
        **sim_overrides,
    )
    return Network(config)


def inject_packet(
    net: Network,
    src: int,
    dst: int,
    packet_id: int = 0,
    num_flits: Optional[int] = None,
    source_route: Optional[List[Direction]] = None,
    payload: int = 0,
) -> Packet:
    packet = Packet(
        packet_id=packet_id,
        src=src,
        dst=dst,
        num_flits=num_flits or net.config.noc.flits_per_packet,
        injection_cycle=net.cycle,
        source_route=source_route,
        payload=payload,
    )
    net.interfaces[src].enqueue(packet)
    return packet


def run_until_delivered(
    net: Network, expected: int, max_cycles: int = 5000
) -> int:
    """Step the network until ``expected`` packets completed; returns the
    cycle count.  Fails the test on timeout."""
    for _ in range(max_cycles):
        if net.completed >= expected:
            return net.cycle
        net.step()
    raise AssertionError(
        f"only {net.completed}/{expected} packets completed in {max_cycles} cycles "
        f"(delivered={net.delivered}, lost={net.lost}, "
        f"in_flight={net.in_flight_flits})"
    )


def quick_workload(**overrides) -> WorkloadConfig:
    defaults = dict(
        injection_rate=0.2,
        num_messages=300,
        warmup_messages=50,
        max_cycles=30_000,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


@pytest.fixture
def net4() -> Network:
    return build_network()


@pytest.fixture
def net2_source() -> Network:
    """2x2 single-VC source-routed network for scripted scenarios."""
    return build_network(
        small_noc(
            shape=(2, 2),
            num_vcs=1,
            routing=RoutingAlgorithm.SOURCE,
        )
    )
