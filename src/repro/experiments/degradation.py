"""Graceful-degradation campaign: progressive random link kills.

The experiment behind ``repro degrade``: on a mesh running fault-aware
table routing (:class:`repro.noc.routing.FaultAwareRouting`), kill an
increasing number of randomly chosen unidirectional links and measure how
service degrades:

* **delivery rate** — packets delivered / packets injected (the NI refuses
  packets whose destination became unreachable; those count against the
  rate);
* **reachable-pair fraction** — the fraction of (src, dst) pairs the
  reconfigured routing tables can still serve;
* **latency inflation** — mean delivered-packet latency relative to the
  healthy (0-kill) network, capturing the detour cost of rerouting;
* **time to reconvergence** — at each level the *last* link dies mid-run;
  this is how many cycles it takes the network to finish every packet that
  was already in flight or queued when the topology changed (lower is
  better; the healthy level reports 0).

Each level ``k`` kills the first ``k`` links of one seed-shuffled ordering,
so level ``k`` is always level ``k-1`` plus one more dead link — a
progressive decay of a single unlucky chip rather than independent random
topologies per level.

:func:`run_burst_degradation` is the intermittent/wear-out companion
(``repro degrade --burst``): instead of clean kills it sweeps burst
*intensity* (the on-window strike probability) against wear *rate* (the
escalation threshold — lower thresholds wear out faster) over a fixed set
of seeded burst sites, reporting delivery, latency inflation and how many
sites escalated into hard deaths (docs/FAULTS.md).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import (
    FaultConfig,
    LatencySpec,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
    min_retx_depth,
    parse_link_latency,
    parse_shape,
)
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
)
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
from repro.noc.routing import FaultAwareRouting
from repro.noc.simulator import Simulator
from repro.noc.topology import MeshTopology
from repro.types import Coordinate, Direction, RoutingAlgorithm


@dataclass(frozen=True)
class DegradationPoint:
    """Measured service level with ``kills`` dead links."""

    kills: int
    packets_injected: int
    packets_delivered: int
    packets_lost: int
    delivery_rate: float
    reachable_fraction: float
    avg_latency: float
    latency_inflation: float
    reconvergence_cycles: int
    hit_cycle_limit: bool


def mesh_links(shape: Sequence[int]) -> List[Tuple[int, Direction]]:
    """Every unidirectional inter-router link of a mesh (any dimension)."""
    topology = MeshTopology(shape=tuple(shape))
    return [
        (node, direction)
        for node in topology.nodes()
        for direction in topology.connected_directions(node)
        if direction is not Direction.LOCAL
    ]


def pillar_groups(shape: Sequence[int]) -> List[List[Tuple[int, Direction]]]:
    """The vertical (TSV) links of a 3D mesh, grouped by pillar.

    One group per ``(x, y)`` column, containing every UP and DOWN link at
    any layer of that column — killing a whole group models a full TSV
    pillar failure, the characteristic 3D-integration fault unit."""
    topology = MeshTopology(shape=tuple(shape))
    if topology.ndim != 3:
        raise ValueError("pillar kills need a 3-axis shape")
    w, h, d = topology.shape
    groups: List[List[Tuple[int, Direction]]] = []
    for y in range(h):
        for x in range(w):
            group = [
                (node, direction)
                for z in range(d)
                for node in (topology.node_at(Coordinate(x, y, z)),)
                for direction in (Direction.UP, Direction.DOWN)
                if direction in topology.connected_directions(node)
            ]
            groups.append(group)
    return groups


def _schedule_for_level(
    kill_order: List[List[Tuple[int, Direction]]], kills: int, late_cycle: int
) -> PermanentFaultSchedule:
    """Levels kill a prefix of ``kill_order``; the last death is mid-run.

    Each entry is a *group* of links that die together (a single link in
    the classic campaign, a whole TSV pillar under ``kill_pillars``)."""
    faults = [
        PermanentFault("link", node, direction)
        for group in kill_order[: max(kills - 1, 0)]
        for node, direction in group
    ]
    if kills:
        faults.extend(
            PermanentFault("link", node, direction, cycle=late_cycle)
            for node, direction in kill_order[kills - 1]
        )
    return PermanentFaultSchedule.of(*faults)


def _run_level(
    config: SimulationConfig,
    inject_cycles: int,
    late_cycle: Optional[int],
    drain_cycles: int,
) -> Tuple[Simulator, int, bool]:
    """Drive one level: inject, then drain every outstanding packet.

    Returns the simulator (for stats and the reconfigured routing
    function), the reconvergence time, and whether the drain timed out.
    """
    sim = Simulator(config)
    network = sim.network
    network.stats.start_measurement()
    injected_at_kill: Optional[int] = None
    reconverged_at: Optional[int] = None
    deadline = inject_cycles + drain_cycles
    hit_limit = False
    while True:
        cycle = network.cycle
        if cycle == late_cycle:
            injected_at_kill = network.stats.packets_injected
        if cycle < inject_cycles:
            sim._generate_traffic(cycle)
        elif network.completed >= network.stats.packets_injected:
            break
        elif cycle >= deadline:
            hit_limit = True
            break
        network.step()
        if sim.sanitizer is not None:
            sim.sanitizer.check()
        if (
            reconverged_at is None
            and injected_at_kill is not None
            and network.completed >= injected_at_kill
        ):
            # Everything that predated the mid-run kill has now reached a
            # final outcome: the disruption is fully absorbed.
            reconverged_at = network.cycle
    if late_cycle is None or injected_at_kill is None or reconverged_at is None:
        reconvergence = drain_cycles if (hit_limit and late_cycle is not None) else 0
    else:
        reconvergence = max(reconverged_at - late_cycle, 0)
    return sim, reconvergence, hit_limit


def _level_workload(
    injection_rate: float, inject_cycles: int, drain_cycles: int, seed: int
) -> WorkloadConfig:
    """The workload of one level; :func:`_run_level` drives the cycles
    itself, so the message counts are placeholders."""
    return WorkloadConfig(
        injection_rate=injection_rate,
        num_messages=1,
        max_cycles=inject_cycles + drain_cycles,
        warmup_messages=0,
        seed=seed,
    )


def _service_level(
    sim: Simulator, hit_limit: bool, points: Sequence[Any]
) -> Dict[str, Any]:
    """The fields both point types share, read off a finished level.

    Latency inflation is relative to ``points[0]`` — the healthy level
    every sweep runs first — or to this level itself when it is that one.
    """
    network = sim.network
    injected = network.stats.packets_injected
    avg_latency = network.stats.latency.mean
    healthy_latency = points[0].avg_latency if points else avg_latency
    return {
        "packets_injected": injected,
        "packets_delivered": network.delivered,
        "packets_lost": network.lost,
        "delivery_rate": (network.delivered / injected) if injected else 1.0,
        "avg_latency": avg_latency,
        "latency_inflation": (
            avg_latency / healthy_latency if healthy_latency else 1.0
        ),
        "hit_cycle_limit": hit_limit,
    }


def run_degradation(
    shape: Union[str, Sequence[int]] = (8, 8),
    max_kills: int = 8,
    injection_rate: float = 0.1,
    inject_cycles: int = 1500,
    drain_cycles: int = 20_000,
    seed: int = 17,
    invariant_checks: bool = False,
    routing: RoutingAlgorithm = RoutingAlgorithm.FT_TABLE,
    link_latency: LatencySpec = 1,
    kill_pillars: bool = False,
) -> List[DegradationPoint]:
    """The full campaign: one :class:`DegradationPoint` per kill level.

    ``routing`` selects the algorithm under test (the resilience-artifact
    matrix compares them); non-fault-aware algorithms like ``west_first``
    cannot reroute — their curves show what the faults cost without
    reconfiguration, and ``reachable_fraction`` reports 1.0 since no
    tables exist to consult.

    ``shape`` is the mesh (``(4, 4, 4)`` or ``"4x4x4"`` is a 3D stack);
    ``link_latency`` slows chosen axes (``(1, 1, 2)`` models 2-cycle TSVs
    — the retransmission depth is deepened automatically to keep the HBH
    NACK window sound).  ``kill_pillars`` switches the kill unit from single
    links to whole TSV pillars: each level severs every vertical link of
    one more ``(x, y)`` column (3D shapes only).
    """
    if max_kills < 0:
        raise ValueError("max_kills must be non-negative")
    resolved = parse_shape(shape)
    latency = parse_link_latency(link_latency)
    if kill_pillars:
        kill_order = pillar_groups(resolved)
        unit = "pillars"
    else:
        kill_order = [[link] for link in mesh_links(resolved)]
        unit = "links"
    random.Random(seed).shuffle(kill_order)
    if max_kills > len(kill_order):
        raise ValueError(
            f"cannot kill {max_kills} {unit}; the mesh only has "
            f"{len(kill_order)}"
        )
    late_cycle = inject_cycles // 2
    points: List[DegradationPoint] = []
    for kills in range(max_kills + 1):
        schedule = _schedule_for_level(kill_order, kills, late_cycle)
        config = SimulationConfig(
            noc=NoCConfig(
                shape=resolved,
                routing=routing,
                link_latency=latency,
                retx_buffer_depth=min_retx_depth(latency),
            ),
            faults=dataclasses.replace(
                FaultConfig.fault_free(), permanent=schedule
            ),
            workload=_level_workload(
                injection_rate, inject_cycles, drain_cycles, seed
            ),
            invariant_checks=invariant_checks,
        )
        sim, reconvergence, hit_limit = _run_level(
            config, inject_cycles, late_cycle if kills else None, drain_cycles
        )
        routing_fn = sim.network.routing_fn
        reachable = (
            routing_fn.reachable_fraction()
            if isinstance(routing_fn, FaultAwareRouting)
            else 1.0
        )
        points.append(
            DegradationPoint(
                kills=kills,
                reachable_fraction=reachable,
                reconvergence_cycles=reconvergence,
                **_service_level(sim, hit_limit, points),
            )
        )
    return points


@dataclass(frozen=True)
class BurstDegradationPoint:
    """Measured service level for one (burst intensity, wear rate) cell."""

    burst_rate: float
    wear_threshold: Optional[float]
    packets_injected: int
    packets_delivered: int
    packets_lost: int
    delivery_rate: float
    avg_latency: float
    latency_inflation: float
    intermittent_strikes: int
    bursts_started: int
    escalations: int
    hit_cycle_limit: bool


def burst_sites(
    shape: Sequence[int], num_sites: int = 6, seed: int = 17
) -> List[Tuple[int, Direction]]:
    """The seeded set of links a burst sweep stresses (fixed across cells
    so the sweep varies intensity, not geography)."""
    links = mesh_links(shape)
    if num_sites > len(links):
        raise ValueError(
            f"cannot stress {num_sites} sites; the mesh only has {len(links)}"
        )
    random.Random(seed).shuffle(links)
    return links[:num_sites]


def run_burst_degradation(
    shape: Union[str, Sequence[int]] = (8, 8),
    burst_rates: Sequence[float] = (0.0, 0.1, 0.3, 0.6),
    wear_thresholds: Sequence[Optional[float]] = (None, 200.0, 50.0),
    num_sites: int = 6,
    mean_on: float = 40.0,
    mean_off: float = 160.0,
    injection_rate: float = 0.1,
    inject_cycles: int = 1500,
    drain_cycles: int = 20_000,
    seed: int = 17,
    invariant_checks: bool = False,
    routing: RoutingAlgorithm = RoutingAlgorithm.FT_TABLE,
) -> List[BurstDegradationPoint]:
    """Sweep burst intensity x wear rate over a fixed set of stressed links.

    ``burst_rates`` are the on-window strike probabilities; each
    ``wear_thresholds`` entry is a strike-count escalation threshold
    (``None`` = intermittent only, sites never escalate).  The
    ``burst_rate == 0`` column is the healthy baseline the latency
    inflation normalizes against.
    """
    resolved = parse_shape(shape)
    sites = burst_sites(resolved, num_sites, seed)
    points: List[BurstDegradationPoint] = []
    for threshold in wear_thresholds:
        for rate in burst_rates:
            schedule = IntermittentFaultSchedule.of(
                *(
                    IntermittentFault(node, direction, rate, mean_on, mean_off)
                    for node, direction in sites
                )
            )
            wear = (
                WearOutConfig(threshold=threshold)
                if threshold is not None
                else None
            )
            config = SimulationConfig(
                noc=NoCConfig(shape=resolved, routing=routing),
                faults=dataclasses.replace(
                    FaultConfig.fault_free(seed=seed),
                    intermittent=schedule,
                    wear_out=wear,
                ),
                workload=_level_workload(
                    injection_rate, inject_cycles, drain_cycles, seed
                ),
                invariant_checks=invariant_checks,
            )
            sim, _, hit_limit = _run_level(
                config, inject_cycles, None, drain_cycles
            )
            counters = sim.network.stats.counters
            points.append(
                BurstDegradationPoint(
                    burst_rate=rate,
                    wear_threshold=threshold,
                    intermittent_strikes=counters.get("intermittent_strikes", 0),
                    bursts_started=counters.get("intermittent_bursts_started", 0),
                    escalations=counters.get("wear_out_escalations", 0),
                    **_service_level(sim, hit_limit, points),
                )
            )
    return points
