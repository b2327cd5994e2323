"""Static routing certification — the ``repro verify`` engine.

Given a (topology, routing function) pair this module *proves*, without
simulating a single cycle:

* **Connectivity** — every expected ``(src, dst)`` pair is guaranteed
  delivery, enumerated exhaustively.  "Guaranteed" is the adversarial
  reading: an adaptive routing function must deliver no matter which
  candidate the allocators happen to pick at every hop.
* **Livelock-freedom** — route traversal is loop-free.  The proof object is
  a *progress metric*: for every certified state we compute the longest
  remaining route (``max_route_length`` is its maximum), and every legal
  hop strictly decreases it, so no packet can revisit a routing state.
  When the proof fails, a concrete witness cycle of routing states is
  reported.
* **Deadlock-freedom** — via the channel-dependency graph
  (:mod:`repro.analysis.cdg`), generalized over the
  :class:`~repro.noc.topology.PortGraph` surface so meshes, tori and
  arbitrary :class:`~repro.noc.topology.GraphTopology` instances verify
  through the same construction.
* **k-fault robustness** — exhaustive single-link-kill and seeded-sample
  multi-kill sweeps re-certify the :class:`FaultAwareRouting` rebuild for
  every degraded topology, so "reconfiguration stays connected and
  deadlock-free" is a checked artifact, not a hope.

The traversal pass works on the *routing-state graph*: one state per
``(node, arrival port)`` for port-aware table routing, one per node
otherwise, expanded per destination.  A state is **certified** iff all of
its successor states are certified (delivery at the destination is the base
case) — computed as a reverse-worklist fixpoint, which simultaneously
yields the progress metric.  States that are not certified either strand
packets (no legal continuation: counted as ``stuck``) or sit on/upstream of
a cycle (the livelock witness).

``repro verify`` exposes this per config; :func:`build_standard_certificate`
pins the repo's standard platforms into the ``CERT_routing.json`` artifact
(regenerated and diffed in CI by ``tools/record.py``) so resilience
regressions are as visible as performance regressions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from random import Random
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.cdg import CDGVerdict, verify_deadlock_freedom
from repro.config import SimulationConfig
from repro.noc.flit import Flit
from repro.noc.routing import (
    FaultAwareRouting,
    RoutingFunction,
    SourceRouting,
    routing_for_config,
)
from repro.noc.topology import (
    MeshTopology,
    PortGraph,
    TorusTopology,
    make_topology,
)
from repro.serialization import config_to_dict
from repro.types import Direction, FlitType, RoutingAlgorithm

#: An ordered (src, dst) pair of node ids.
Pair = Tuple[Any, Any]

#: A routing state: (node, arrival port).  The port slot is
#: ``Direction.LOCAL`` at injection for port-aware functions and ``None``
#: throughout for functions that route on (node, dst) alone.
State = Tuple[Any, Any]

#: A directed channel (node, out port) — matches ``FaultAwareRouting``.
Chan = Tuple[Any, Any]

#: How many witnesses of each kind a verdict carries (full counts are
#: always reported; the samples keep artifacts reviewable).
_SAMPLE_CAP = 12

#: Seed for the standard multi-kill sample sweeps (the paper's DSN year).
STANDARD_SWEEP_SEED = 2006


def _probe_header(dst: Any) -> Flit:
    """A minimal header flit for interrogating a routing function."""
    return Flit(-1, 0, FlitType.HEAD, -1, dst)


def _node_text(topology: PortGraph, node: Any) -> str:
    coordinates_of = getattr(topology, "coordinates_of", None)
    if coordinates_of is not None:
        c = coordinates_of(node)
        return f"({c.x},{c.y})"
    return str(node)


def _state_text(topology: PortGraph, state: State) -> str:
    node, in_port = state
    where = _node_text(topology, node)
    if in_port is None:
        return where
    port = getattr(in_port, "name", None) or str(in_port)
    return f"{where} in:{port}"


def _pair_text(topology: PortGraph, pair: Pair) -> str:
    return f"{_node_text(topology, pair[0])}->{_node_text(topology, pair[1])}"


def _chan_text(topology: PortGraph, chan: Chan) -> str:
    port = getattr(chan[1], "name", None) or str(chan[1])
    return f"{_node_text(topology, chan[0])}:{port.lower()}"


@dataclass(frozen=True)
class TraversalVerdict:
    """Outcome of the exhaustive route-traversal pass.

    ``connected`` covers exactly the ``expected_pairs`` the caller asked
    about (all ordered pairs by default; the pairs the surviving topology
    can physically serve during fault sweeps).  ``max_route_length`` is the
    maximum of the progress metric over certified injection states: the
    longest route any delivered packet can take, hence a hard hop bound.
    """

    connected: bool
    livelock_free: bool
    delivered_pairs: int
    expected_pairs: int
    total_pairs: int
    max_route_length: int
    #: Pairs delivered beyond the expected set: best-effort routes over
    #: half-alive (one-way) channels.  Informational, not certified.
    extra_pairs: int = 0
    missing_pairs: Tuple[str, ...] = ()
    stuck_states: Tuple[str, ...] = ()
    livelock_witness: Tuple[str, ...] = ()
    progress_metric: str = "longest-remaining-route"

    def to_dict(self) -> Dict[str, object]:
        return {
            "connected": self.connected,
            "livelock_free": self.livelock_free,
            "delivered_pairs": self.delivered_pairs,
            "expected_pairs": self.expected_pairs,
            "total_pairs": self.total_pairs,
            "extra_pairs": self.extra_pairs,
            "max_route_length": self.max_route_length,
            "progress_metric": self.progress_metric,
            "missing_pairs": list(self.missing_pairs),
            "stuck_states": list(self.stuck_states),
            "livelock_witness": list(self.livelock_witness),
        }


@dataclass(frozen=True)
class RoutingCertificate:
    """The combined static certificate of one (topology, routing) pair."""

    traversal: TraversalVerdict
    cdg: CDGVerdict

    @property
    def connected(self) -> bool:
        return self.traversal.connected

    @property
    def livelock_free(self) -> bool:
        return self.traversal.livelock_free

    @property
    def deadlock_free(self) -> bool:
        return self.cdg.deadlock_free

    @property
    def certified(self) -> bool:
        return self.connected and self.livelock_free and self.deadlock_free

    def to_dict(self) -> Dict[str, object]:
        out = self.traversal.to_dict()
        out.update(self.cdg.to_dict())
        out["certified"] = self.certified
        return out


def certify_traversal(
    topology: PortGraph,
    routing_fn: RoutingFunction,
    expected_pairs: Optional[Iterable[Pair]] = None,
) -> TraversalVerdict:
    """Exhaustively certify delivery for every (src, dst) pair.

    Raises :class:`ValueError` for source routing (routes live in packets,
    not in a statically analyzable function), exactly like the CDG pass.
    """
    if isinstance(routing_fn, SourceRouting):
        raise ValueError(
            "source routing has no static routing relation to certify"
        )
    nodes = sorted(topology.nodes())
    total_pairs = len(nodes) * (len(nodes) - 1)
    if expected_pairs is None:
        expected: Set[Pair] = {
            (src, dst) for dst in nodes for src in nodes if src != dst
        }
    else:
        expected = set(expected_pairs)
    port_aware = bool(getattr(routing_fn, "port_aware", False))

    delivered: Set[Pair] = set()
    missing: List[Pair] = []
    stuck: List[str] = []
    witness: List[str] = []
    stuck_count = 0
    max_route_length = 0

    for dst in nodes:
        result = _certify_destination(topology, routing_fn, dst, port_aware)
        reached, dst_stuck, dst_witness, dst_height = result
        delivered.update((src, dst) for src in reached)
        stuck_count += len(dst_stuck)
        for state in dst_stuck:
            if len(stuck) < _SAMPLE_CAP:
                stuck.append(
                    f"dst {_node_text(topology, dst)}: "
                    f"{_state_text(topology, state)}"
                )
        if dst_witness and not witness:
            witness = [_state_text(topology, s) for s in dst_witness]
            witness.append(f"(cycle; dst {_node_text(topology, dst)})")
        max_route_length = max(max_route_length, dst_height)

    for pair in sorted(expected):
        if pair not in delivered and len(missing) < _SAMPLE_CAP:
            missing.append(pair)
    connected = expected <= delivered
    return TraversalVerdict(
        connected=connected,
        livelock_free=not witness,
        delivered_pairs=len(delivered & expected),
        expected_pairs=len(expected),
        total_pairs=total_pairs,
        extra_pairs=len(delivered - expected),
        max_route_length=max_route_length,
        missing_pairs=tuple(_pair_text(topology, p) for p in missing),
        stuck_states=tuple(stuck),
        livelock_witness=tuple(witness),
    )


def certified_pairs(
    topology: PortGraph, routing_fn: RoutingFunction
) -> FrozenSet[Pair]:
    """The exact set of (src, dst) pairs certified guaranteed-delivery.

    The pair-level companion of :func:`certify_traversal`, used by the
    simulation cross-check tests: every certified pair must deliver in the
    simulator, every uncertified pair must not (be dropped or refused).
    """
    if isinstance(routing_fn, SourceRouting):
        raise ValueError(
            "source routing has no static routing relation to certify"
        )
    port_aware = bool(getattr(routing_fn, "port_aware", False))
    out: Set[Pair] = set()
    for dst in sorted(topology.nodes()):
        reached, _, _, _ = _certify_destination(
            topology, routing_fn, dst, port_aware
        )
        out.update((src, dst) for src in reached)
    return frozenset(out)


def _certify_destination(
    topology: PortGraph,
    routing_fn: RoutingFunction,
    dst: Any,
    port_aware: bool,
) -> Tuple[Set[Any], List[State], List[State], int]:
    """One destination's traversal: (delivering srcs, stuck states,
    livelock witness cycle, max certified route length)."""
    probe = _probe_header(dst)

    def successors(state: State) -> Optional[List[State]]:
        """Successor states, or None when the state itself misroutes
        (ejects away from dst / routes off a missing link)."""
        node, in_port = state
        if port_aware:
            dirs = routing_fn.candidates_from(  # type: ignore[attr-defined]
                topology, node, in_port, probe
            )
        else:
            dirs = routing_fn.candidates(topology, node, probe)
        out: List[State] = []
        for d in dirs:
            if d is Direction.LOCAL:
                # Ejecting anywhere but dst is a misroute.
                return None if node != dst else out
            neighbor = topology.neighbor(node, d)
            if neighbor is None:
                return None
            arrival = topology.arrival_port(node, d) if port_aware else None
            out.append((neighbor, arrival))
        return out

    # Forward reachability from every injection state.
    injection: Dict[Any, State] = {
        src: (src, Direction.LOCAL if port_aware else None)
        for src in topology.nodes()
        if src != dst
    }
    succ: Dict[State, Optional[List[State]]] = {}
    order: List[State] = []
    frontier: List[State] = list(injection.values())
    seen: Set[State] = set(frontier)
    while frontier:
        state = frontier.pop()
        order.append(state)
        if state[0] == dst:
            succ[state] = []
            continue
        nxt = successors(state)
        succ[state] = nxt
        for n in nxt or ():
            if n not in seen:
                seen.add(n)
                frontier.append(n)

    # Certified fixpoint (reverse worklist): a state is certified when all
    # of its successors are; arrival at dst is the base case.  Heights are
    # exact longest-remaining-route values: a state's height is final when
    # it is certified because every successor was certified first.
    preds: Dict[State, List[State]] = {}
    remaining: Dict[State, int] = {}
    queue: deque = deque()
    stuck: List[State] = []
    for state in order:
        if state[0] == dst:
            queue.append(state)
            continue
        nxt = succ[state]
        if not nxt:  # None (misroute) or [] (no legal continuation)
            stuck.append(state)
            continue
        remaining[state] = len(nxt)
        for n in nxt:
            preds.setdefault(n, []).append(state)
    certified: Set[State] = set()
    height: Dict[State, int] = {}
    while queue:
        state = queue.popleft()
        if state in certified:
            continue
        certified.add(state)
        nxt = succ[state]
        height[state] = (
            0 if state[0] == dst else 1 + max(height[n] for n in nxt or ())
        )
        for p in preds.get(state, ()):
            remaining[p] -= 1
            if remaining[p] == 0:
                queue.append(p)

    reached = {
        src for src, state in injection.items() if state in certified
    }
    max_height = max(
        (height[state] for state in injection.values() if state in certified),
        default=0,
    )
    witness = _find_state_cycle(order, succ, certified)
    return reached, stuck, witness, max_height


def _find_state_cycle(
    order: Sequence[State],
    succ: Dict[State, Optional[List[State]]],
    certified: Set[State],
) -> List[State]:
    """A cycle among uncertified states, if one exists.

    Edges into certified states cannot close a cycle (certified states
    provably terminate), so the search runs on the uncertified residue.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[State, int] = {}
    for root in order:
        if root in certified or colour.get(root, WHITE) != WHITE:
            continue
        path: List[State] = [root]
        stack: List[Tuple[State, List[State]]] = [
            (root, _uncertified_successors(root, succ, certified))
        ]
        colour[root] = GREY
        while stack:
            state, successors = stack[-1]
            advanced = False
            while successors:
                nxt = successors.pop(0)
                if colour.get(nxt, WHITE) == GREY:
                    return path[path.index(nxt):]
                if colour.get(nxt, WHITE) == WHITE:
                    colour[nxt] = GREY
                    path.append(nxt)
                    stack.append(
                        (nxt, _uncertified_successors(nxt, succ, certified))
                    )
                    advanced = True
                    break
            if not advanced:
                colour[state] = BLACK
                path.pop()
                stack.pop()
    return []


def _uncertified_successors(
    state: State,
    succ: Dict[State, Optional[List[State]]],
    certified: Set[State],
) -> List[State]:
    return [n for n in succ.get(state) or () if n not in certified]


def certify_routing(
    topology: PortGraph,
    routing_fn: RoutingFunction,
    *,
    num_vcs: int = 1,
    expected_pairs: Optional[Iterable[Pair]] = None,
) -> RoutingCertificate:
    """The full static certificate: traversal pass + CDG pass."""
    traversal = certify_traversal(topology, routing_fn, expected_pairs)
    cdg = verify_deadlock_freedom(topology, routing_fn, num_vcs)
    return RoutingCertificate(traversal=traversal, cdg=cdg)


# ---------------------------------------------------------------------------
# Fault sweeps
# ---------------------------------------------------------------------------


def directed_channels(topology: PortGraph) -> List[Chan]:
    """Every directed inter-router channel, in deterministic order."""
    return [
        (node, port)
        for node in sorted(topology.nodes())
        for port in topology.connected_directions(node)
    ]


def both_alive_pairs(
    topology: PortGraph,
    dead_links: Iterable[Chan] = (),
    dead_routers: Iterable[Any] = (),
) -> FrozenSet[Pair]:
    """The ordered pairs the degraded topology is *expected* to serve.

    These are pairs connected in the undirected graph whose edges survive
    in **both** directions — exactly the pairs
    :class:`~repro.noc.routing.FaultAwareRouting` guarantees routable
    (up* to the component root, then down*).  Pairs joined only by one-way
    channels are best-effort and excluded from the connectivity criterion.
    """
    dead_link_set = set(dead_links)
    dead_router_set = set(dead_routers)
    alive: Set[Chan] = set()
    for node in topology.nodes():
        if node in dead_router_set:
            continue
        for port in topology.connected_directions(node):
            neighbor = topology.neighbor(node, port)
            if neighbor is None or neighbor in dead_router_set:
                continue
            if (node, port) not in dead_link_set:
                alive.add((node, port))
    undirected: Dict[Any, List[Any]] = {}
    for node, port in sorted(alive):
        neighbor = topology.neighbor(node, port)
        back = topology.arrival_port(node, port)
        if back is not None and (neighbor, back) in alive:
            undirected.setdefault(node, []).append(neighbor)
    component: Dict[Any, int] = {}
    for root in sorted(topology.nodes()):
        if root in component or root in dead_router_set:
            continue
        label = len(component)
        component[root] = label
        frontier = deque([root])
        while frontier:
            node = frontier.popleft()
            for neighbor in undirected.get(node, ()):
                if neighbor not in component:
                    component[neighbor] = label
                    frontier.append(neighbor)
    members: Dict[int, List[Any]] = {}
    for node in sorted(component):
        members.setdefault(component[node], []).append(node)
    pairs: Set[Pair] = set()
    for group in members.values():
        pairs.update((a, b) for a in group for b in group if a != b)
    return frozenset(pairs)


@dataclass(frozen=True)
class FaultSweepVerdict:
    """Aggregate certificate over a family of degraded topologies."""

    kind: str
    kills_per_trial: int
    trials: int
    all_connected: bool
    all_livelock_free: bool
    all_deadlock_free: bool
    min_delivered_fraction: float
    failures: Tuple[str, ...] = ()
    seed: Optional[int] = None

    @property
    def certified(self) -> bool:
        return (
            self.all_connected
            and self.all_livelock_free
            and self.all_deadlock_free
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "kills_per_trial": self.kills_per_trial,
            "trials": self.trials,
            "all_connected": self.all_connected,
            "all_livelock_free": self.all_livelock_free,
            "all_deadlock_free": self.all_deadlock_free,
            "min_delivered_fraction": round(self.min_delivered_fraction, 6),
            "certified": self.certified,
            "failures": list(self.failures),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def certify_fault_trial(
    topology: PortGraph,
    dead_links: Sequence[Chan],
    *,
    num_vcs: int = 1,
) -> RoutingCertificate:
    """Certify the FaultAwareRouting rebuild for one kill set."""
    routing_fn = FaultAwareRouting(topology, dead_links=dead_links)
    expected = both_alive_pairs(topology, dead_links)
    return certify_routing(
        topology, routing_fn, num_vcs=num_vcs, expected_pairs=expected
    )


def _sweep(
    topology: PortGraph,
    kill_sets: Sequence[Sequence[Chan]],
    kind: str,
    kills_per_trial: int,
    *,
    num_vcs: int = 1,
    seed: Optional[int] = None,
) -> FaultSweepVerdict:
    all_connected = True
    all_livelock_free = True
    all_deadlock_free = True
    min_fraction = 1.0
    failures: List[str] = []
    for dead_links in kill_sets:
        cert = certify_fault_trial(topology, dead_links, num_vcs=num_vcs)
        expected = cert.traversal.expected_pairs
        # Fraction of *expected* pairs actually certified deliverable.
        fraction = (
            1.0 if expected == 0
            else cert.traversal.delivered_pairs / expected
        )
        min_fraction = min(min_fraction, fraction)
        all_connected &= cert.connected
        all_livelock_free &= cert.livelock_free
        all_deadlock_free &= cert.deadlock_free
        if not cert.certified and len(failures) < _SAMPLE_CAP:
            kills = "+".join(_chan_text(topology, c) for c in dead_links)
            problems = []
            if not cert.connected:
                problems.append(
                    f"disconnected ({cert.traversal.missing_pairs[:3]})"
                )
            if not cert.livelock_free:
                problems.append("livelock")
            if not cert.deadlock_free:
                problems.append("deadlock")
            failures.append(f"kill {kills}: {', '.join(problems)}")
    return FaultSweepVerdict(
        kind=kind,
        kills_per_trial=kills_per_trial,
        trials=len(kill_sets),
        all_connected=all_connected,
        all_livelock_free=all_livelock_free,
        all_deadlock_free=all_deadlock_free,
        min_delivered_fraction=min_fraction,
        failures=tuple(failures),
        seed=seed,
    )


def sweep_single_link_kills(
    topology: PortGraph, *, num_vcs: int = 1
) -> FaultSweepVerdict:
    """Exhaustive robustness sweep: every directed channel killed alone."""
    kill_sets = [[chan] for chan in directed_channels(topology)]
    return _sweep(
        topology, kill_sets, "single-link-exhaustive", 1, num_vcs=num_vcs
    )


def sweep_multi_link_kills(
    topology: PortGraph,
    kills: int,
    trials: int,
    seed: int,
    *,
    num_vcs: int = 1,
) -> FaultSweepVerdict:
    """Seeded-sample robustness sweep: ``trials`` random ``kills``-sized
    kill sets (reproducible for a given seed)."""
    channels = directed_channels(topology)
    rng = Random(seed)
    kill_sets = [
        sorted(rng.sample(channels, min(kills, len(channels))))
        for _ in range(trials)
    ]
    return _sweep(
        topology,
        kill_sets,
        "multi-link-sample",
        kills,
        num_vcs=num_vcs,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Config-level certification and the standard artifact
# ---------------------------------------------------------------------------


def static_routing_for(
    config: SimulationConfig, topology: MeshTopology
) -> Tuple[RoutingFunction, Optional[FrozenSet[Pair]]]:
    """The routing function the simulator will statically settle into —
    what ``Network`` installs (:func:`routing_for_config`), with every
    scheduled permanent fault applied — plus the expected pairs (None
    means "all pairs" — no permanent degradation).
    """
    routing_fn = routing_for_config(config, topology)
    schedule = config.faults.permanent
    if not schedule or not isinstance(routing_fn, FaultAwareRouting):
        return routing_fn, None
    dead_links, dead_routers = schedule.dead_components(config.noc.num_vcs)
    routing_fn.rebuild(dead_links, dead_routers)
    return routing_fn, both_alive_pairs(topology, dead_links, dead_routers)


def topology_of(config: SimulationConfig) -> MeshTopology:
    """The topology instance a config describes."""
    noc = config.noc
    return make_topology(noc.topology, noc.shape, noc.link_latency)


def certify_config(
    config: SimulationConfig,
    *,
    single_link_kills: bool = False,
    multi_kills: Sequence[int] = (),
    samples: int = 12,
    seed: int = STANDARD_SWEEP_SEED,
    name: Optional[str] = None,
) -> Dict[str, object]:
    """Certify one config; returns the JSON-ready certificate entry.

    The base certificate covers the routing the simulator will actually
    run once the config's whole permanent-fault schedule has taken effect.
    ``single_link_kills``/``multi_kills`` add FaultAwareRouting robustness
    sweeps on top (independent of the schedule — they certify the rebuild
    machinery itself).
    """
    noc = config.noc
    topology = topology_of(config)
    routing_fn, expected = static_routing_for(config, topology)
    cert = certify_routing(
        topology,
        routing_fn,
        num_vcs=noc.num_vcs,
        expected_pairs=expected,
    )
    noc_dict = config_to_dict(config)["noc"]
    platform: Dict[str, object] = {
        "topology": noc.topology,
        "shape": noc_dict["shape"],
        "link_latency": noc_dict["link_latency"],
        "routing": noc.routing.value,
        "num_vcs": noc.num_vcs,
        "permanent_faults": config.faults.permanent.to_dicts(),
    }
    entry: Dict[str, object] = {
        "platform": platform,
        "routing": cert.to_dict(),
    }
    if name is not None:
        entry["name"] = name
    if single_link_kills:
        entry["single_link_kills"] = sweep_single_link_kills(
            topology, num_vcs=noc.num_vcs
        ).to_dict()
    if multi_kills:
        entry["multi_link_kills"] = [
            sweep_multi_link_kills(
                topology, k, samples, seed, num_vcs=noc.num_vcs
            ).to_dict()
            for k in multi_kills
        ]
    return entry


#: The pinned platforms of the ``CERT_routing.json`` artifact.  ``expect``
#: states the properties the repo *relies on*; ``tools/record.py
#: --check`` fails when a regeneration breaks one, independently of the
#: file diff.
STANDARD_TARGETS: Tuple[Dict[str, Any], ...] = (
    {
        "name": "mesh5x5_xy",
        "noc": {"shape": (5, 5), "routing": "xy"},
        "expect": {"certified": True},
    },
    {
        "name": "mesh5x5_west_first",
        "noc": {"shape": (5, 5), "routing": "west_first"},
        "expect": {"certified": True},
    },
    {
        "name": "mesh5x5_ft_table",
        "noc": {"shape": (5, 5), "routing": "ft_table"},
        "single_link_kills": True,
        "multi_kills": (2, 3),
        "expect": {
            "certified": True,
            "single_link_kills_certified": True,
            "multi_link_kills_certified": True,
        },
    },
    {
        "name": "mesh8x8_xy",
        "noc": {"shape": (8, 8), "routing": "xy"},
        "expect": {"certified": True},
    },
    {
        "name": "mesh8x8_west_first",
        "noc": {"shape": (8, 8), "routing": "west_first"},
        "expect": {"certified": True},
    },
    {
        "name": "torus5x5_xy",
        "noc": {"shape": (5, 5), "topology": "torus", "routing": "xy"},
        # The known negative: torus XY closes wrap cycles; the artifact
        # pins the witness so the flag can never silently disappear.
        "expect": {"certified": False, "deadlock_free": False},
    },
    {
        "name": "mesh3x3x3_dor",
        # The pinned 3D stack: dimension-ordered routing over 7-port
        # routers with 2-cycle TSVs, plus the single-TSV/planar-link kill
        # robustness sweep of the fault-aware rebuild.
        "noc": {
            "shape": (3, 3, 3),
            "topology": "mesh3d",
            "routing": "xy",
            "link_latency": (1, 1, 2),
            "retx_buffer_depth": 5,
        },
        "single_link_kills": True,
        "expect": {
            "certified": True,
            "single_link_kills_certified": True,
        },
    },
)

#: Bumped when the certificate schema changes shape incompatibly.
CERT_VERSION = 1


def _target_config(target: Dict[str, Any]) -> SimulationConfig:
    from repro.config import NoCConfig

    noc = dict(target["noc"])
    noc.setdefault("num_vcs", 3)
    noc["routing"] = RoutingAlgorithm(noc["routing"])
    return SimulationConfig(noc=NoCConfig(**noc))


def check_expectations(entry: Dict[str, Any], expect: Dict[str, Any]) -> List[str]:
    """Expectation violations of one certificate entry (empty = ok)."""
    routing = entry.get("routing", {})
    problems: List[str] = []
    for key, wanted in sorted(expect.items()):
        if key == "single_link_kills_certified":
            actual = entry.get("single_link_kills", {}).get("certified")
        elif key == "multi_link_kills_certified":
            sweeps = entry.get("multi_link_kills", [])
            actual = bool(sweeps) and all(s.get("certified") for s in sweeps)
        else:
            actual = routing.get(key)
        if actual != wanted:
            problems.append(
                f"{entry.get('name', '?')}: expected {key}={wanted}, got {actual}"
            )
    return problems


def build_standard_certificate() -> Dict[str, object]:
    """Regenerate the full ``CERT_routing.json`` payload (deterministic:
    no timestamps, fixed seeds, sorted traversal orders)."""
    targets: List[Dict[str, object]] = []
    for target in STANDARD_TARGETS:
        entry = certify_config(
            _target_config(target),
            single_link_kills=bool(target.get("single_link_kills")),
            multi_kills=tuple(target.get("multi_kills", ())),
            seed=STANDARD_SWEEP_SEED,
            name=str(target["name"]),
        )
        entry["expect"] = dict(target["expect"])
        targets.append(entry)
    return {
        "schema": "repro/v1",
        "artifact": "CERT_routing",
        "cert_version": CERT_VERSION,
        "sweep_seed": STANDARD_SWEEP_SEED,
        "targets": targets,
    }
