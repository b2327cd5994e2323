"""Routing functions (the RT unit) and the XY turn-legality check.

The paper's two evaluated algorithms are deterministic XY ("DT") and a
minimal adaptive algorithm ("AD"); we implement west-first as the adaptive
algorithm because it is deadlock-free on a mesh, plus a *fully* adaptive
minimal function (which can deadlock and therefore exercises the deadlock
recovery scheme) and source routing for scripted scenarios.

A routing function returns the set of *candidate output directions*; the VA
then tries all VCs of those directions ("here we assume that the routing
function returns all VCs of a single PC", Figure 12 — XY returns one
direction; the adaptive functions may return two).

:func:`xy_arrival_is_legal` is the receiving-router check of Section 4.2: a
misdirected header is detected behaviourally because its arrival violates an
invariant of minimal XY (no reversals, never X-movement needed after
travelling in Y).
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.noc.flit import Flit
from repro.noc.topology import MeshTopology, PortGraph
from repro.types import AXIS_DIRECTIONS, Direction, RoutingAlgorithm

if TYPE_CHECKING:
    from repro.config import SimulationConfig


class RoutingFunction(Protocol):
    """Computes candidate output directions for a header flit.

    A router asks on every header it routes; nothing memoizes the answer,
    so a function may read any flit state (source routing consumes
    ``flit.source_route``) and a rebuilt table is seen at once.  The
    batched kernel routes by its own memoized table instead
    (``repro.noc.kernel.route_table``).
    """

    #: Port-aware functions route on ``(current, in_port, dst)`` rather than
    #: ``(current, dst)`` — the extra input lets turn-model table routing
    #: (up*/down*) know which channel the packet currently holds.  Routers
    #: call :meth:`FaultAwareRouting.candidates_from` for these.
    port_aware: bool = False

    def candidates(
        self, topology: Any, current: Any, flit: Flit
    ) -> List[Any]:
        """Candidate output directions (LOCAL means eject here).

        ``topology`` is at least a :class:`~repro.noc.topology.PortGraph`;
        coordinate-based functions (XY, west-first, ...) additionally
        require a :class:`~repro.noc.topology.MeshTopology`, while table
        routing (:class:`FaultAwareRouting`) works on any port graph.
        """
        ...


class XYRouting:
    """Dimension-ordered routing (DOR): correct the lowest uncorrected axis
    first — X, then Y, then Z (deterministic).  Deadlock-free on meshes of
    any dimension; the 2D case is the paper's XY."""

    def candidates(
        self, topology: MeshTopology, current: int, flit: Flit
    ) -> List[Direction]:
        if current == flit.dst:
            return [Direction.LOCAL]
        a = topology.coordinates_of(current)
        b = topology.coordinates_of(flit.dst)
        for axis in range(topology.ndim):
            positive, negative = AXIS_DIRECTIONS[axis]
            if b[axis] > a[axis]:
                return [positive]
            if b[axis] < a[axis]:
                return [negative]
        return [Direction.LOCAL]  # unreachable: current != dst


class TorusXYRouting:
    """Wrap-aware dimension-ordered routing for tori (any dimension).

    Routes the lowest uncorrected axis first using the minimal wrap
    direction (positive preferred on a tie).  Unlike mesh DOR this is
    *not* deadlock-free: the wraparound links close cyclic channel
    dependencies, which is exactly why torus networks use dateline VC
    classes — or, here, the paper's deadlock recovery scheme.
    """

    def candidates(
        self, topology: MeshTopology, current: int, flit: Flit
    ) -> List[Direction]:
        if current == flit.dst:
            return [Direction.LOCAL]
        minimal = topology.minimal_directions(current, flit.dst)
        for axis in range(topology.ndim):
            positive, negative = AXIS_DIRECTIONS[axis]
            if positive in minimal:
                return [positive]
            if negative in minimal:
                return [negative]
        return [Direction.LOCAL]  # unreachable for a valid destination


class WestFirstRouting:
    """Minimal adaptive west-first turn-model routing (deadlock-free).

    2D (the paper's AD): if the destination lies to the west, the packet
    must travel west first (no turns into west are ever allowed);
    otherwise any minimal direction among {E, N, S} may be chosen
    adaptively.

    3D: plain west-first is *not* deadlock-free (the Y/Z plane retains all
    its turns, so N/S/UP/DOWN channels can close a cycle), so the 3D form
    is the negative-first turn model — all negative-axis movement (W, S,
    DOWN) happens first, adaptively; afterwards the packet moves only in
    positive directions, and no positive->negative turn ever occurs.
    Negative channels strictly decrease ``x+y+z`` and positive ones
    strictly increase it, so any dependency cycle would need the
    forbidden turn class; the CDG verifier certifies both forms.
    """

    def candidates(
        self, topology: MeshTopology, current: int, flit: Flit
    ) -> List[Direction]:
        if current == flit.dst:
            return [Direction.LOCAL]
        minimal = topology.minimal_directions(current, flit.dst)
        if topology.ndim == 2:
            if Direction.WEST in minimal:
                return [Direction.WEST]
            return minimal
        negatives = [d for d in minimal if d.sign < 0]
        return negatives if negatives else minimal


class FullyAdaptiveRouting:
    """Minimal fully-adaptive routing with **no** escape channels.

    All minimal directions are candidates; cyclic channel dependencies are
    possible, so networks using this function rely on the paper's deadlock
    recovery scheme (Section 3.2) for forward progress.
    """

    def candidates(
        self, topology: MeshTopology, current: int, flit: Flit
    ) -> List[Direction]:
        if current == flit.dst:
            return [Direction.LOCAL]
        return topology.minimal_directions(current, flit.dst)


class SourceRouting:
    """Routes are attached to packets by the injector.

    Each header flit carries the remaining direction list; the RT unit pops
    one entry per hop.  Used to script deterministic scenarios such as the
    Figure 10/11 deadlock configurations.
    """

    def candidates(
        self, topology: MeshTopology, current: int, flit: Flit
    ) -> List[Direction]:
        route = flit.source_route
        if not route:
            return [Direction.LOCAL]
        return [route[0]]

    @staticmethod
    def consume_hop(flit: Flit) -> None:
        """Advance the source route after the header wins VA."""
        if flit.source_route:
            flit.source_route.pop(0)


#: A directed channel: the link leaving ``node`` through ``direction``.
#: Node ids and port labels are :class:`int`/:class:`Direction` on a mesh
#: but may be any sortable hashables on a generic :class:`PortGraph`.
_Chan = Tuple[Any, Any]


class FaultAwareRouting:
    """Fault-aware table routing: up*/down* over the surviving links.

    The table is rebuilt (:meth:`rebuild`) on every permanent-fault event
    from the set of surviving directed channels:

    1. **Orientation.**  An undirected *both-alive* graph is formed over
       the live routers, keeping an edge only where both directions of the
       channel pair survive.  Each connected component is levelled by BFS
       from its lowest-id router, and every node gets the global total
       order key ``(level, node)``.  A directed channel ``u -> v`` is *up*
       iff ``key(v) < key(u)``, else *down*.  Channels with only one
       surviving direction do not shape the levels but are still oriented
       and usable — the levels must come from the bidirectional core, or a
       node whose only up-channel is half-dead could be stranded with
       all-down paths that may never turn up again.
    2. **Turn rule.**  A packet may never make a *down -> up* turn.  Up
       channels strictly decrease the key and down channels strictly
       increase it, so any channel-dependency cycle would need a down->up
       turn: the restricted channel-dependency graph is acyclic for *any*
       total order, hence deadlock-free (certified independently by
       ``analysis.cdg``).
    3. **Tables.**  Per destination, a backward BFS over directed-channel
       states (relaxing only turn-legal predecessors) yields the shortest
       legal distance from every channel.  The routing entry for
       ``(node, in_port, dst)`` is the alive, turn-legal output channel
       with minimal distance (ties broken by direction index), so greedy
       table-following strictly decreases the distance each hop and always
       terminates at ``dst``.

    Every pair of routers connected in the both-alive graph is routable:
    climb all-up to the component's root (level 0, minimal key), then
    descend all-down to the destination — up*-then-down* paths contain no
    down->up turn.  Pairs outside any bidirectional component may still be
    routable through half-alive channels; pairs with no table entry are
    *unreachable* and reported as such (``is_reachable``), letting NIs
    refuse undeliverable packets instead of wedging the network.

    On a healthy mesh the key reduces to ``(x + y, node)``; up = {WEST,
    SOUTH} and down = {EAST, NORTH}, and all four quadrant cases admit
    minimal paths (pure-down, pure-up, west-then-north, south-then-east),
    so the fault-free latency matches XY.
    """

    port_aware = True

    def __init__(
        self,
        topology: PortGraph,
        dead_links: Iterable[_Chan] = (),
        dead_routers: Iterable[Any] = (),
    ):
        self.topology = topology
        #: Bumped on every rebuild; lets observers detect reconfiguration.
        self.version = 0
        self._alive_channels: Set[_Chan] = set()
        self._table: Dict[Tuple[Any, Any, Any], Any] = {}
        self._num_nodes = topology.num_nodes
        self.rebuild(dead_links, dead_routers)

    # -- construction ------------------------------------------------------

    def rebuild(
        self, dead_links: Iterable[_Chan] = (), dead_routers: Iterable[Any] = ()
    ) -> None:
        """Recompute orientation and routing tables for the current
        surviving-link set.  ``dead_links`` entries are ``(node,
        direction)`` — the directed channel leaving ``node`` through
        ``direction``."""
        topology = self.topology
        dead_link_set = set(dead_links)
        dead_router_set = set(dead_routers)

        # Surviving directed channels.
        alive: Dict[_Chan, Any] = {}
        for u in topology.nodes():
            if u in dead_router_set:
                continue
            for d in topology.connected_directions(u):
                v = topology.neighbor(u, d)
                if v is None or v in dead_router_set:
                    continue
                if (u, d) in dead_link_set:
                    continue
                alive[(u, d)] = v
        self._alive_channels = set(alive)

        # Levels over the both-alive graph, per component from its min id.
        both_alive: Dict[Any, List[Any]] = {}
        for (u, d), v in alive.items():
            back = topology.arrival_port(u, d)
            if back is not None and (v, back) in alive:
                both_alive.setdefault(u, []).append(v)
        level: Dict[Any, int] = {}
        for root in topology.nodes():
            if root in dead_router_set or root in level:
                continue
            level[root] = 0
            frontier = deque([root])
            while frontier:
                u = frontier.popleft()
                for v in both_alive.get(u, ()):
                    if v not in level:
                        level[v] = level[u] + 1
                        frontier.append(v)

        def key(n: Any) -> Tuple[int, Any]:
            return (level[n], n)

        is_up: Dict[_Chan, bool] = {
            ch: key(v) < key(ch[0]) for ch, v in alive.items()
        }

        # Reverse adjacency: channels arriving at each node.
        arriving: Dict[Any, List[_Chan]] = {}
        for ch, v in alive.items():
            arriving.setdefault(v, []).append(ch)

        table: Dict[Tuple[Any, Any, Any], Any] = {}
        local: Any = Direction.LOCAL
        for dst in topology.nodes():
            if dst in dead_router_set:
                continue
            # Backward BFS over channel states; dist[ch] = shortest legal
            # hop count from entering ch to reaching dst.
            dist: Dict[_Chan, int] = {}
            frontier = deque()
            for ch in arriving.get(dst, ()):
                dist[ch] = 1
                frontier.append(ch)
            while frontier:
                ch = frontier.popleft()
                ch_up = is_up[ch]
                next_dist = dist[ch] + 1
                for pc in arriving.get(ch[0], ()):
                    # Forward turn pc -> ch is illegal iff down -> up.
                    if pc not in dist and not (not is_up[pc] and ch_up):
                        dist[pc] = next_dist
                        frontier.append(pc)

            for u in topology.nodes():
                if u == dst or u in dead_router_set:
                    continue
                # Ties broken by port-label order (Direction index on a mesh).
                outs = [
                    (dist[(u, d)], d)
                    for d in topology.connected_directions(u)
                    if (u, d) in dist
                ]
                if not outs:
                    continue
                # Injection: no held channel, any output is turn-legal.
                table[(u, local, dst)] = min(outs)[1]
                for pc in arriving.get(u, ()):
                    in_port = topology.arrival_port(pc[0], pc[1])
                    if in_port is None:
                        # A one-way channel has no arrival-port label to key
                        # the table by; packets holding it are re-planned by
                        # candidates_from's dead-held-channel fallback.
                        continue
                    if is_up[pc]:
                        best = min(outs)
                    else:
                        legal = [o for o in outs if not is_up[(u, o[1])]]
                        if not legal:
                            continue
                        best = min(legal)
                    table[(u, in_port, dst)] = best[1]

        self._table = table
        self.version += 1

    # -- routing -----------------------------------------------------------

    def candidates(
        self, topology: PortGraph, current: Any, flit: Flit
    ) -> List[Any]:
        """Injection-context lookup (no held channel, all turns legal)."""
        if current == flit.dst:
            return [Direction.LOCAL]
        d = self._table.get((current, Direction.LOCAL, flit.dst))
        return [d] if d is not None else []

    def candidates_from(
        self,
        topology: PortGraph,
        current: Any,
        in_port: Any,
        flit: Flit,
    ) -> List[Any]:
        """Port-aware lookup for a header arriving through ``in_port``.

        A missing entry with a *live* held channel means the packet is
        turn-stuck after a reconfiguration (every legal continuation died):
        it is unroutable and the caller must drop it.  If the held channel
        itself is dead, nothing can wait on it any more, so the packet is
        re-planned as if freshly injected (no turn constraint).
        """
        if current == flit.dst:
            return [Direction.LOCAL]
        if in_port is Direction.LOCAL:
            return self.candidates(topology, current, flit)
        d = self._table.get((current, in_port, flit.dst))
        if d is not None:
            return [d]
        src = topology.neighbor(current, in_port)
        back = (
            topology.arrival_port(current, in_port) if src is not None else None
        )
        held = (src, back) if back is not None else None
        if held is None or held not in self._alive_channels:
            return self.candidates(topology, current, flit)
        return []

    # -- reachability ------------------------------------------------------

    def is_reachable(self, src: Any, dst: Any) -> bool:
        """Whether the current tables can deliver ``src -> dst``."""
        if src == dst:
            return True
        return (src, Direction.LOCAL, dst) in self._table

    def reachable_fraction(self) -> float:
        """Fraction of ordered ``(src, dst)`` pairs (src != dst) the
        current tables can deliver — 1.0 on a healthy network."""
        n = self._num_nodes
        if n < 2:
            return 1.0
        local = Direction.LOCAL
        entries = sum(1 for (_, p, _) in self._table if p == local)
        return entries / (n * (n - 1))


def resolve_routing_function(
    algorithm: RoutingAlgorithm, topology: MeshTopology
) -> RoutingFunction:
    """The routing function a :class:`~repro.noc.network.Network` actually
    instantiates for ``(algorithm, topology)``.

    Mesh XY ignores wraparound links, so on a torus the wrap-aware
    :class:`TorusXYRouting` is substituted.  The static-analysis layer uses
    this same resolution so that its channel-dependency graph describes the
    routing function the simulator will really run.
    """
    from repro.noc.topology import TorusTopology

    if algorithm is RoutingAlgorithm.FT_TABLE:
        return FaultAwareRouting(topology)
    if algorithm is RoutingAlgorithm.XY:
        if isinstance(topology, TorusTopology):
            return TorusXYRouting()
        return XYRouting()
    if algorithm is RoutingAlgorithm.WEST_FIRST:
        return WestFirstRouting()
    if algorithm is RoutingAlgorithm.FULLY_ADAPTIVE:
        return FullyAdaptiveRouting()
    if algorithm is RoutingAlgorithm.SOURCE:
        return SourceRouting()
    raise ValueError(f"unknown routing algorithm: {algorithm}")


def check_fault_sites(config: SimulationConfig, topology: MeshTopology) -> None:
    """Reject (:class:`ValueError`) a permanent or intermittent fault that
    names a node, link or VC the platform does not have."""

    def check(label: str, node: int, direction: Optional[Direction]) -> None:
        if node >= topology.num_nodes:
            raise ValueError(
                f"{label} fault names node {node} but the "
                f"topology has {topology.num_nodes} nodes"
            )
        if direction is not None and direction not in (
            topology.connected_directions(node)
        ):
            raise ValueError(
                f"{label} fault names link {node}:{direction.name.lower()} "
                "but no such link exists in this topology"
            )

    num_vcs = config.noc.num_vcs
    for fault in config.faults.permanent:
        whole_router = fault.kind == "router"
        check("permanent", fault.node, None if whole_router else fault.direction)
        if fault.kind == "vc" and fault.vc is not None and fault.vc >= num_vcs:
            raise ValueError(
                f"permanent fault names VC {fault.vc} but the "
                f"platform has {num_vcs} VCs"
            )
    for site in config.faults.intermittent:
        check("intermittent", site.node, site.direction)


def routing_for_config(
    config: SimulationConfig, topology: MeshTopology
) -> RoutingFunction:
    """The routing function a :class:`~repro.noc.network.Network` installs
    for ``config``, after :func:`check_fault_sites`.

    The one place that decides what a platform which can lose components
    runs: XY cannot route around a dead link, so it is replaced by the
    fault-aware table routing (identical fault-free latency — its up*/down*
    orientation yields minimal paths on a healthy mesh).  The static
    analyses certify this function's result, not a copy of the rule.
    """
    check_fault_sites(config, topology)
    if substitutes_table_routing(config):
        return FaultAwareRouting(topology)
    return resolve_routing_function(config.noc.routing, topology)


def substitutes_table_routing(config: SimulationConfig) -> bool:
    """Whether :func:`routing_for_config` swaps XY for the fault-aware
    table routing: XY on a platform that can lose components."""
    return (
        config.noc.routing is RoutingAlgorithm.XY
        and config.faults.can_lose_components
    )


def xy_arrival_is_legal(
    topology: MeshTopology,
    current: int,
    arrival_port: Optional[Direction],
    dst: int,
) -> bool:
    """Receiving-router misroute detection for deterministic XY routing.

    Under fault-free XY a packet (a) never reverses direction and (b) never
    needs X movement after travelling in Y.  A header whose arrival violates
    either invariant was misdirected by the previous router's RT unit
    (Section 4.2); the receiver NACKs it back.

    ``arrival_port`` is the input port the header arrived on (None or LOCAL
    for freshly injected packets, which are always legal).
    """
    if arrival_port is None or arrival_port is Direction.LOCAL:
        return True
    if current == dst:
        return True
    minimal = topology.minimal_directions(current, dst)
    # Reversal: the packet would have to exit through the port it came in.
    if arrival_port in minimal:
        return False
    # Out-of-order axes: arriving on axis k means the packet last moved
    # along axis k, so under DOR every lower axis must be corrected (the
    # 2D case is the classic "no X movement needed after travelling Y").
    a = topology.coordinates_of(current)
    b = topology.coordinates_of(dst)
    for axis in range(arrival_port.axis):
        if a[axis] != b[axis]:
            return False
    return True
