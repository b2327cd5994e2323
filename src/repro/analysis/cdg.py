"""Channel-dependency-graph construction and deadlock-freedom verification.

Dally & Seitz's classic criterion: a routing function is deadlock-free on a
network iff its *channel dependency graph* (CDG) is acyclic.  The CDG has
one vertex per directed inter-router channel; there is an edge ``c1 -> c2``
when some packet, travelling toward some destination, can hold channel
``c1`` while requesting channel ``c2`` at the router joining them.

Construction is *reachability-aware*: dependencies are only recorded along
routing states a packet can actually reach, starting from every possible
injection point.  Naively pairing every input channel with every candidate
output would fabricate turns the routing function never takes (e.g. a
south-travelling XY packet turning east) and falsely flag XY as
deadlock-prone.  Those states come from :func:`routing_walk`, the one
place the static analyses ask a routing function for candidates: the
``repro verify`` traversal pass (:mod:`repro.analysis.verify`) reads the
same walk, so the two passes decide its edge cases alike — a malformed
candidate makes its state a misroute (no dependencies out of it), and
port-aware routing over a one-way channel raises.  :func:`find_cycle` is
likewise the one witness search of both.

Virtual channels: the paper's VA lets a packet claim *any* VC of the
physical channel the routing function selected ("the routing function
returns all VCs of a single PC", Figure 12).  With such unrestricted VC
allocation, VCs provide no deadlock protection — every VC of a PC carries
exactly the same dependency set, so the CDG is built at physical-channel
granularity and a cycle among PCs proves a reachable VC-level deadlock for
any ``num_vcs``.  A routing function using VC classes as escape channels
(datelines) would need a VC-granular graph; none of the repo's routing
functions does.

The graph is built over the generic :class:`~repro.noc.topology.PortGraph`
surface — nodes, ports, ``neighbor`` and ``arrival_port`` — not over 2-D
mesh coordinates, so the same construction certifies meshes, tori, and
arbitrary :class:`~repro.noc.topology.GraphTopology` instances (degraded
graphs, chiplet hierarchies, test fixtures) without modification.

The verifier is exercised by ``repro lint`` (rule ``NOC004``), by the
``repro verify`` certification engine, and directly by tests: XY and
west-first must verify clean on a mesh, fully-adaptive and torus XY must
be flagged with a concrete witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.noc.flit import Flit
from repro.noc.routing import RoutingFunction, SourceRouting
from repro.noc.topology import PortGraph
from repro.types import Direction, FlitType


#: A routing state: (node, arrival port).  The port slot is
#: ``Direction.LOCAL`` at injection for port-aware functions and ``None``
#: throughout for functions that route on (node, dst) alone.
State = Tuple[Any, Any]

#: One legal hop out of a state: (out port, next state).
Move = Tuple[Any, State]

T = TypeVar("T")


def node_text(topology: Optional[PortGraph], node: Any) -> str:
    """A node as its coordinates on a grid, every axis — ``(x,y)``,
    ``(x,y,z)`` — or as its id on a generic port graph."""
    coordinates_of = getattr(topology, "coordinates_of", None)
    if coordinates_of is None:
        return str(node)
    return "(" + ",".join(str(c) for c in coordinates_of(node)) + ")"


def port_text(port: Any) -> str:
    return getattr(port, "name", None) or str(port)


class Channel(NamedTuple):
    """A directed inter-router channel (one physical link direction).

    ``src``/``dst`` are node ids and ``direction`` is the port label the
    channel leaves ``src`` through — :class:`~repro.types.Direction` on a
    mesh, any sortable label on a generic port graph.
    """

    src: Any
    dst: Any
    direction: Any

    def describe(self, topology: Optional[PortGraph] = None) -> str:
        return (
            f"{node_text(topology, self.src)}->{node_text(topology, self.dst)}"
            f" via {port_text(self.direction)}"
        )


class RoutingWalk(NamedTuple):
    """Every routing state reachable toward one destination.

    ``injection`` maps each source to the state its packets start in.
    ``moves`` maps every reachable state, in the order the walk expanded
    it, to its legal hops ``(out port, next state)``: ``[]`` at the
    destination (delivered) or where the function offers nothing
    (stranded), ``None`` where the state misroutes — a candidate ejects
    away from the destination or names a port with no neighbour.
    """

    injection: Dict[Any, State]
    moves: Dict[State, Optional[List[Move]]]


def routing_walk(
    topology: PortGraph, routing_fn: RoutingFunction, dst: Any
) -> RoutingWalk:
    """Ask ``routing_fn`` where a header bound for ``dst`` may go, from
    every injection point onward — the one question both static passes
    answer from.

    A port-aware function (``FaultAwareRouting``) is asked
    ``candidates_from`` with the arrival port, so its states are
    ``(node, arrival port)``; any other function is asked ``candidates``
    once per node.  Raises :class:`ValueError` for source routing, whose
    routes live in the packets rather than in a statically analyzable
    function, and for a port-aware function that routes over a one-way
    channel into a node it must then route out of: with no arrival port
    there, its next question cannot be asked.
    """
    if isinstance(routing_fn, SourceRouting):
        raise ValueError(
            "source routing has no static routing relation; its routes are "
            "a property of the packets, not of the network"
        )
    port_aware = bool(getattr(routing_fn, "port_aware", False))
    probe = Flit(-1, 0, FlitType.HEAD, -1, dst)
    start = Direction.LOCAL if port_aware else None
    injection = {src: (src, start) for src in topology.nodes() if src != dst}
    moves: Dict[State, Optional[List[Move]]] = {}
    frontier: List[State] = list(injection.values())
    seen: Set[State] = set(frontier)
    while frontier:
        state = frontier.pop()
        node, in_port = state
        if node == dst:
            moves[state] = []
            continue
        if port_aware:
            ports = routing_fn.candidates_from(  # type: ignore[attr-defined]
                topology, node, in_port, probe
            )
        else:
            ports = routing_fn.candidates(topology, node, probe)
        out: Optional[List[Move]] = []
        for port in ports:
            neighbor = (
                None if port is Direction.LOCAL
                else topology.neighbor(node, port)
            )
            if neighbor is None:
                out = None
                break
            arrival = None
            if port_aware:
                arrival = topology.arrival_port(node, port)
                if arrival is None and neighbor != dst:
                    raise ValueError(
                        "port-aware routing needs a reverse port for channel "
                        f"{Channel(node, neighbor, port).describe(topology)}; "
                        "one-way channels cannot carry an arrival-port "
                        "routing constraint"
                    )
            out.append((port, (neighbor, arrival)))
        moves[state] = out
        for _, nxt in out or ():
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return RoutingWalk(injection, moves)


def find_cycle(
    roots: Iterable[T], successors: Callable[[T], Iterable[T]]
) -> List[T]:
    """A cycle reachable from ``roots``, or ``[]`` — the witness of both
    static passes.

    Iterative DFS with the standard three-colour scheme, visiting roots and
    successors in the order given; on the first back edge the grey path is
    unwound into the witness ``[v0, v1, ..., vk]``, where each ``vi+1`` is
    a successor of ``vi`` and ``v0`` a successor of ``vk``.
    """
    GREY, BLACK = 1, 2
    colour: Dict[T, int] = {}
    for root in roots:
        if root in colour:
            continue
        colour[root] = GREY
        path: List[T] = [root]
        stack: List[Tuple[T, Iterator[T]]] = [(root, iter(successors(root)))]
        while stack:
            vertex, todo = stack[-1]
            for nxt in todo:
                if colour.get(nxt) == GREY:
                    return path[path.index(nxt):]
                if nxt not in colour:
                    colour[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                colour[vertex] = BLACK
                path.pop()
                stack.pop()
    return []


@dataclass
class ChannelDependencyGraph:
    """The CDG of a (topology, routing function) pair.

    Build with :meth:`build`; query with :meth:`find_cycle` or the edge
    accessors.  ``num_vcs`` is carried for reporting — see the module
    docstring for why it does not change the graph.
    """

    topology: PortGraph
    num_vcs: int = 1
    _edges: Dict[Channel, Set[Channel]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        topology: PortGraph,
        routing_fn: RoutingFunction,
        num_vcs: int = 1,
    ) -> "ChannelDependencyGraph":
        """Construct the CDG from the :func:`routing_walk` of every
        destination: a vertex per channel a reachable state moves over, an
        edge from the channel a packet arrived on to each channel it may
        request next.  A misrouting state requests nothing.

        Raises :class:`ValueError` where :func:`routing_walk` does.
        """
        graph = cls(topology, num_vcs)
        edges = graph._edges
        for dst in topology.nodes():
            moves = routing_walk(topology, routing_fn, dst).moves
            for (node, _), out in moves.items():
                for port, nxt in out or ():
                    requests = edges.setdefault(
                        Channel(node, nxt[0], port), set()
                    )
                    requests.update(
                        Channel(nxt[0], after[0], request)
                        for request, after in moves[nxt] or ()
                    )
        return graph

    # -- queries ------------------------------------------------------------

    @property
    def channels(self) -> List[Channel]:
        return sorted(self._edges)

    @property
    def num_channels(self) -> int:
        return len(self._edges)

    @property
    def num_dependencies(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def dependencies_of(self, channel: Channel) -> Set[Channel]:
        return set(self._edges.get(channel, ()))

    def has_edge(self, a: Channel, b: Channel) -> bool:
        return b in self._edges.get(a, ())

    def find_cycle(self) -> Optional[List[Channel]]:
        """A cycle of channels if one exists (the deadlock witness), else None.

        The returned list ``[c0, c1, ..., ck]`` satisfies ``edge(ci, ci+1)``
        for all i and ``edge(ck, c0)``.
        """
        edges = self._edges
        return find_cycle(self.channels, lambda c: sorted(edges[c])) or None

    def is_cycle(self, channels: List[Channel]) -> bool:
        """Whether ``channels`` is a genuine cycle in this graph."""
        if not channels:
            return False
        return all(
            self.has_edge(channels[i], channels[(i + 1) % len(channels)])
            for i in range(len(channels))
        )


@dataclass(frozen=True)
class CDGVerdict:
    """Machine-readable outcome of the deadlock-freedom check."""

    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    num_vcs: int
    witness: Tuple[Channel, ...] = ()
    witness_text: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "deadlock_free": self.deadlock_free,
            "num_channels": self.num_channels,
            "num_dependencies": self.num_dependencies,
            "num_vcs": self.num_vcs,
            "witness": list(self.witness_text),
        }


def verify_deadlock_freedom(
    topology: PortGraph,
    routing_fn: RoutingFunction,
    num_vcs: int = 1,
) -> CDGVerdict:
    """Build the CDG and return the acyclicity verdict with any witness."""
    graph = ChannelDependencyGraph.build(topology, routing_fn, num_vcs)
    cycle = graph.find_cycle() or []
    return CDGVerdict(
        deadlock_free=not cycle,
        num_channels=graph.num_channels,
        num_dependencies=graph.num_dependencies,
        num_vcs=num_vcs,
        witness=tuple(cycle),
        witness_text=tuple(c.describe(topology) for c in cycle),
    )
