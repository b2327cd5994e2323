"""Mesh and torus topologies, and the generic node/port-graph surface.

The paper evaluates an 8x8 MESH (Section 2.2); the torus is provided as the
natural extension (the tornado traffic pattern of [19] originates there) and
for ablation studies.  Both generalize to N dimensions via ``shape=``:
``MeshTopology(shape=(4, 4, 4))`` is a 3D mesh whose vertical (TSV)
channels use the :attr:`~repro.types.Direction.UP`/``DOWN`` ports, and
:class:`Mesh3D`/:class:`Torus3D` are the ready-made 3D instantiations with
slower vertical links (docs/TOPOLOGY.md).

A topology answers purely structural questions: node-id/coordinate mapping,
which ports are connected, who the neighbor on a port is, and how many
cycles a hop through a port takes (:meth:`MeshTopology.link_latency`).  It
owns no simulation state.

The static-analysis layer (channel-dependency graphs, the routing
certification engine) does not need coordinates at all — only the
:class:`PortGraph` surface: nodes, per-node ports, the neighbor behind a
port, and the *arrival port* a channel lands on at its downstream node.
:class:`MeshTopology` satisfies it natively; :class:`GraphTopology` lifts
any irregular node/port graph (a chiplet hierarchy, a degraded mesh with
whole regions removed, a test fixture) onto the same surface so the
verifiers work unchanged on topologies the simulator does not ship yet.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.types import AXIS_DIRECTIONS, Coordinate, Direction

LatencySpec = Union[int, Sequence[int]]


@runtime_checkable
class PortGraph(Protocol):
    """The minimal structural surface static analysis routes over.

    Node ids and port labels may be anything hashable and mutually
    sortable (ints, strings, tuples); :class:`MeshTopology` uses ints and
    :class:`~repro.types.Direction`.  ``arrival_port`` must be consistent
    with ``neighbor``: for every channel ``(node, port)`` with a live
    reverse channel, ``neighbor(neighbor(node, port), arrival_port(node,
    port)) == node``.

    Implementations may additionally expose ``link_latency(node, port) ->
    int`` (cycles per hop through that port); consumers treat a missing
    method as uniform 1-cycle links.
    """

    @property
    def num_nodes(self) -> int: ...

    def nodes(self) -> Iterator[Any]: ...

    def connected_directions(self, node: Any) -> List[Any]: ...

    def neighbor(self, node: Any, port: Any) -> Optional[Any]: ...

    def arrival_port(self, node: Any, port: Any) -> Optional[Any]: ...


def _normalize_shape(
    width: Optional[int],
    height: Optional[int],
    shape: Optional[Sequence[int]],
) -> Tuple[int, ...]:
    if shape is not None:
        if width is not None or height is not None:
            raise ValueError("pass either shape= or width/height, not both")
        dims = tuple(int(d) for d in shape)
    else:
        if width is None or height is None:
            raise ValueError("a mesh needs width and height (or shape=)")
        dims = (int(width), int(height))
    if len(dims) not in (2, 3):
        raise ValueError(
            f"only 2D and 3D topologies are supported, got shape {dims}"
        )
    if any(d < 1 for d in dims):
        raise ValueError("mesh dimensions must be positive")
    return dims


def _normalize_latency(spec: LatencySpec, ndim: int) -> Tuple[int, ...]:
    if isinstance(spec, int):
        latencies: Tuple[int, ...] = (spec,) * ndim
    else:
        latencies = tuple(int(v) for v in spec)
        if len(latencies) != ndim:
            raise ValueError(
                f"link_latency needs one entry per axis ({ndim}), got "
                f"{len(latencies)}"
            )
    if any(v < 1 for v in latencies):
        raise ValueError("link latencies must be >= 1 cycle")
    return latencies


class MeshTopology:
    """A ``width`` x ``height`` (x ``depth``) mesh.

    Node ids are row-major with x fastest: ``node = x + width * (y +
    height * z)``; x grows EAST, y grows NORTH and z grows UP, matching
    :attr:`repro.types.Direction.delta`.  2D meshes keep the historical
    ``node = y * width + x`` mapping bit-for-bit.

    ``link_latency`` is cycles per hop, either uniform (int) or per axis
    (tuple) — the TSV model makes vertical hops slower than planar ones.
    """

    def __init__(
        self,
        width: Optional[int] = None,
        height: Optional[int] = None,
        *,
        shape: Optional[Sequence[int]] = None,
        link_latency: LatencySpec = 1,
    ):
        self.shape = _normalize_shape(width, height, shape)
        self.axis_latency = _normalize_latency(link_latency, self.ndim)
        dirs: Tuple[Direction, ...] = (
            Direction.NORTH,
            Direction.EAST,
            Direction.SOUTH,
            Direction.WEST,
        )
        if self.ndim == 3:
            dirs += (Direction.UP, Direction.DOWN)
        self._directions = dirs
        # neighbor(node, d) for every node and Direction, built once from
        # this class's own _wrap rule: table routing asks ~44k times per
        # rebuild of a 4x4x4 stack.
        rows: List[List[Optional[int]]] = [
            [None] * len(Direction) for _ in range(self.num_nodes)
        ]
        stride = 1
        for axis, extent in enumerate(self.shape):
            for direction in AXIS_DIRECTIONS[axis]:
                for node, row in enumerate(rows):
                    position = node // stride % extent
                    landed = self._wrap(position + direction.sign, extent)
                    if landed is not None:
                        row[direction] = node + (landed - position) * stride
            stride *= extent
        self._neighbors = tuple(tuple(row) for row in rows)

    def _wrap(self, position: int, extent: int) -> Optional[int]:
        """Where a hop to ``position`` on an axis of ``extent`` nodes lands:
        nowhere, past a mesh edge."""
        return position if 0 <= position < extent else None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def width(self) -> int:
        return self.shape[0]

    @property
    def height(self) -> int:
        return self.shape[1]

    @property
    def depth(self) -> int:
        """Extent of the z axis (1 for 2D meshes)."""
        return self.shape[2] if self.ndim > 2 else 1

    @property
    def num_nodes(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def num_ports(self) -> int:
        """Router ports: two per axis plus LOCAL (5 in 2D, 7 in 3D)."""
        return 2 * self.ndim + 1

    @property
    def directions(self) -> Tuple[Direction, ...]:
        """The inter-router directions this topology wires, in canonical
        (port-index) order."""
        return self._directions

    def coordinates_of(self, node: int) -> Coordinate:
        self._check_node(node)
        coords = []
        for extent in self.shape:
            coords.append(node % extent)
            node //= extent
        return Coordinate(*coords)

    def node_at(self, coord: Coordinate) -> int:
        if not self.contains(coord):
            raise ValueError(f"{tuple(coord)} outside {self!r}")
        node = 0
        for axis in reversed(range(self.ndim)):
            node = node * self.shape[axis] + coord[axis]
        return node

    def contains(self, coord: Sequence[int]) -> bool:
        if len(coord) > self.ndim and any(c != 0 for c in coord[self.ndim:]):
            return False
        return all(
            0 <= (coord[axis] if axis < len(coord) else 0) < self.shape[axis]
            for axis in range(self.ndim)
        )

    def neighbor(self, node: int, direction: Direction) -> Optional[int]:
        """Neighbor node on ``direction``, or None at a mesh edge.

        LOCAL has no neighbor router (it connects to the PE), and axes the
        topology does not have (UP/DOWN on a 2D mesh) have no neighbor.
        """
        table = self._neighbors
        if not 0 <= node < len(table):
            raise ValueError(f"node {node} outside 0..{len(table) - 1}")
        return table[node][direction]

    def connected_directions(self, node: int) -> List[Direction]:
        """Inter-router directions that have a link at ``node``."""
        return [d for d in self._directions if self.neighbor(node, d) is not None]

    def edge_directions(self, node: int) -> List[Direction]:
        """Directions that fall off the mesh at ``node`` (no link)."""
        return [d for d in self._directions if self.neighbor(node, d) is None]

    def arrival_port(self, node: int, direction: Direction) -> Optional[Direction]:
        """The port a flit sent from ``node`` via ``direction`` arrives on
        at the downstream router.  Mesh links come in bidirectional pairs,
        so this is simply the opposite direction (None off the edge)."""
        if direction is Direction.LOCAL or self.neighbor(node, direction) is None:
            return None
        return direction.opposite

    def link_latency(self, node: int, direction: Direction) -> int:
        """Cycles one flit spends traversing the ``(node, direction)``
        link (1 everywhere historically; vertical TSV hops may be slower)."""
        if direction is Direction.LOCAL:
            return 1
        return self.axis_latency[direction.axis]

    @property
    def max_link_latency(self) -> int:
        return max(self.axis_latency)

    def distance(self, a: int, b: int) -> int:
        """Minimal hop count between two nodes."""
        return self.coordinates_of(a).manhattan_distance(self.coordinates_of(b))

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def minimal_directions(self, src: int, dst: int) -> List[Direction]:
        """All directions that reduce the distance to ``dst`` from ``src``,
        in axis order (E/W, then N/S, then UP/DOWN)."""
        if src == dst:
            return []
        a = self.coordinates_of(src)
        b = self.coordinates_of(dst)
        dirs = []
        for axis in range(self.ndim):
            positive, negative = AXIS_DIRECTIONS[axis]
            if b[axis] > a[axis]:
                dirs.append(positive)
            elif b[axis] < a[axis]:
                dirs.append(negative)
        return dirs

    def average_minimal_hops(self) -> float:
        """Mean minimal distance over all ordered src != dst pairs.

        Used by experiments to sanity-check latency floors.
        """
        total = 0
        pairs = 0
        for a in self.nodes():
            for b in self.nodes():
                if a != b:
                    total += self.distance(a, b)
                    pairs += 1
        return total / pairs if pairs else 0.0

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside 0..{self.num_nodes - 1}")

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"{type(self).__name__}({dims})"


class TorusTopology(MeshTopology):
    """A torus: the mesh with wraparound links on every axis."""

    def _wrap(self, position: int, extent: int) -> Optional[int]:
        return position % extent

    def distance(self, a: int, b: int) -> int:
        ca, cb = self.coordinates_of(a), self.coordinates_of(b)
        total = 0
        for axis in range(self.ndim):
            d = abs(ca[axis] - cb[axis])
            total += min(d, self.shape[axis] - d)
        return total

    def minimal_directions(self, src: int, dst: int) -> List[Direction]:
        if src == dst:
            return []
        a = self.coordinates_of(src)
        b = self.coordinates_of(dst)
        dirs = []
        for axis in range(self.ndim):
            positive, negative = AXIS_DIRECTIONS[axis]
            d = (b[axis] - a[axis]) % self.shape[axis]
            if d:
                if d <= self.shape[axis] - d:
                    dirs.append(positive)
                if d >= self.shape[axis] - d:
                    dirs.append(negative)
        return dirs


#: Default per-axis hop latency of the shipped 3D topologies: planar links
#: stay 1-cycle, vertical TSV hops cost 2 (the ``--vlink-slowdown`` model).
DEFAULT_TSV_LATENCY: Tuple[int, int, int] = (1, 1, 2)


class Mesh3D(MeshTopology):
    """A ``width x height x depth`` 3D mesh with TSV vertical links."""

    def __init__(
        self,
        width: int,
        height: int,
        depth: int,
        *,
        link_latency: LatencySpec = DEFAULT_TSV_LATENCY,
    ):
        super().__init__(shape=(width, height, depth), link_latency=link_latency)


class Torus3D(TorusTopology):
    """A ``width x height x depth`` 3D torus with TSV vertical links."""

    def __init__(
        self,
        width: int,
        height: int,
        depth: int,
        *,
        link_latency: LatencySpec = DEFAULT_TSV_LATENCY,
    ):
        super().__init__(shape=(width, height, depth), link_latency=link_latency)


def make_topology(
    name: str,
    shape: Sequence[int],
    link_latency: LatencySpec = 1,
) -> MeshTopology:
    """Build the topology a config names (shared by the network, the
    linter and the certification engine so they can never disagree)."""
    if name in ("torus", "torus3d"):
        return TorusTopology(shape=shape, link_latency=link_latency)
    if name in ("mesh", "mesh3d"):
        return MeshTopology(shape=shape, link_latency=link_latency)
    raise ValueError(f"unknown topology {name!r}")


class GraphTopology:
    """An arbitrary node/port graph behind the :class:`PortGraph` surface.

    Built from an adjacency mapping ``{node: {port: neighbor}}``: each entry
    is one directed channel leaving ``node`` through the port labelled
    ``port``.  Node ids and port labels may be any hashable, mutually
    sortable values; nodes appearing only as neighbors are added with no
    outgoing channels.  This is what lets the CDG verifier and the routing
    certification engine analyze irregular topologies (express links,
    chiplet bridges, hand-built test graphs) without a coordinate system.
    """

    def __init__(self, adjacency: Mapping[Any, Mapping[Any, Any]]):
        self._ports: Dict[Any, Dict[Any, Any]] = {
            node: dict(ports) for node, ports in adjacency.items()
        }
        for ports in list(self._ports.values()):
            for neighbor in ports.values():
                self._ports.setdefault(neighbor, {})
        self._node_order = sorted(self._ports)
        # Arrival ports: for channel (u, p) -> v, the smallest port of v
        # that leads back to u (None for one-way channels).
        self._arrival: Dict[Any, Dict[Any, Any]] = {}
        for node, ports in self._ports.items():
            for port, neighbor in ports.items():
                back = sorted(
                    q
                    for q, target in self._ports[neighbor].items()
                    if target == node
                )
                self._arrival.setdefault(node, {})[port] = (
                    back[0] if back else None
                )
        #: source -> {reachable node -> hops}, filled one BFS per source.
        self._distance_cache: Dict[Any, Dict[Any, int]] = {}

    @property
    def num_nodes(self) -> int:
        return len(self._ports)

    def nodes(self) -> Iterator[Any]:
        return iter(self._node_order)

    def connected_directions(self, node: Any) -> List[Any]:
        return sorted(self._ports[node])

    def neighbor(self, node: Any, port: Any) -> Optional[Any]:
        return self._ports[node].get(port)

    def arrival_port(self, node: Any, port: Any) -> Optional[Any]:
        return self._arrival.get(node, {}).get(port)

    def link_latency(self, node: Any, port: Any) -> int:
        return 1

    def distance(self, a: Any, b: Any) -> int:
        """Minimal hop count ``a -> b`` over directed channels (-1 when
        unreachable).  Memoized: the first query from ``a`` runs one full
        BFS and caches every distance from ``a``, so table-routing
        construction over all pairs costs one BFS per source instead of
        one per query."""
        dist = self._distance_cache.get(a)
        if dist is None:
            dist = {a: 0}
            frontier = deque([a])
            while frontier:
                node = frontier.popleft()
                for port in self._ports[node]:
                    neighbor = self._ports[node][port]
                    if neighbor not in dist:
                        dist[neighbor] = dist[node] + 1
                        frontier.append(neighbor)
            self._distance_cache[a] = dist
        return dist.get(b, -1)

    def __repr__(self) -> str:
        num_channels = sum(len(p) for p in self._ports.values())
        return f"{type(self).__name__}({self.num_nodes} nodes, {num_channels} channels)"
