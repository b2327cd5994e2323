"""Permanent (hard) fault lifecycle.

The transient machinery in :mod:`repro.faults.injector` models single-cycle
upsets — every fault is gone the cycle after it strikes.  This module adds
the complementary *hard*-fault story: links, routers, and individual VC
buffers that die at a given cycle (or are dead from cycle 0) and stay dead
for the rest of the run.  FASHION-style self-healing (Ren et al.) and the
degraded-mesh routing protocols of Stroobant et al. both assume exactly
this failure model.

A :class:`PermanentFaultSchedule` is carried by ``FaultConfig.permanent``
and consumed by ``Network``, which applies each fault at the top of the
scheduled cycle (identically in the polling and activity-driven loops) and
triggers a routing reconfiguration — see ``Network._apply_due_faults``.

The schedule is plain data: frozen, hashable, order-independent, and
serializable to/from the JSON config format (``to_dicts``/``from_dicts``)
as well as the compact CLI specs (``parse_link_spec`` & friends)::

    --dead-link 12:east        link 12 -> east neighbour, dead from cycle 0
    --dead-link 12:east@500    ... dies at cycle 500
    --dead-router 27           router 27 and all its links
    --dead-vc 3:north:1@250    input VC 1 of node 3's north port
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.types import Direction

_KINDS = ("link", "router", "vc")


@dataclass(frozen=True)
class PermanentFault:
    """One component death.

    ``kind`` selects the component class:

    * ``"link"`` — the unidirectional link leaving ``node`` through
      ``direction`` (flits in flight on it are dropped and counted);
    * ``"router"`` — the whole router at ``node``, including every link
      touching it and its network interface;
    * ``"vc"`` — a single input VC buffer: VC index ``vc`` of the port
      facing ``direction`` at ``node``'s *downstream* neighbour (i.e. the
      buffer fed by the link leaving ``node`` through ``direction``).

    ``cycle`` is when the component dies; ``cycle <= 0`` means dead from
    the start of the run (before any flit moves).
    """

    kind: str
    node: int
    direction: Optional[Direction] = None
    vc: Optional[int] = None
    cycle: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown permanent fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.node < 0:
            raise ValueError(f"fault node must be non-negative, got {self.node}")
        if self.kind in ("link", "vc"):
            if self.direction is None:
                raise ValueError(f"{self.kind} fault requires a direction")
            if self.direction is Direction.LOCAL:
                raise ValueError(
                    "local (NI) links cannot be killed; kill the router instead"
                )
        if self.kind == "vc":
            if self.vc is None or self.vc < 0:
                raise ValueError("vc fault requires a non-negative vc index")

    def describe(self) -> str:
        if self.kind == "link":
            assert self.direction is not None
            return f"link {self.node}:{self.direction.name.lower()}@{self.cycle}"
        if self.kind == "router":
            return f"router {self.node}@{self.cycle}"
        assert self.direction is not None
        return (
            f"vc {self.node}:{self.direction.name.lower()}:{self.vc}@{self.cycle}"
        )


@dataclass(frozen=True)
class PermanentFaultSchedule:
    """An immutable set of :class:`PermanentFault` deaths for one run."""

    faults: Tuple[PermanentFault, ...] = field(default_factory=tuple)

    @classmethod
    def empty(cls) -> "PermanentFaultSchedule":
        return cls(faults=())

    @classmethod
    def of(cls, *faults: PermanentFault) -> "PermanentFaultSchedule":
        return cls(faults=tuple(faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def sorted_by_cycle(self) -> List[PermanentFault]:
        """Stable application order: by cycle, then spec order."""
        return sorted(self.faults, key=lambda f: max(f.cycle, 0))

    def dead_components(
        self, num_vcs: int, through_cycle: Optional[int] = None
    ) -> Tuple[Set[Tuple[int, Direction]], Set[int]]:
        """``(dead_links, dead_routers)`` once every fault due by
        ``through_cycle`` has struck (None: the whole schedule; 0: the
        dead-on-arrival part, ``cycle <= 0``).

        A link is dead when a link fault names it or VC faults name every
        one of its ``num_vcs`` channels: without a living VC the channel
        carries nothing, so the runtime tears the link down with its last
        VC (``Network._kill_vc``) and the tables must route around it.
        """
        dead_links: Set[Tuple[int, Direction]] = set()
        dead_routers: Set[int] = set()
        dead_vcs: Dict[Tuple[int, Direction], Set[int]] = {}
        for f in self.faults:
            if through_cycle is not None and f.cycle > through_cycle:
                continue
            if f.kind == "router":
                dead_routers.add(f.node)
            elif f.direction is not None:  # link and vc faults carry one
                if f.kind == "link":
                    dead_links.add((f.node, f.direction))
                elif f.vc is not None:
                    dead_vcs.setdefault((f.node, f.direction), set()).add(f.vc)
        dead_links.update(
            link for link, vcs in dead_vcs.items() if len(vcs) >= num_vcs
        )
        return dead_links, dead_routers

    # -- serialization -----------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for f in self.faults:
            entry: Dict[str, object] = {"kind": f.kind, "node": f.node}
            if f.direction is not None:
                entry["direction"] = f.direction.name.lower()
            if f.vc is not None:
                entry["vc"] = f.vc
            if f.cycle:
                entry["cycle"] = f.cycle
            out.append(entry)
        return out

    @classmethod
    def from_dicts(
        cls, entries: Sequence[Dict[str, object]]
    ) -> "PermanentFaultSchedule":
        faults = []
        for entry in entries:
            direction = entry.get("direction")
            faults.append(
                PermanentFault(
                    kind=str(entry["kind"]),
                    node=int(entry["node"]),  # type: ignore[arg-type]
                    direction=(
                        Direction[str(direction).upper()]
                        if direction is not None
                        else None
                    ),
                    vc=(int(entry["vc"]) if "vc" in entry else None),  # type: ignore[arg-type]
                    cycle=int(entry.get("cycle", 0)),  # type: ignore[arg-type]
                )
            )
        return cls(faults=tuple(faults))


# -- CLI spec parsing ------------------------------------------------------


def _split_cycle(spec: str) -> Tuple[str, int]:
    if "@" in spec:
        body, _, cyc = spec.rpartition("@")
        try:
            return body, int(cyc)
        except ValueError:
            raise ValueError(f"bad cycle in fault spec {spec!r}") from None
    return spec, 0


def _parse_direction(name: str, spec: str) -> Direction:
    try:
        return Direction[name.upper()]
    except KeyError:
        raise ValueError(
            f"bad direction {name!r} in fault spec {spec!r}; "
            "expected north/east/south/west (or up/down on 3D platforms)"
        ) from None


def parse_link_spec(spec: str) -> PermanentFault:
    """``NODE:DIR[@CYCLE]`` -> link fault."""
    body, cycle = _split_cycle(spec)
    parts = body.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad link spec {spec!r}; expected NODE:DIR[@CYCLE]")
    return PermanentFault(
        kind="link",
        node=int(parts[0]),
        direction=_parse_direction(parts[1], spec),
        cycle=cycle,
    )


def parse_router_spec(spec: str) -> PermanentFault:
    """``NODE[@CYCLE]`` -> router fault."""
    body, cycle = _split_cycle(spec)
    return PermanentFault(kind="router", node=int(body), cycle=cycle)


def parse_vc_spec(spec: str) -> PermanentFault:
    """``NODE:DIR:VC[@CYCLE]`` -> input-VC fault."""
    body, cycle = _split_cycle(spec)
    parts = body.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad vc spec {spec!r}; expected NODE:DIR:VC[@CYCLE]")
    return PermanentFault(
        kind="vc",
        node=int(parts[0]),
        direction=_parse_direction(parts[1], spec),
        vc=int(parts[2]),
        cycle=cycle,
    )
