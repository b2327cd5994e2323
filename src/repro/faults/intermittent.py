"""Intermittent (bursty) faults and the wear-out escalation lifecycle.

The transient machinery in :mod:`repro.faults.injector` models memoryless
single-cycle upsets; :mod:`repro.faults.permanent` models scheduled hard
deaths.  Aging silicon sits between the two: a marginal wire or via strikes
in *bursts* — windows of cycles during which its error probability is
orders of magnitude above the background rate — and the stress of those
strikes (plus ordinary utilization) accumulates until the site fails hard.
This is the soft→hard progression of Ben Ahmed et al. (arXiv 2003.11018)
and the failure model FASHION-style self-healing assumes (arXiv
1702.02313).

Three pieces implement it:

* :class:`IntermittentFault` — one bursty link site: a Markov on/off
  process over the unidirectional link leaving ``node`` through
  ``direction``.  Window lengths are exponentially distributed with means
  ``mean_on``/``mean_off``; during an *on* window every flit traversal
  suffers corruption with probability ``rate``.
* :class:`WearOutConfig` — the escalation policy: per-site stress is
  ``strike_weight * strikes + traversal_weight * flit_traversals`` and a
  site whose stress reaches ``threshold`` is escalated into the existing
  permanent-fault machinery (same teardown, reroute and counters as a
  scheduled :class:`~repro.faults.permanent.PermanentFault` death at that
  cycle).
* :class:`IntermittentLifecycle` — the runtime state machine the
  :class:`~repro.noc.network.Network` owns: it advances every site's
  burst process *eagerly once per cycle* at the top of ``Network.step``
  (ahead of either cycle loop, exactly like scheduled permanent faults)
  and applies burst strikes at link-traversal time.

Determinism: each site draws from its **own** ``random.Random`` stream,
seeded by pure integer arithmetic from ``(FaultConfig.seed, node,
direction)`` — never ``hash()``, whose string salting varies per process.
The shared transient stream of :class:`~repro.faults.injector.FaultInjector`
is untouched, burst toggles depend only on the cycle counter, and strike
draws happen per flit traversal — identical on the polling and
activity-driven loops, which traverse the same flits at the same cycles.
All lifecycle state (per-site RNGs, on/off phase, next-toggle cycle,
stress tallies) lives on pickled objects, so checkpoint/resume is
bit-for-bit (docs/CHECKPOINTING.md).  The full argument is written out in
``docs/FAULTS.md``.

CLI spec grammar (mirroring the ``--dead-*`` parsers)::

    --intermittent-link 12:east:0.4:30:200        bursts from cycle 0
    --intermittent-link 12:east:0.4:30:200@500    process starts at cycle 500

i.e. ``NODE:DIR:RATE:ON:OFF[@CYCLE]`` with ``RATE`` the strike probability
inside on-windows and ``ON``/``OFF`` the mean window lengths in cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import Corruption, Direction

#: Multipliers for the per-site seed derivation.  Arbitrary odd constants
#: (Knuth/Murmur-style); what matters is that distinct (seed, node,
#: direction) triples map to distinct, platform-independent stream seeds
#: without ever calling the salted ``hash()``.
_SEED_MULT = 0x9E3779B1
_NODE_MULT = 0x85EBCA77
_DIR_MULT = 0xC2B2AE3D


def site_stream_seed(seed: int, node: int, direction: Direction) -> int:
    """The per-site RNG seed: pure integer arithmetic, no ``hash()``."""
    return (
        seed * _SEED_MULT + node * _NODE_MULT + int(direction) * _DIR_MULT + 1
    ) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class IntermittentFault:
    """One bursty link site.

    ``rate`` is the per-flit-traversal corruption probability while the
    site's burst process is in an *on* window (off windows are clean);
    ``mean_on``/``mean_off`` are the exponential means of the window
    lengths in cycles; ``start`` is the cycle the process begins (before
    it the site is clean and draws nothing).
    """

    node: int
    direction: Direction
    rate: float
    mean_on: float
    mean_off: float
    start: int = 0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"fault node must be non-negative, got {self.node}")
        if self.direction is Direction.LOCAL:
            raise ValueError(
                "local (NI) links do not suffer intermittent faults; "
                "use a mesh direction"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"intermittent strike rate must be in [0, 1], got {self.rate}"
            )
        if self.mean_on < 1.0 or self.mean_off < 1.0:
            raise ValueError(
                "burst window means must be >= 1 cycle "
                f"(got on={self.mean_on}, off={self.mean_off})"
            )

    @property
    def key(self) -> Tuple[int, Direction]:
        return (self.node, self.direction)

    def describe(self) -> str:
        return (
            f"intermittent {self.node}:{self.direction.name.lower()} "
            f"rate={self.rate} on~{self.mean_on} off~{self.mean_off}"
            f"@{self.start}"
        )


@dataclass(frozen=True)
class IntermittentFaultSchedule:
    """An immutable set of :class:`IntermittentFault` sites for one run."""

    faults: Tuple[IntermittentFault, ...] = field(default_factory=tuple)

    @classmethod
    def empty(cls) -> "IntermittentFaultSchedule":
        return cls(faults=())

    @classmethod
    def of(cls, *faults: IntermittentFault) -> "IntermittentFaultSchedule":
        return cls(faults=tuple(faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    # -- serialization -----------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for f in self.faults:
            entry: Dict[str, object] = {
                "node": f.node,
                "direction": f.direction.name.lower(),
                "rate": f.rate,
                "mean_on": f.mean_on,
                "mean_off": f.mean_off,
            }
            if f.start:
                entry["start"] = f.start
            out.append(entry)
        return out

    @classmethod
    def from_dicts(
        cls, entries: Sequence[Dict[str, object]]
    ) -> "IntermittentFaultSchedule":
        faults = []
        for entry in entries:
            faults.append(
                IntermittentFault(
                    node=int(entry["node"]),  # type: ignore[arg-type]
                    direction=Direction[str(entry["direction"]).upper()],
                    rate=float(entry["rate"]),  # type: ignore[arg-type]
                    mean_on=float(entry["mean_on"]),  # type: ignore[arg-type]
                    mean_off=float(entry["mean_off"]),  # type: ignore[arg-type]
                    start=int(entry.get("start", 0)),  # type: ignore[arg-type]
                )
            )
        return cls(faults=tuple(faults))


@dataclass(frozen=True)
class WearOutConfig:
    """The soft→hard escalation policy.

    A site's stress is ``strike_weight * strikes + traversal_weight *
    flit_traversals`` (strikes from its burst process, traversals from the
    link's existing utilization gauge).  When stress reaches ``threshold``
    the site escalates into a permanent link death at the current cycle —
    the same teardown, reroute recomputation and counters as a scheduled
    :class:`~repro.faults.permanent.PermanentFault`.
    """

    threshold: float
    strike_weight: float = 1.0
    traversal_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"wear-out threshold must be positive, got {self.threshold}")
        if self.strike_weight < 0 or self.traversal_weight < 0:
            raise ValueError("wear-out weights must be non-negative")
        if self.strike_weight == 0 and self.traversal_weight == 0:
            raise ValueError(
                "wear-out needs at least one positive weight, or no site "
                "could ever accumulate stress"
            )

    def to_dict(self) -> Dict[str, float]:
        return {
            "threshold": self.threshold,
            "strike_weight": self.strike_weight,
            "traversal_weight": self.traversal_weight,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, float]]) -> Optional["WearOutConfig"]:
        if data is None:
            return None
        return cls(
            threshold=float(data["threshold"]),
            strike_weight=float(data.get("strike_weight", 1.0)),
            traversal_weight=float(data.get("traversal_weight", 0.0)),
        )


class _SiteState:
    """Runtime burst/wear state of one intermittent site (pickles whole)."""

    __slots__ = ("fault", "rng", "on", "next_toggle", "strikes", "escalated")

    def __init__(self, fault: IntermittentFault, seed: int):
        self.fault = fault
        self.rng = random.Random(site_stream_seed(seed, fault.node, fault.direction))
        self.on = False
        #: Cycle of the next phase flip; the process starts its first *off*
        #: window at ``fault.start`` (the site is clean before that, too).
        self.next_toggle = fault.start + self._window(fault.mean_off)
        self.strikes = 0
        self.escalated = False

    # ``__slots__`` classes pickle via __getstate__/__setstate__ pairs.
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)

    def _window(self, mean: float) -> int:
        """One exponentially distributed window length, >= 1 cycle."""
        return 1 + int(self.rng.expovariate(1.0 / mean))

    def advance(self, cycle: int) -> Optional[bool]:
        """Advance the burst process to ``cycle``.

        Returns the new phase (True = burst opened, False = burst closed)
        when a toggle lands on this cycle, else None.  At most one toggle
        per cycle is reported (windows are >= 1 cycle long).
        """
        if self.escalated or cycle < self.next_toggle:
            return None
        self.on = not self.on
        mean = self.fault.mean_on if self.on else self.fault.mean_off
        self.next_toggle = cycle + self._window(mean)
        return self.on


class IntermittentLifecycle:
    """The network-owned burst/wear state machine for every configured site.

    Wiring (done by ``Network.__init__``): ``stats`` and ``telemetry``
    are attached after construction.  :meth:`advance` returns the sites
    that wore out this cycle, and the network applies each escalation
    through its permanent-fault teardown.  All mutable state pickles with
    the network, so checkpoint/resume replays the lifecycle bit-for-bit.
    """

    def __init__(
        self,
        schedule: IntermittentFaultSchedule,
        wear_out: Optional[WearOutConfig],
        seed: int,
    ):
        self.wear_out = wear_out
        self._sites: List[_SiteState] = [
            _SiteState(fault, seed) for fault in schedule
        ]
        self._by_key: Dict[Tuple[int, Direction], _SiteState] = {
            site.fault.key: site for site in self._sites
        }
        if len(self._by_key) != len(self._sites):
            raise ValueError(
                "intermittent schedule names the same link site twice"
            )
        #: Per-site links for the wear-out utilization term; wired by the
        #: network (same Link objects its link map holds, so the references
        #: pickle as one shared object graph).
        self.links: Dict[Tuple[int, Direction], object] = {}
        self.stats = None
        self.telemetry = None

    def __bool__(self) -> bool:
        return bool(self._sites)

    @property
    def sites(self) -> List[_SiteState]:
        return list(self._sites)

    def site(self, node: int, direction: Direction) -> Optional[_SiteState]:
        return self._by_key.get((node, direction))

    # -- per-cycle advance (called at the top of Network.step) -------------

    def advance(self, cycle: int) -> List[_SiteState]:
        """Advance every burst process by one cycle and evaluate wear-out.

        Publishes burst_start/burst_end telemetry at the true toggle cycle
        and returns the sites whose stress crossed the escalation
        threshold this cycle (the network tears them down).
        """
        due: List[_SiteState] = []
        wear = self.wear_out
        stats = self.stats
        telemetry = self.telemetry
        for site in self._sites:
            if site.escalated:
                continue
            toggled = site.advance(cycle)
            if toggled is not None:
                fault = site.fault
                if toggled:
                    if stats is not None:
                        stats.count("intermittent_bursts_started")
                    kind = "burst_start"
                else:
                    kind = "burst_end"
                if telemetry is not None:
                    telemetry.publish(
                        cycle,
                        kind,
                        fault.node,
                        direction=fault.direction.name.lower(),
                        rate=fault.rate,
                    )
            if wear is not None and self.stress(site) >= wear.threshold:
                due.append(site)
        return due

    def stress(self, site: _SiteState) -> float:
        """Accumulated wear of one site under the configured weights."""
        wear = self.wear_out
        if wear is None:
            return 0.0
        stress = wear.strike_weight * site.strikes
        if wear.traversal_weight:
            link = self.links.get(site.fault.key)
            if link is not None:
                stress += wear.traversal_weight * link.flit_traversals
        return stress

    # -- per-traversal strike (called from FaultInjector.link_upset) --------

    def strike(
        self, cycle: int, node: int, direction: Direction, multi_fraction: float
    ) -> Optional[Corruption]:
        """Corruption from the site's burst process for one traversal.

        Draws from the site's private stream only while its burst is *on*,
        so off-window traffic (and every non-intermittent link) costs one
        dict probe and nothing else.
        """
        site = self._by_key.get((node, direction))
        if site is None or not site.on or site.escalated:
            return None
        rng = site.rng
        if rng.random() >= site.fault.rate:
            return None
        site.strikes += 1
        severity = (
            Corruption.MULTI
            if rng.random() < multi_fraction
            else Corruption.SINGLE
        )
        if self.stats is not None:
            self.stats.count("intermittent_strikes")
        if self.telemetry is not None:
            self.telemetry.publish(
                cycle,
                "transient_fault",
                node,
                site="link",
                severity=severity.name.lower(),
                burst=True,
            )
        return severity


# -- CLI spec parsing ------------------------------------------------------


def parse_intermittent_spec(spec: str) -> IntermittentFault:
    """``NODE:DIR:RATE:ON:OFF[@CYCLE]`` -> intermittent link fault."""
    from repro.faults.permanent import _parse_direction, _split_cycle

    body, start = _split_cycle(spec)
    parts = body.split(":")
    if len(parts) != 5:
        raise ValueError(
            f"bad intermittent spec {spec!r}; expected "
            "NODE:DIR:RATE:ON:OFF[@CYCLE]"
        )
    try:
        rate = float(parts[2])
        mean_on = float(parts[3])
        mean_off = float(parts[4])
    except ValueError:
        raise ValueError(
            f"bad numeric field in intermittent spec {spec!r}"
        ) from None
    return IntermittentFault(
        node=int(parts[0]),
        direction=_parse_direction(parts[1], spec),
        rate=rate,
        mean_on=mean_on,
        mean_off=mean_off,
        start=start,
    )
