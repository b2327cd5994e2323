"""The telemetry event bus and per-component time-series sampler.

One :class:`TelemetryBus` serves a whole network.  Components *publish*
structured events at the sites where the corresponding state change happens
(a NACK sent, a flit replayed, a probe launched, a permanent fault struck);
the network calls :meth:`TelemetryBus.on_cycle_end` once per cycle, and
every ``metrics_interval`` cycles the bus samples per-component gauges into
bounded ring buffers.

Determinism: the bus draws no randomness and publishes only from state
changes that are themselves bit-for-bit identical between the two cycle
loops (see ``docs/PERFORMANCE.md``), so with telemetry enabled the
activity-driven and full loops produce *identical* event streams and
samples — ``tests/noc/test_fast_path_equivalence.py`` enforces this.

When telemetry is disabled no bus exists at all (``Network.telemetry is
None``); every publish site is guarded by a single ``is not None`` check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Tuple

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.report import TelemetryReport

#: Every event kind the simulator publishes.  ``tools/validate_telemetry.py``
#: and the NDJSON validator reject lines naming anything else, so additions
#: here must ride with a docs/OBSERVABILITY.md taxonomy entry.
EVENT_KINDS = frozenset(
    {
        "flit_drop",  # receiver discarded a flit (reason in data)
        "flit_replay",  # NACK rollback queued flits for retransmission
        "nack",  # receiver sent a NACK (kind: link|route)
        "retransmission_giveup",  # corrupt flit accepted after max retries
        "vc_alloc_fail",  # VA requesters left without a grant this cycle
        "probe_launch",  # Rule-1 deadlock probe sent
        "probe_return",  # own probe returned (deadlock: true|false)
        "deadlock_recovery",  # a router entered recovery mode
        "permanent_fault",  # a scheduled hard fault took effect
        "reroute",  # fault-aware routing tables rebuilt
        "transient_fault",  # the injector landed an upset (site in data)
        "burst_start",  # an intermittent site's on-window opened
        "burst_end",  # an intermittent site's on-window closed
        "wear_out_escalation",  # accumulated stress turned a site hard-dead
        "packet_lost",  # a packet reached a terminal loss
        "trace_sighting",  # PacketTracer observation (opt-in, very chatty)
        "sanitizer_violation",  # SIM1xx invariant check failed
    }
)

#: Metrics the sampler emits, with their component-key shape.
SERIES_METRICS = {
    "link_utilization": "link",  # component "<src>:<dir>", flits/cycle
    "vc_occupancy": "router",  # component "<node>", buffered flits
    "retx_pressure": "router",  # component "<node>", occupied/capacity
    "injection_rate": "ni",  # component "<node>", flits/cycle
    "ejection_rate": "ni",  # component "<node>", flits/cycle
    "in_flight_flits": "global",  # component "global"
    "delivered_packets": "global",
    "lost_packets": "global",
    "ctr_flits_retransmitted": "global",  # cumulative stats counter
    "ctr_flits_dropped": "global",
}


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured event on the shared simulation timeline."""

    cycle: int
    kind: str
    node: int = -1
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "type": "event",
            "cycle": self.cycle,
            "kind": self.kind,
            "node": self.node,
        }
        if self.data:
            out["data"] = self.data
        return out


class _NetworkSampler:
    """Snapshots per-component gauges; pure reads, no state changes.

    Holds the network's mesh links but not the network, which the bus
    hands to :meth:`sample` at each call."""

    def __init__(self, network: Any):
        self._mesh_links = [
            link for link in network.links if not link.is_local
        ]
        self._last_traversals = [0] * len(self._mesh_links)
        n = network.topology.num_nodes
        self._last_sent = [0] * n
        self._last_ejected = [0] * n

    def sample(self, net: Any, record, cycle: int, interval: float) -> None:
        """Append one sample per series of ``net``; ``record(metric,
        component, cycle, value)`` is the bus's ring-buffer writer."""
        for i, link in enumerate(self._mesh_links):
            total = link.flit_traversals
            record(
                "link_utilization",
                link.telemetry_id,
                cycle,
                (total - self._last_traversals[i]) / interval,
            )
            self._last_traversals[i] = total
        for router in net.routers:
            node = str(router.node)
            record("vc_occupancy", node, cycle, float(router.buffered_flits))
            capacity = router.retx_capacity
            pressure = router.retx_occupancy / capacity if capacity else 0.0
            record("retx_pressure", node, cycle, pressure)
        for ni in net.interfaces:
            node = str(ni.node)
            sent = ni.flits_sent
            record(
                "injection_rate",
                node,
                cycle,
                (sent - self._last_sent[ni.node]) / interval,
            )
            self._last_sent[ni.node] = sent
            ejected = ni.flits_ejected
            record(
                "ejection_rate",
                node,
                cycle,
                (ejected - self._last_ejected[ni.node]) / interval,
            )
            self._last_ejected[ni.node] = ejected


class TelemetryBus:
    """Collects events and sampled series for one simulation run."""

    def __init__(self, config: TelemetryConfig):
        self.config = config
        self.events: List[TelemetryEvent] = []
        self.dropped_events = 0
        #: Last-K-events ring for forensics; always on, even past the
        #: ``max_events`` cap, so the *end* of a pathological run is kept.
        self.flight: Deque[TelemetryEvent] = deque(
            maxlen=config.flight_recorder_depth
        )
        #: Flight-recorder snapshots taken when a deadlock was detected
        #: (bounded; the first few deadlocks are the interesting ones).
        self.deadlock_snapshots: List[Tuple[int, List[TelemetryEvent]]] = []
        self._max_snapshots = 4
        self._series: Dict[Tuple[str, str], Deque[Tuple[int, float]]] = {}
        self._series_capacity = config.series_capacity
        self._events_on = config.events
        self._series_on = config.series
        self._interval = config.metrics_interval
        self._sampler: Any = None

    # -- publishing ---------------------------------------------------------

    def publish(self, cycle: int, kind: str, node: int = -1, /, **data: Any) -> None:
        """Record one event.  ``data`` values must be JSON-safe scalars.

        The first three parameters are positional-only so that ``data`` may
        itself carry keys named ``kind`` or ``node`` (e.g. a NACK's
        ``kind="link"``)."""
        if not self._events_on:
            return
        event = TelemetryEvent(cycle, kind, node, data)
        self.flight.append(event)
        if len(self.events) < self.config.max_events:
            self.events.append(event)
        else:
            self.dropped_events += 1
        if (
            kind == "probe_return"
            and data.get("deadlock")
            and len(self.deadlock_snapshots) < self._max_snapshots
        ):
            self.deadlock_snapshots.append((cycle, list(self.flight)))

    def flight_dicts(self) -> List[Dict[str, Any]]:
        """The flight recorder's current contents, JSON-safe (oldest first)."""
        return [event.to_dict() for event in self.flight]

    # -- sampling -----------------------------------------------------------

    def attach(self, network: Any) -> None:
        """Bind the sampler to a fully wired network (called once by
        ``Network.__init__`` after links and interfaces exist).

        A network carrying a batched kernel gets the kernel's own sampler,
        which reads the flat arrays but emits byte-identical series
        (``repro.noc.kernel.KernelSampler``)."""
        if self._series_on:
            kernel = getattr(network, "kernel", None)
            if kernel is not None:
                self._sampler = kernel.make_sampler(network.topology)
            else:
                self._sampler = _NetworkSampler(network)

    def on_cycle_end(self, network: Any) -> None:
        """Called by both cycle loops at the end of every cycle (before the
        cycle counter increments)."""
        sampler = self._sampler
        if sampler is None:
            return
        cycle = network.cycle + 1
        if cycle % self._interval == 0:
            record = self._record
            sampler.sample(network, record, cycle, float(self._interval))
            # The global series, after either sampler's per-component ones.
            record("in_flight_flits", "global", cycle, float(network.in_flight_flits))
            record("delivered_packets", "global", cycle, float(network.delivered))
            record("lost_packets", "global", cycle, float(network.lost))
            counters = network.stats.snapshot(("flits_retransmitted", "flits_dropped"))
            for name, value in counters.items():
                record(f"ctr_{name}", "global", cycle, float(value))

    def _record(self, metric: str, component: str, cycle: int, value: float) -> None:
        key = (metric, component)
        ring = self._series.get(key)
        if ring is None:
            ring = deque(maxlen=self._series_capacity)
            self._series[key] = ring
        ring.append((cycle, value))

    # -- reporting ----------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return sum(len(ring) for ring in self._series.values())

    def build_report(self, network: Any) -> TelemetryReport:
        """Freeze the collected telemetry into a :class:`TelemetryReport`."""
        return TelemetryReport(
            shape=tuple(network.topology.shape),
            metrics_interval=self._interval,
            events=list(self.events),
            dropped_events=self.dropped_events,
            series={key: list(ring) for key, ring in self._series.items()},
            flight_record=list(self.flight),
            deadlock_snapshots=[
                (cycle, list(events)) for cycle, events in self.deadlock_snapshots
            ],
        )
