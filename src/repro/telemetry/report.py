"""The frozen outcome of a telemetry-enabled run.

A :class:`TelemetryReport` is what a :class:`~repro.telemetry.bus.TelemetryBus`
hands to :class:`~repro.noc.simulator.SimulationResult` when the run ends:
the retained event list, every sampled (metric, component) series, the
flight-recorder tail and any deadlock snapshots — plus the accessors the
report/chart layer consumes (per-node heatmaps, series extraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.bus import TelemetryEvent


@dataclass
class TelemetryReport:
    """Events + time-series collected over one run (see module docstring)."""

    #: Mesh extents per axis, x first.
    shape: Tuple[int, ...]
    metrics_interval: int
    events: List["TelemetryEvent"] = field(default_factory=list)
    dropped_events: int = 0
    #: ``(metric, component) -> [(cycle, value), ...]`` (cycle-ordered).
    series: Dict[Tuple[str, str], List[Tuple[int, float]]] = field(
        default_factory=dict
    )
    flight_record: List["TelemetryEvent"] = field(default_factory=list)
    deadlock_snapshots: List[Tuple[int, List["TelemetryEvent"]]] = field(
        default_factory=list
    )

    @property
    def width(self) -> int:
        return self.shape[0]

    @property
    def height(self) -> int:
        return self.shape[1]

    @property
    def depth(self) -> int:
        """Number of z layers (1 for 2D reports)."""
        return self.shape[2] if len(self.shape) > 2 else 1

    # -- events -------------------------------------------------------------

    def events_of(self, kind: str) -> List["TelemetryEvent"]:
        return [event for event in self.events if event.kind == kind]

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- series -------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return sum(len(points) for points in self.series.values())

    def series_keys(self) -> List[Tuple[str, str]]:
        return sorted(self.series)

    def metrics(self) -> List[str]:
        return sorted({metric for metric, _ in self.series})

    def components(self, metric: str) -> List[str]:
        return sorted(
            component for m, component in self.series if m == metric
        )

    def get_series(self, metric: str, component: str = "global") -> List[Tuple[int, float]]:
        return list(self.series.get((metric, component), []))

    def last(self, metric: str, component: str = "global") -> float:
        points = self.series.get((metric, component))
        return points[-1][1] if points else 0.0

    # -- heatmaps -----------------------------------------------------------

    def heatmap(
        self, metric: str, reduce: str = "mean", layer: int = 0
    ) -> List[List[float]]:
        """Reduce a metric to one value per node, as a height x width grid.

        Component keys are ``"<node>"`` or ``"<node>:<dir>"``; link metrics
        therefore aggregate over a node's outgoing links.  ``reduce`` picks
        the per-series reduction: ``"mean"``, ``"max"`` or ``"last"``.
        On 3D meshes ``layer`` selects the z slice to render (each call
        returns one height x width layer).
        """
        if reduce not in ("mean", "max", "last"):
            raise ValueError(f"unknown reduction {reduce!r}")
        if not 0 <= layer < self.depth:
            raise ValueError(
                f"layer {layer} outside the {self.depth}-layer mesh"
            )
        per_node: Dict[int, List[float]] = {}
        for (m, component), points in self.series.items():
            if m != metric or not points:
                continue
            head = component.split(":", 1)[0]
            if not head.isdigit():
                continue  # global series have no node placement
            values = [value for _, value in points]
            if reduce == "mean":
                reduced = sum(values) / len(values)
            elif reduce == "max":
                reduced = max(values)
            else:
                reduced = values[-1]
            per_node.setdefault(int(head), []).append(reduced)
        grid = [[0.0] * self.width for _ in range(self.height)]
        for node, values in per_node.items():
            rest, col = divmod(node, self.width)
            z, row = divmod(rest, self.height)
            if z == layer and 0 <= row < self.height:
                grid[row][col] = sum(values) / len(values)
        return grid

    # -- summary ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Headline counts for envelopes and NDJSON headers."""
        return {
            "events": len(self.events),
            "dropped_events": self.dropped_events,
            "samples": self.num_samples,
            "series": len(self.series),
            "metrics_interval": self.metrics_interval,
            "event_counts": self.event_counts(),
            "deadlock_snapshots": len(self.deadlock_snapshots),
        }
