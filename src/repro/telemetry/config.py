"""Telemetry configuration.

Kept free of any :mod:`repro.config` import: ``SimulationConfig`` embeds a
:class:`TelemetryConfig`, so this module must sit below it in the import
graph (the same arrangement :mod:`repro.faults.permanent` uses for
``FaultConfig.permanent``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class TelemetryConfig:
    """Whether the telemetry layer records, and how often it samples.

    What it records is fixed: every event and every series, within the
    memory caps of :mod:`repro.telemetry.bus` (``SERIES_CAPACITY``,
    ``MAX_EVENTS``, ``FLIGHT_RECORDER_DEPTH``).

    Parameters
    ----------
    enabled:
        Master switch.  When False the network carries no bus at all
        (``Network.telemetry is None``) and no callback fires anywhere —
        the zero-cost-when-disabled guarantee the benchmark floors rely on.
    metrics_interval:
        Cycles between time-series samples.  Every ``metrics_interval``-th
        cycle the bus walks the network once and appends one sample per
        (metric, component) series.
    """

    enabled: bool = False
    metrics_interval: int = 100

    def __post_init__(self) -> None:
        if self.metrics_interval < 1:
            raise ValueError("metrics_interval must be at least one cycle")

    def replace(self, **changes: object) -> "TelemetryConfig":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "TelemetryConfig":
        """Inverse of :meth:`to_dict`; ``None``/missing keys take defaults
        so configs serialized before the telemetry layer still load."""
        if not data:
            return cls()
        return cls(
            enabled=data.get("enabled", False),
            metrics_interval=data.get("metrics_interval", 100),
        )
