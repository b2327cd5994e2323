"""repro — a reproduction of "Exploring Fault-Tolerant Network-on-Chip
Architectures" (Park, Nicopoulos, Kim, Vijaykrishnan, Das — DSN 2006).

A cycle-accurate simulator of an 8x8 mesh of 3-stage pipelined
virtual-channel wormhole routers, together with the paper's fault-tolerance
mechanisms: flit-based hop-by-hop retransmission with barrel-shift
retransmission buffers, retransmission-buffer-based deadlock recovery with
probe-based detection, the Allocation Comparator (AC) unit for VA/SA logic
errors, and per-module soft-error handling.

Quickstart — the :mod:`repro.api` facade is the stable entry point::

    from repro import api

    result = api.run(api.load_config(shape="4x4", messages=500))
    print(result.summary_lines())

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-figure reproductions.
"""

from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core import (
    AllocationComparator,
    DeadlockController,
    buffer_lower_bound,
    minimum_total_buffer,
    recovery_latency,
)
from repro.noc import (
    Flit,
    MeshTopology,
    Network,
    Packet,
    Router,
    SimulationResult,
    Simulator,
    TorusTopology,
)
from repro.analysis import (
    InvariantSanitizer,
    lint_config,
    verify_deadlock_freedom,
)
from repro.campaign import CampaignLintError, CampaignRow, grid, run_campaign
from repro.noc.simulator import run_simulation
from repro.power import AreaModel, EnergyModel
from repro.telemetry import TelemetryConfig, TelemetryReport
from repro import api
from repro.types import (
    Corruption,
    Direction,
    FaultSite,
    FlitType,
    LinkProtection,
    RoutingAlgorithm,
)

__version__ = "1.0.0"

__all__ = [
    "AllocationComparator",
    "CampaignLintError",
    "CampaignRow",
    "AreaModel",
    "InvariantSanitizer",
    "Corruption",
    "DeadlockController",
    "Direction",
    "EnergyModel",
    "FaultConfig",
    "FaultSite",
    "Flit",
    "FlitType",
    "LinkProtection",
    "MeshTopology",
    "Network",
    "NoCConfig",
    "Packet",
    "Router",
    "RoutingAlgorithm",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "TelemetryConfig",
    "TelemetryReport",
    "TorusTopology",
    "WorkloadConfig",
    "api",
    "buffer_lower_bound",
    "grid",
    "lint_config",
    "verify_deadlock_freedom",
    "minimum_total_buffer",
    "recovery_latency",
    "run_campaign",
    "run_simulation",
    "__version__",
]
