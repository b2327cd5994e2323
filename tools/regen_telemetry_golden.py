#!/usr/bin/env python
"""Regenerate ``tests/telemetry/golden_run.ndjson``.

The golden file pins the NDJSON export of one seeded scenario byte for
byte: schema drift, event reordering, or a publish site gaining or losing
a firing all show up as a diff.  ``tests/telemetry/test_export_golden.py``
imports :func:`golden_config` from here so the committed file and the test
can never disagree about the scenario.

Run after an *intentional* schema or event-taxonomy change::

    python tools/regen_telemetry_golden.py

then commit the updated golden file together with the change that moved it.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

GOLDEN_PATH = REPO_ROOT / "tests" / "telemetry" / "golden_run.ndjson"


def golden_config():
    """The pinned scenario: 4x4 mesh, link faults, telemetry every 50 cycles."""
    from repro.config import (
        FaultConfig,
        NoCConfig,
        SimulationConfig,
        WorkloadConfig,
    )
    from repro.telemetry import TelemetryConfig

    return SimulationConfig(
        noc=NoCConfig(shape=(4, 4)),
        faults=FaultConfig.link_only(0.02, seed=7),
        workload=WorkloadConfig(
            injection_rate=0.1,
            num_messages=120,
            warmup_messages=20,
            max_cycles=50_000,
        ),
        telemetry=TelemetryConfig(enabled=True, metrics_interval=50),
    )


def golden_lines():
    """The NDJSON lines the pinned scenario produces (no file I/O)."""
    from repro.noc.simulator import run_simulation
    from repro.serialization import config_to_dict
    from repro.telemetry import ndjson_lines

    config = golden_config()
    result = run_simulation(config)
    return list(ndjson_lines(result.telemetry, config=config_to_dict(config)))


def regenerate(path: Path = GOLDEN_PATH) -> int:
    lines = golden_lines()
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


if __name__ == "__main__":
    count = regenerate()
    print(f"wrote {GOLDEN_PATH} ({count} lines)")
