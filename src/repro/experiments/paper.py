"""``CLAIMS_paper.json``: every paper figure run once, its tables and claims.

:func:`build_paper_claims` calls each ``run_*`` at its defaults — the scale
EXPERIMENTS.md documents — and records the figure's ``tables()`` and
``claims()``.  Every run is seeded and nothing reads a clock, so the payload
is deterministic: ``tools/record.py --check`` regenerates it and fails on
any drift from the committed file or on a claim that does not hold.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments import (
    ablations,
    deadlock_demo,
    figure5,
    figure6_7,
    figure8_9,
    figure13,
    saturation,
    table1,
)
from repro.experiments.common import FigureTable, rounded

#: Artefact figure id -> (run, tables or None, claims).
FIGURES: Dict[str, Tuple[Callable, Optional[Callable], Callable]] = {
    "figure5": (figure5.run_figure5, figure5.tables, figure5.claims),
    "figure6_7": (figure6_7.run_figure6_7, figure6_7.tables, figure6_7.claims),
    "figure8_9": (figure8_9.run_figure8_9, figure8_9.tables, figure8_9.claims),
    "figure13": (figure13.run_figure13, figure13.tables, figure13.claims),
    "table1": (table1.run_table1, None, table1.claims),
    "deadlock_demo": (
        deadlock_demo.run_deadlock_scenarios,
        None,
        deadlock_demo.claims,
    ),
    "saturation": (saturation.run_saturation, None, saturation.claims),
    "hbh_overhead": (
        saturation.run_hbh_overhead,
        None,
        saturation.overhead_claims,
    ),
    "ablations": (ablations.run_ablations, None, ablations.claims),
}

#: Claims known not to hold at the recorded scale: name -> one-line reason.
#: A false claim is listed here rather than having its threshold loosened.
KNOWN_DEVIATIONS: Dict[str, str] = {}

_SCALE_PARAMETERS = ("num_messages", "warmup", "cycles", "measure_from")


def _table(table: FigureTable) -> Dict[str, Any]:
    """A table's JSON form; ``series`` is a list because the file's keys are
    sorted and the legend order is the paper's."""
    return {
        "title": table.title,
        "xs": list(table.xs),
        "log_x": table.log_x,
        "series": [
            {"label": label, "values": rounded(values)}
            for label, values in table.series.items()
        ],
    }


def build_paper_claims() -> Dict[str, Any]:
    scale, figures = {}, {}
    for name, (run, tables, claims) in FIGURES.items():
        defaults = inspect.signature(run).parameters
        scaled = [key for key in _SCALE_PARAMETERS if key in defaults]
        if scaled:
            scale[name] = {key: defaults[key].default for key in scaled}
        results = run()
        figures[name] = {
            "tables": [_table(table) for table in (tables(results) if tables else ())],
            "claims": [claim.to_dict() for claim in claims(results)],
        }
    return {
        "schema": "repro/v1",
        "artifact": "CLAIMS_paper",
        "scale": scale,
        "known_deviations": KNOWN_DEVIATIONS,
        "figures": figures,
    }
