"""Recovery-latency model for intra-router logic errors (Section 4).

The paper analyses, for each router component and each pipeline depth, how
many cycles an AC-detected (or neighbour-detected) soft error costs.  This
module encodes that analysis as a small queryable model (DESIGN S8), the
paper's table in code.  Its own tests pin each entry to the paper; no test
compares the simulator's observed per-event penalties against it, and no
experiment reads it.

Summary of the paper's analysis (n = pipeline stages):

====================  ==========================  =======================
error                 detection                   recovery latency
====================  ==========================  =======================
VA error              AC unit, same cycle          1 cycle (all n; in a
                      as crossbar traversal        4-stage router the AC
                      (n <= 3) or end of           acts before traversal,
                      stage 3 (n = 4)              so nothing was sent)
SA error              AC unit                      1 cycle (all n)
RT error, caught      VA state table               1 cycle re-route
locally (blocked
/edge direction)
RT error, caught at   next router's legality       1 + n cycles
next router (func-    check, NACK back             (NACK + re-route and
tional wrong path,                                 retransmission through
deterministic)                                     the n-stage pipe)
RT error w/ look-     next router's VA,            3 cycles (2-stage),
ahead routing         NACK back                    2 cycles (1-stage)
crossbar upset        per-hop ECC                  0 (single-bit corrected)
                                                   or an HBH round (hybrid)
SA collision w/o AC   ECC at next router           2 cycles (NACK +
(case c)                                           retransmission)
====================  ==========================  =======================
"""

from __future__ import annotations

from typing import Dict, Tuple

_RECOVERY_TABLE: Dict[Tuple[str, str], object] = {
    ("va", "ac"): 1,
    ("sa", "ac"): 1,
    ("rt", "local"): 1,
    ("rt", "remote"): "1+n",
    ("rt", "lookahead"): "1+n",
    ("sa", "ecc"): 2,
    ("crossbar", "ecc"): 0,
}


def recovery_latency(component: str, detection: str, pipeline_stages: int) -> int:
    """Cycles of latency overhead for one corrected logic error.

    Parameters
    ----------
    component:
        ``"va"``, ``"sa"``, ``"rt"`` or ``"crossbar"``.
    detection:
        * ``"ac"`` — caught by the Allocation Comparator (VA/SA errors);
        * ``"local"`` — RT misroute to a blocked/edge direction, caught by
          the local VA state table;
        * ``"remote"`` — RT misroute to a functional wrong path, caught by
          the next router and NACKed back;
        * ``"lookahead"`` — RT error under look-ahead routing, caught by
          the next router's VA (the paper's 2-stage/1-stage analysis);
        * ``"ecc"`` — caught by the per-hop error detection code (crossbar
          upsets; SA collisions when the AC is disabled).
    pipeline_stages:
        Router pipeline depth ``n`` (1-4).

    Notes
    -----
    For ``("rt", "lookahead")`` the paper quotes 3 cycles for a 2-stage
    router (NACK + new routing + retransmission) and 2 cycles for a
    single-stage router (NACK + combined routing/retransmission); both equal
    ``1 + n``, so the table folds them together.
    """
    if pipeline_stages not in (1, 2, 3, 4):
        raise ValueError("pipeline_stages must be 1..4")
    key = (component, detection)
    if key not in _RECOVERY_TABLE:
        raise KeyError(f"no recovery model for component={component!r}, detection={detection!r}")
    entry = _RECOVERY_TABLE[key]
    if entry == "1+n":
        return 1 + pipeline_stages
    return int(entry)  # type: ignore[arg-type]


def worst_case_logic_penalty(pipeline_stages: int) -> int:
    """Largest single-error penalty across all modelled components."""
    worst = 0
    for component, detection in _RECOVERY_TABLE:
        worst = max(worst, recovery_latency(component, detection, pipeline_stages))
    return worst
