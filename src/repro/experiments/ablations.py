"""Ablations of the design choices DESIGN.md calls out.

Not paper figures, but the counterfactuals behind the paper's arguments:

* **AC unit off** — Section 4's premise: undetected VA/SA logic faults
  strand and lose packets instead of costing one cycle.
* **Handshake TMR off** — Section 4.6: glitches lose credits/NACKs.
* **Duplicate retransmission buffers** — Section 4.5: the fool-proof option
  vs the give-up escape.
* **Pipeline depth** — Section 2.1's 1/2/3/4-stage design space.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.experiments.common import Claim
from repro.noc.simulator import SimulationResult, run_simulation
from repro.types import FaultSite


def _run(noc: NoCConfig, faults: FaultConfig, messages: int = 800) -> SimulationResult:
    workload = WorkloadConfig(
        injection_rate=0.25,
        num_messages=messages,
        warmup_messages=messages // 5,
        max_cycles=60_000,
        seed=21,
    )
    return run_simulation(SimulationConfig(noc=noc, faults=faults, workload=workload))


def run_ablations() -> Dict[str, SimulationResult]:
    """Each feature on and off under the fault storm it exists for."""
    sa_faults = FaultConfig.single_site(FaultSite.SW_ALLOC, 0.002, seed=3)
    glitches = FaultConfig.single_site(FaultSite.HANDSHAKE, 0.002, seed=3)
    buffer_upsets = FaultConfig(
        rates={FaultSite.LINK: 0.02, FaultSite.RETX_BUFFER: 0.2},
        link_multi_bit_fraction=1.0,
        seed=3,
    )
    results = {
        "ac_on": _run(NoCConfig(ac_unit_enabled=True), sa_faults),
        "ac_off": _run(NoCConfig(ac_unit_enabled=False), sa_faults),
        "tmr_on": _run(NoCConfig(handshake_tmr=True), glitches),
        "tmr_off": _run(NoCConfig(handshake_tmr=False), glitches),
        "single_copy": _run(
            NoCConfig(duplicate_retx_buffers=False), buffer_upsets, 500
        ),
        "duplicate": _run(NoCConfig(duplicate_retx_buffers=True), buffer_upsets, 500),
    }
    # A 1-stage router measures the same latency as a 2-stage one in this
    # model, so it carries no claim and is not run.
    for stages in (2, 3, 4):
        results[f"{stages}-stage"] = _run(
            NoCConfig(pipeline_stages=stages), FaultConfig.fault_free()
        )
    return results


def claims(results: Dict[str, SimulationResult]) -> List[Claim]:
    def counted(run: str, *counters: str) -> int:
        return sum(results[run].counter(name) for name in counters)

    corrupt = "packets_delivered_corrupt"
    latency = {name: result.avg_latency for name, result in results.items()}
    # Every row is a count or a difference judged against zero.
    rows = [
        ("ac_on.sa_errors_corrected", counted("ac_on", "sa_errors_corrected"), ">"),
        ("ac_on.packets_lost", results["ac_on"].packets_lost, "=="),
        ("ac_on.delivered_corrupt", counted("ac_on", corrupt), "=="),
        # Without the AC, SA faults do real damage.
        (
            "ac_off.misdirected_flits_plus_corrupt",
            counted("ac_off", "sa_misdirected_flits", corrupt),
            ">",
        ),
        ("tmr_on.signals_lost", counted("tmr_on", "handshake_signals_lost"), "=="),
        ("tmr_on.glitches_masked", counted("tmr_on", "handshake_glitches_masked"), ">"),
        ("tmr_off.signals_lost", counted("tmr_off", "handshake_signals_lost"), ">"),
        (
            "duplicate.retx_buffer_restores",
            counted("duplicate", "retx_buffer_restores"),
            ">",
        ),
        ("duplicate.delivered_corrupt", counted("duplicate", corrupt), "=="),
        (
            "single_copy.giveups_plus_corrupt",
            counted("single_copy", "retransmission_giveups", corrupt),
            ">",
        ),
        # Shallower pipelines give lower latency (Section 2.1's motivation
        # for 1/2-stage routers).
        *(
            (
                f"pipeline.{deep}_minus_{deep - 1}_stage_latency",
                latency[f"{deep}-stage"] - latency[f"{deep - 1}-stage"],
                ">",
            )
            for deep in (3, 4)
        ),
    ]
    return [Claim(f"abl.{name}", value, op, 0) for name, value, op in rows]
