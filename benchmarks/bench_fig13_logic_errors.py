"""Figure 13 — impact of the soft-error correcting schemes.

Paper claims: (a) corrected-error counts order SA-Logic > LINK-HBH >
RT-Logic (the SA arbitrates per flit per attempt, links carry each flit
once per hop, the RT only touches headers); (b) energy per packet stays
essentially flat, with LINK-HBH the costliest because retransmissions move
flits over links again.
"""

from benchmarks.conftest import print_tables, run_once
from repro.experiments.common import FIG13_ERROR_RATES
from repro.experiments.figure13 import run_figure13, tables


def test_figure13_soft_error_schemes(benchmark, bench_scale):
    results = run_once(
        benchmark,
        run_figure13,
        error_rates=FIG13_ERROR_RATES,
        num_messages=bench_scale["num_messages"],
        warmup=bench_scale["warmup"],
    )
    print_tables(tables(results))
    top = {label: series[-1] for label, series in results.items()}
    # (a) the ordering claim at the highest error rate.
    assert top["SA-Logic"].errors_corrected > top["LINK-HBH"].errors_corrected
    assert top["LINK-HBH"].errors_corrected > top["RT-Logic"].errors_corrected
    # Corrected counts must actually grow with the injected rate.
    for label, series in results.items():
        assert series[-1].errors_corrected > series[0].errors_corrected, label
        # Everything is corrected: no packets lost in any scenario.
        assert all(p.packets_lost == 0 for p in series), label
    # (b) link errors induce an energy overhead (retransmissions re-drive
    # links), yet every series stays essentially flat.  The cross-scheme
    # gap at these rates is <1%, inside run-to-run noise at bench scale, so
    # the seed-stable within-series growth is what is asserted; the
    # cross-scheme ordering is reported in EXPERIMENTS.md from the default
    # experiment scale.
    link_series = [p.energy_per_packet_nj for p in results["LINK-HBH"]]
    assert link_series[-1] > link_series[0], "retransmissions must cost energy"
    for label, series in results.items():
        energies = [p.energy_per_packet_nj for p in series]
        assert max(energies) < 1.2 * min(energies), label
