"""Figure 7 — HBH energy per message vs error rate under NR / BC / TN.

Paper claim: the energy-per-message overhead of retransmissions is
negligible, because each retransmission re-traverses a single hop out of a
multi-hop path.
"""

from benchmarks.conftest import print_tables, run_once
from repro.experiments.common import ERROR_RATES
from repro.experiments.figure6_7 import run_figure6_7, tables


def test_figure7_hbh_energy(benchmark, bench_scale):
    results = run_once(
        benchmark,
        run_figure6_7,
        error_rates=ERROR_RATES,
        num_messages=bench_scale["num_messages"],
        warmup=bench_scale["warmup"],
    )
    print_tables(tables(results)[1:])
    for label, series in results.items():
        energies = [p.energy_per_packet_nj for p in series]
        assert all(e > 0 for e in energies), label
        # Near-constant energy: the paper's Figure 7 claim.
        assert max(energies) < 1.25 * min(energies), (
            f"{label}: energy must stay nearly constant, got {energies}"
        )
        # And in the paper's sub-nanojoule band.
        assert all(0.01 < e < 1.0 for e in energies), label
