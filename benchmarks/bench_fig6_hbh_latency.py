"""Figure 6 — HBH latency vs error rate under NR / BC / TN traffic.

Paper claim: "average latency remains almost constant even up to 10% error
rate" for all three destination distributions, because a retransmission
costs ~2 cycles and stays on a single hop.
"""

from benchmarks.conftest import print_tables, run_once
from repro.experiments.common import ERROR_RATES
from repro.experiments.figure6_7 import run_figure6_7, tables


def test_figure6_hbh_latency(benchmark, bench_scale):
    results = run_once(
        benchmark,
        run_figure6_7,
        error_rates=ERROR_RATES,
        num_messages=bench_scale["num_messages"],
        warmup=bench_scale["warmup"],
    )
    print_tables(tables(results)[:1])
    for label, series in results.items():
        latencies = [p.avg_latency for p in series]
        # Flatness through 1% error rate: even the worst case (every error
        # uncorrectable) adds only a small fraction to the zero-error
        # latency.
        assert max(latencies[:-1]) < 1.35 * min(latencies), (
            f"{label}: HBH latency must stay nearly constant, got {latencies}"
        )
        # At the extreme 10% point, patterns running close to saturation
        # (bit-complement at 0.25 flits/node/cycle) see congestion
        # amplification on top of the per-error penalty; the scheme must
        # still stay within a small multiple and lose nothing.
        assert latencies[-1] < 2.5 * min(latencies), label
        # Retransmission activity genuinely scales with the error rate
        # (the flat latency is not because nothing happened).
        assert series[-1].retransmission_rounds > 10 * max(
            1, series[0].retransmission_rounds
        )
