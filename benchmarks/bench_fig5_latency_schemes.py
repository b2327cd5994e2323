"""Figure 5 — Latency of HBH vs E2E vs FEC error handling vs error rate.

Paper series to reproduce (8x8 mesh, 0.25 flits/node/cycle, NR traffic):
HBH stays flat over 1e-5..1e-1 while E2E's latency becomes prohibitive;
FEC's latency stays low but it silently loses/corrupts packets.
"""

from benchmarks.conftest import print_tables, run_once
from repro.experiments.common import ERROR_RATES
from repro.experiments.figure5 import run_figure5, tables


def test_figure5_latency_schemes(benchmark, bench_scale):
    results = run_once(
        benchmark,
        run_figure5,
        error_rates=ERROR_RATES,
        num_messages=bench_scale["num_messages"],
        warmup=bench_scale["warmup"],
    )
    print_tables(tables(results))

    hbh = [p.avg_latency for p in results["hbh"]]
    e2e = [p.avg_latency for p in results["e2e"]]
    # The figure's claims, as assertions: HBH flat, E2E prohibitive.
    assert max(hbh) < 1.5 * min(hbh), "HBH latency must stay nearly flat"
    assert e2e[-1] > 3.0 * hbh[-1], "E2E must deteriorate at 10% error rate"
    assert e2e[-1] > 2.0 * e2e[0], "E2E latency must grow with error rate"
    # HBH is also the only loss-free scheme at the top error rate.
    assert results["hbh"][-1].packets_lost == 0
    assert results["hbh"][-1].packets_delivered_corrupt == 0
