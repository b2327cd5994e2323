"""Figures 8 and 9 — transmission vs retransmission buffer utilization.

Paper claims (Section 3.2): transmission-buffer utilization climbs steeply
toward saturation; retransmission buffers stay mostly idle and their
utilization does not track the transmission buffers' — the justification
for reusing them for deadlock recovery.
"""

from benchmarks.conftest import print_tables, run_once
from repro.experiments.common import INJECTION_RATES
from repro.experiments.figure8_9 import run_figure8_9, tables


def test_figure8_9_buffer_utilization(benchmark):
    results = run_once(
        benchmark,
        run_figure8_9,
        injection_rates=INJECTION_RATES,
        cycles=600,
        measure_from=150,
    )
    print_tables(tables(results))
    for label, series in results.items():
        tx = [p.tx_utilization for p in series]
        retx = [p.retx_utilization for p in series]
        # Figure 8 shape: strong monotone growth into saturation.
        assert tx[-1] > 5 * tx[0], f"{label}: TX utilization must climb steeply"
        assert tx[-1] > 0.3
        # Figure 9 shape: retransmission buffers stay mostly idle ...
        assert max(retx) < 0.4, f"{label}: retx buffers must stay underutilized"
        # ... and do NOT track the transmission buffers: past saturation,
        # blocking reduces transmissions, so utilization falls or flattens
        # while TX keeps climbing.
        peak = max(range(len(retx)), key=retx.__getitem__)
        assert retx[-1] <= retx[peak], f"{label}: retx util must not keep climbing"
        assert peak < len(retx) - 1 or retx[-1] < tx[-1]
