"""Smoke tests: every experiment runner produces the structure its figure
needs, at tiny scales (``CLAIMS_paper.json`` records the real scale), and
the claims each module yields are the rows that file stores."""

import json
import pathlib

import pytest

from repro.experiments import (
    deadlock_demo,
    figure5,
    figure6_7,
    figure8_9,
    figure13,
    saturation,
    table1,
)
from repro.experiments.deadlock_demo import run_deadlock_scenarios
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6_7 import run_figure6_7
from repro.experiments.figure8_9 import run_figure8_9
from repro.experiments.figure13 import run_figure13
from repro.experiments.saturation import run_saturation
from repro.experiments.table1 import run_table1

ARTEFACT = pathlib.Path(__file__).resolve().parents[2] / "CLAIMS_paper.json"


def assert_recorded(figure, module, results):
    """``module.claims`` is pure, and its names, ops and bounds are the ones
    recorded: a threshold edited without re-recording fails here in seconds
    (the values differ — these runs are tiny)."""
    claims = module.claims(results)
    assert claims == module.claims(results)
    stored = json.loads(ARTEFACT.read_text())["figures"][figure]["claims"]
    assert [(c.name, c.op, c.bound) for c in claims] == [
        (row["name"], row["op"], row["bound"]) for row in stored
    ]


class TestFigure5:
    def test_structure_and_shape(self):
        results = run_figure5(
            error_rates=(1e-4, 5e-2), num_messages=250, warmup=50
        )
        assert set(results) == {"hbh", "e2e", "fec"}
        for series in results.values():
            assert [p.error_rate for p in series] == [1e-4, 5e-2]
        # The figure's headline: E2E deteriorates, HBH does not.
        hbh_growth = results["hbh"][1].avg_latency / results["hbh"][0].avg_latency
        e2e_growth = results["e2e"][1].avg_latency / results["e2e"][0].avg_latency
        assert e2e_growth > hbh_growth
        assert hbh_growth < 1.3
        assert_recorded("figure5", figure5, results)


class TestFigure6And7:
    def test_all_patterns_and_flatness(self):
        results = run_figure6_7(
            error_rates=(1e-4, 5e-2), num_messages=250, warmup=50
        )
        assert set(results) == {"NR", "BC", "TN"}
        for label, series in results.items():
            lo, hi = series[0], series[1]
            assert hi.avg_latency < 1.4 * lo.avg_latency, label
            assert hi.energy_per_packet_nj < 1.4 * max(
                lo.energy_per_packet_nj, 1e-9
            ), label
            assert hi.retransmission_rounds > lo.retransmission_rounds
        assert_recorded("figure6_7", figure6_7, results)


class TestFigure8And9:
    def test_utilization_shapes(self):
        results = run_figure8_9(
            injection_rates=(0.1, 0.7), cycles=250, measure_from=60
        )
        assert set(results) == {"AD", "DT"}
        for label, series in results.items():
            low, high = series
            assert high.tx_utilization > low.tx_utilization, label
            assert 0.0 <= high.retx_utilization <= 1.0
            # The Section 3.2 observation: even at saturation the
            # retransmission buffers stay mostly idle.
            assert high.retx_utilization < 0.5, label
        assert_recorded("figure8_9", figure8_9, results)


class TestFigure13:
    def test_series_and_ordering(self):
        results = run_figure13(
            error_rates=(1e-3, 1e-2), num_messages=250, warmup=50
        )
        assert set(results) == {"LINK-HBH", "RT-Logic", "SA-Logic"}
        at_high = {label: series[-1] for label, series in results.items()}
        # Figure 13(a) ordering: SA > LINK > RT corrected errors.
        assert (
            at_high["SA-Logic"].errors_corrected
            > at_high["RT-Logic"].errors_corrected
        )
        assert (
            at_high["LINK-HBH"].errors_corrected
            > at_high["RT-Logic"].errors_corrected
        )
        # No scenario loses packets: every error was corrected.
        for point in at_high.values():
            assert point.packets_lost == 0
        assert_recorded("figure13", figure13, results)


class TestTable1:
    def test_paper_row_present(self):
        rows = run_table1()
        paper = next(r for r in rows if (r.num_ports, r.num_vcs) == (5, 4))
        assert paper.router_power_mw == pytest.approx(119.55, rel=1e-6)
        assert paper.ac_area_overhead_pct == pytest.approx(1.19, abs=0.02)
        assert_recorded("table1", table1, rows)
        assert all(claim.holds for claim in table1.claims(rows))


class TestDeadlockDemo:
    def test_demo_contract(self):
        outcomes = run_deadlock_scenarios()
        outcome = outcomes["fig10_with"]
        assert outcome.deadlock_broken and outcome.satisfies_eq1
        assert_recorded("deadlock_demo", deadlock_demo, outcomes)
        assert all(claim.holds for claim in deadlock_demo.claims(outcomes))


class TestSaturation:
    def test_curves_and_claims(self):
        curves = run_saturation(rates=(0.05, 0.1, 0.5), num_messages=120)
        assert set(curves) == {"xy", "west_first"}
        for curve in curves.values():
            assert curve.points[-1].avg_latency > curve.points[0].avg_latency
        assert_recorded("saturation", saturation, curves)
