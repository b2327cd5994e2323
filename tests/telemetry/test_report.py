"""TelemetryReport accessors: series extraction, heatmaps, summaries."""

import pytest

from repro.telemetry.bus import TelemetryEvent
from repro.telemetry.report import TelemetryReport


def _report(**kw):
    defaults = dict(shape=(2, 2), metrics_interval=10)
    defaults.update(kw)
    return TelemetryReport(**defaults)


class TestEvents:
    def test_events_of_and_counts(self):
        report = _report(
            events=[
                TelemetryEvent(5, "nack", 1),
                TelemetryEvent(7, "flit_drop", 2),
                TelemetryEvent(9, "nack", 3),
            ]
        )
        assert [e.cycle for e in report.events_of("nack")] == [5, 9]
        assert report.event_counts() == {"nack": 2, "flit_drop": 1}


class TestSeries:
    def test_get_series_and_last(self):
        report = _report(
            series={
                ("delivered_packets", "global"): [(10, 1.0), (20, 4.0)],
                ("vc_occupancy", "0"): [(10, 2.0)],
            }
        )
        assert report.get_series("delivered_packets") == [(10, 1.0), (20, 4.0)]
        assert report.last("delivered_packets") == 4.0
        assert report.last("vc_occupancy", "0") == 2.0
        assert report.last("vc_occupancy", "3") == 0.0
        assert report.num_samples == 3
        assert report.metrics() == ["delivered_packets", "vc_occupancy"]
        assert report.components("vc_occupancy") == ["0"]


class TestHeatmap:
    def test_node_metric_lands_on_the_grid(self):
        report = _report(
            series={
                ("vc_occupancy", "0"): [(10, 2.0), (20, 4.0)],
                ("vc_occupancy", "3"): [(10, 1.0), (20, 3.0)],
            }
        )
        grid = report.heatmap("vc_occupancy")
        assert grid == [[3.0, 0.0], [0.0, 2.0]]
        assert report.heatmap("vc_occupancy", reduce="max") == [
            [4.0, 0.0],
            [0.0, 3.0],
        ]
        assert report.heatmap("vc_occupancy", reduce="last") == [
            [4.0, 0.0],
            [0.0, 3.0],
        ]

    def test_link_metric_aggregates_directions(self):
        report = _report(
            series={
                ("link_utilization", "1:east"): [(10, 0.4)],
                ("link_utilization", "1:north"): [(10, 0.2)],
            }
        )
        grid = report.heatmap("link_utilization")
        assert grid[0][1] == pytest.approx(0.3)

    def test_global_series_are_not_placed(self):
        report = _report(
            series={("delivered_packets", "global"): [(10, 9.0)]}
        )
        assert report.heatmap("delivered_packets") == [[0.0, 0.0], [0.0, 0.0]]

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            _report().heatmap("vc_occupancy", reduce="median")


class TestRenderHeatmap:
    def test_ascii_rendering(self):
        from repro.report import render_heatmap

        out = render_heatmap(
            [[0.0, 1.0], [2.0, 3.5]], title="t", fmt="{:.1f}"
        )
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "2.0" in lines[1] and "3.5" in lines[1]  # y1 row on top
        assert "0.0" in lines[2] and "1.0" in lines[2]
        assert lines[-1].strip().startswith("x0")

    def test_empty_grid_rejected(self):
        from repro.report import render_heatmap

        with pytest.raises(ValueError):
            render_heatmap([])


class TestSummary:
    def test_summary_shape(self):
        report = _report(
            events=[TelemetryEvent(1, "nack", 0)],
            dropped_events=2,
            series={("delivered_packets", "global"): [(10, 1.0)]},
        )
        assert report.summary() == {
            "events": 1,
            "dropped_events": 2,
            "samples": 1,
            "series": 1,
            "metrics_interval": 10,
            "event_counts": {"nack": 1},
            "deadlock_snapshots": 0,
        }
