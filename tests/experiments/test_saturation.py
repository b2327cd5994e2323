"""Smoke tests for the saturation characterization experiment."""

from repro.experiments.saturation import SaturationCurve, LoadPoint, run_saturation
from repro.types import RoutingAlgorithm


class TestSaturationCurve:
    def _curve(self, latencies):
        points = [
            LoadPoint(
                injection_rate=0.1 * (i + 1),
                avg_latency=lat,
                throughput=0.1 * (i + 1),
                delivered=100,
                hit_cycle_limit=False,
            )
            for i, lat in enumerate(latencies)
        ]
        return SaturationCurve("xy", points)

    def test_peak_throughput(self):
        curve = self._curve([10.0, 11.0])
        assert curve.peak_throughput() == 0.2


class TestRunSaturation:
    def test_small_sweep_structure(self):
        curves = run_saturation(
            rates=(0.1, 0.4),
            algorithms=(RoutingAlgorithm.XY,),
            num_messages=150,
        )
        assert set(curves) == {"xy"}
        points = curves["xy"].points
        assert [p.injection_rate for p in points] == [0.1, 0.4]
        assert points[1].avg_latency > points[0].avg_latency
