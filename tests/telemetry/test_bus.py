"""TelemetryBus mechanics: publishing, capping, sampling, flight recorder."""

import pytest

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.network import Network
from repro.noc.simulator import run_simulation
from repro.telemetry import EVENT_KINDS, SERIES_METRICS, TelemetryBus, TelemetryConfig


def _bus(**kw):
    return TelemetryBus(TelemetryConfig(enabled=True, **kw))


class TestPublish:
    def test_records_event_with_data(self):
        bus = _bus()
        bus.publish(10, "nack", 3, kind="link", port=1, vc=0)
        (event,) = bus.events
        assert (event.cycle, event.kind, event.node) == (10, "nack", 3)
        assert event.data == {"kind": "link", "port": 1, "vc": 0}

    def test_data_may_shadow_positional_names(self):
        """``kind``/``node`` keys in data must not collide (positional-only)."""
        bus = _bus()
        bus.publish(5, "permanent_fault", 2, kind="router", node=2)
        assert bus.events[0].data == {"kind": "router", "node": 2}

    def test_max_events_cap_counts_drops(self):
        bus = _bus(max_events=3)
        for i in range(5):
            bus.publish(i, "flit_drop", 0)
        assert len(bus.events) == 3
        assert bus.dropped_events == 2

    def test_flight_recorder_outlives_the_cap(self):
        bus = _bus(max_events=2, flight_recorder_depth=4)
        for i in range(10):
            bus.publish(i, "flit_drop", 0)
        assert [e.cycle for e in bus.flight] == [6, 7, 8, 9]
        assert all(d["cycle"] >= 6 for d in bus.flight_dicts())

    def test_deadlock_snapshot_on_positive_probe_return(self):
        bus = _bus()
        bus.publish(100, "probe_launch", 5)
        bus.publish(130, "probe_return", 5, deadlock=False)
        assert bus.deadlock_snapshots == []
        bus.publish(160, "probe_return", 5, deadlock=True)
        assert len(bus.deadlock_snapshots) == 1
        cycle, events = bus.deadlock_snapshots[0]
        assert cycle == 160
        assert events[-1].kind == "probe_return"

    def test_events_off_publishes_nothing(self):
        bus = _bus(events=False)
        bus.publish(1, "nack", 0)
        assert bus.events == [] and len(bus.flight) == 0


class TestWiring:
    def test_disabled_config_means_no_bus(self):
        net = Network(SimulationConfig(noc=NoCConfig(shape=(3, 3))))
        assert net.telemetry is None

    def test_enabled_config_wires_every_component(self):
        net = Network(
            SimulationConfig(
                noc=NoCConfig(shape=(3, 3), deadlock_recovery_enabled=True),
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        bus = net.telemetry
        assert bus is not None
        assert all(r.telemetry is bus for r in net.routers)
        assert all(ni.telemetry is bus for ni in net.interfaces)
        assert net.injector.telemetry is bus
        assert all(
            r.deadlock.telemetry_hook == bus.publish for r in net.routers
        )

    def test_sampler_covers_every_metric(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3)),
            workload=WorkloadConfig(
                injection_rate=0.1, num_messages=60, warmup_messages=10
            ),
            telemetry=TelemetryConfig(enabled=True, metrics_interval=20),
        )
        report = run_simulation(config).telemetry
        assert set(report.metrics()) == set(SERIES_METRICS)

    def test_sampling_at_exact_interval_cycles(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3)),
            workload=WorkloadConfig(
                injection_rate=0.1, num_messages=60, warmup_messages=10
            ),
            telemetry=TelemetryConfig(enabled=True, metrics_interval=25),
        )
        report = run_simulation(config).telemetry
        cycles = [c for c, _ in report.get_series("delivered_packets")]
        assert cycles and all(c % 25 == 0 for c in cycles)
        assert cycles == sorted(cycles)

    def test_series_ring_capacity_bounds_memory(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3)),
            workload=WorkloadConfig(
                injection_rate=0.05, num_messages=200, warmup_messages=10
            ),
            telemetry=TelemetryConfig(
                enabled=True, metrics_interval=5, series_capacity=8
            ),
        )
        report = run_simulation(config).telemetry
        assert all(
            len(samples) <= 8 for samples in report.series.values()
        )
        # Rings keep the newest samples.
        cycles = [c for c, _ in report.get_series("delivered_packets")]
        assert cycles[-1] >= report.metrics_interval * 8


class TestEventTaxonomy:
    def test_fault_run_publishes_only_known_kinds(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4)),
            faults=FaultConfig.link_only(0.05, seed=3),
            workload=WorkloadConfig(
                injection_rate=0.1, num_messages=150, warmup_messages=20
            ),
            telemetry=TelemetryConfig(enabled=True, metrics_interval=50),
        )
        report = run_simulation(config).telemetry
        kinds = set(report.event_counts())
        assert kinds  # the 5% scenario always produces events
        assert kinds <= EVENT_KINDS

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(metrics_interval=0)
        with pytest.raises(ValueError):
            TelemetryConfig(series_capacity=0)

    def test_config_round_trip(self):
        config = TelemetryConfig(enabled=True, metrics_interval=7, events=False)
        assert TelemetryConfig.from_dict(config.to_dict()) == config
        assert TelemetryConfig.from_dict(None) == TelemetryConfig()
