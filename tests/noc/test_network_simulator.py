"""Network assembly and simulation-driver tests."""

import pytest

from repro.config import FaultConfig, SimulationConfig, WorkloadConfig
from repro.noc.network import Network
from repro.noc.simulator import Simulator, run_simulation
from repro.traffic.injection import PeriodicInjection
from tests.conftest import quick_workload, small_noc


def sim_config(**workload_overrides) -> SimulationConfig:
    return SimulationConfig(
        noc=small_noc(),
        workload=quick_workload(**workload_overrides),
    )


class TestNetworkWiring:
    def test_link_counts(self):
        net = Network(SimulationConfig(noc=small_noc(), backend="object"))
        # 4x4 mesh: 2 * (3*4 + 4*3) = 48 unidirectional mesh links
        # plus 2 local links per node.
        mesh_links = [l for l in net.links if not l.is_local]
        local_links = [l for l in net.links if l.is_local]
        assert len(mesh_links) == 48
        assert len(local_links) == 32

    def test_edge_ports_unwired(self):
        net = Network(SimulationConfig(noc=small_noc(), backend="object"))
        corner = net.routers[0]  # (0,0): no SOUTH, no WEST
        from repro.types import Direction

        assert corner.out_links[Direction.SOUTH] is None
        assert corner.out_links[Direction.WEST] is None
        assert corner.out_links[Direction.NORTH] is not None
        assert int(Direction.SOUTH) not in corner.valid_out_ports

    def test_initial_credits_match_buffer_depth(self):
        net = Network(
            SimulationConfig(noc=small_noc(vc_buffer_depth=6), backend="object")
        )
        router = net.routers[5]
        from repro.types import Direction

        for port in range(4):
            if router.out_links[port] is not None:
                for channel in router.outputs[port]:
                    assert channel.credits == 6


class TestSimulatorRun:
    def test_terminates_on_message_count(self):
        result = run_simulation(sim_config(num_messages=150, warmup_messages=30))
        assert result.packets_delivered >= 150
        assert not result.hit_cycle_limit

    def test_cycle_limit_guard(self):
        result = run_simulation(
            sim_config(num_messages=10_000, warmup_messages=10, max_cycles=50)
        )
        assert result.hit_cycle_limit
        assert result.cycles <= 51

    def test_warmup_excluded_from_measurement(self):
        result = run_simulation(sim_config(num_messages=200, warmup_messages=100))
        assert result.measured_packets <= result.packets_delivered - 100 + 5

    def test_latency_above_zero_load_floor(self):
        result = run_simulation(sim_config(num_messages=200, warmup_messages=50))
        # Minimum: pipeline + serialization of a 4-flit packet; average path
        # on a 4x4 mesh is ~2.67 hops.
        assert result.avg_latency > 5.0
        assert result.avg_hops == pytest.approx(2.67, abs=1.0)

    def test_reproducible_with_same_seed(self):
        a = run_simulation(sim_config(num_messages=150, warmup_messages=30))
        b = run_simulation(sim_config(num_messages=150, warmup_messages=30))
        assert a.avg_latency == b.avg_latency
        assert a.counters == b.counters

    def test_different_seed_differs(self):
        a = run_simulation(sim_config(num_messages=150, warmup_messages=30, seed=1))
        b = run_simulation(sim_config(num_messages=150, warmup_messages=30, seed=2))
        assert a.avg_latency != b.avg_latency

    def test_energy_reported_when_enabled(self):
        result = run_simulation(sim_config(num_messages=150, warmup_messages=30))
        assert result.energy_per_packet_nj > 0

    def test_throughput_tracks_injection_at_low_load(self):
        result = run_simulation(
            sim_config(num_messages=400, warmup_messages=50, injection_rate=0.1)
        )
        assert result.throughput_flits_per_node_cycle == pytest.approx(0.1, rel=0.25)

    def test_summary_lines(self):
        result = run_simulation(sim_config(num_messages=120, warmup_messages=20))
        text = result.summary_lines()
        assert "avg latency" in text and "packets delivered" in text


class TestInjectionProcesses:
    @pytest.mark.parametrize("process_cls", [PeriodicInjection])
    def test_long_run_rate_is_exact(self, process_cls):
        import random

        process = process_cls(num_nodes=4, rate=0.3, flits_per_packet=4)
        rng = random.Random(3)
        cycles = 8000
        fires = sum(
            process.fires(node, cycle, rng)
            for cycle in range(cycles)
            for node in range(4)
        )
        expected = 4 * cycles * 0.3 / 4
        assert fires == pytest.approx(expected, rel=0.1)

    def test_periodic_phases_desynchronized(self):
        import random

        process = PeriodicInjection(num_nodes=16, rate=0.25, flits_per_packet=4)
        rng = random.Random(9)
        first_cycle_fires = sum(process.fires(n, 0, rng) for n in range(16))
        assert first_cycle_fires < 16  # not in lockstep

    def test_fire_due_is_fires_node_by_node(self):
        """One pass over the accumulators names the nodes a per-node poll
        would, ascending, and leaves the same state and RNG behind."""
        import random

        polled = PeriodicInjection(num_nodes=16, rate=0.3, flits_per_packet=4)
        swept = PeriodicInjection(num_nodes=16, rate=0.3, flits_per_packet=4)
        rng_polled, rng_swept = random.Random(5), random.Random(5)
        for cycle in range(400):
            expected = [n for n in range(16) if polled.fires(n, cycle, rng_polled)]
            assert swept.fire_due(cycle, rng_swept) == expected
        assert swept.__dict__ == polled.__dict__
        assert rng_swept.getstate() == rng_polled.getstate()

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            PeriodicInjection(4, 0.0, 4)
        with pytest.raises(ValueError):
            PeriodicInjection(4, 0.5, 0)


class TestLatencyVsLoad:
    def test_latency_increases_with_injection_rate(self):
        lats = []
        for rate in (0.05, 0.35):
            result = run_simulation(
                sim_config(num_messages=400, warmup_messages=100, injection_rate=rate)
            )
            lats.append(result.avg_latency)
        assert lats[1] > lats[0]
