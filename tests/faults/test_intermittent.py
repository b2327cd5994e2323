"""The intermittent/wear-out fault lifecycle (docs/FAULTS.md).

Covers the spec layer (validation, serialization, CLI grammar), the
deterministic per-site burst streams, strike semantics, the wear-out
escalation's equivalence to an explicitly scheduled permanent death.
"""

import dataclasses
import pickle
import random

import pytest

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    IntermittentLifecycle,
    WearOutConfig,
    _SiteState,
    parse_intermittent_spec,
    site_stream_seed,
)
from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
from repro.noc.simulator import Simulator
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    result_to_dict,
)
from repro.telemetry import TelemetryBus, TelemetryConfig
from repro.types import Corruption, Direction, RoutingAlgorithm


class TestSiteStreamSeed:
    def test_deterministic_and_distinct(self):
        seen = set()
        for node in range(16):
            for direction in (
                Direction.NORTH,
                Direction.EAST,
                Direction.SOUTH,
                Direction.WEST,
            ):
                s = site_stream_seed(42, node, direction)
                assert s == site_stream_seed(42, node, direction)
                assert 0 <= s < 2**64
                seen.add(s)
        assert len(seen) == 64  # no collisions across the whole 4x4 mesh

    def test_varies_with_run_seed(self):
        assert site_stream_seed(1, 5, Direction.EAST) != site_stream_seed(
            2, 5, Direction.EAST
        )


class TestIntermittentFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            IntermittentFault(-1, Direction.EAST, 0.5, 10.0, 10.0)
        with pytest.raises(ValueError, match="local"):
            IntermittentFault(0, Direction.LOCAL, 0.5, 10.0, 10.0)
        with pytest.raises(ValueError, match="rate"):
            IntermittentFault(0, Direction.EAST, 1.5, 10.0, 10.0)
        with pytest.raises(ValueError, match="window means"):
            IntermittentFault(0, Direction.EAST, 0.5, 0.5, 10.0)

    def test_schedule_dict_round_trip(self):
        schedule = IntermittentFaultSchedule.of(
            IntermittentFault(5, Direction.EAST, 0.4, 30.0, 200.0),
            IntermittentFault(9, Direction.NORTH, 0.1, 8.0, 40.0, start=500),
        )
        entries = schedule.to_dicts()
        assert "start" not in entries[0]  # default omitted
        assert entries[1]["start"] == 500
        assert IntermittentFaultSchedule.from_dicts(entries) == schedule

    def test_config_serialization_round_trip(self):
        config = SimulationConfig(
            faults=FaultConfig(
                rates={},
                seed=7,
                intermittent=IntermittentFaultSchedule.of(
                    IntermittentFault(5, Direction.EAST, 0.4, 30.0, 200.0)
                ),
                wear_out=WearOutConfig(threshold=25.0, traversal_weight=0.5),
            )
        )
        again = config_from_dict(config_to_dict(config))
        assert again.faults.intermittent == config.faults.intermittent
        assert again.faults.wear_out == config.faults.wear_out

    def test_wear_out_validation(self):
        with pytest.raises(ValueError, match="positive"):
            WearOutConfig(threshold=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            WearOutConfig(threshold=1.0, strike_weight=-1.0)
        with pytest.raises(ValueError, match="positive weight"):
            WearOutConfig(threshold=1.0, strike_weight=0.0, traversal_weight=0.0)
        assert WearOutConfig.from_dict(None) is None

    def test_wear_out_requires_intermittent_sites(self):
        with pytest.raises(ValueError, match="no intermittent sites"):
            FaultConfig(rates={}, seed=1, wear_out=WearOutConfig(threshold=5.0))


class TestSpecGrammar:
    def test_full_spec(self):
        fault = parse_intermittent_spec("12:east:0.4:30:200@500")
        assert fault == IntermittentFault(
            12, Direction.EAST, 0.4, 30.0, 200.0, start=500
        )

    def test_cycle_defaults_to_zero(self):
        assert parse_intermittent_spec("3:north:0.1:8:40").start == 0

    def test_vertical_directions_parse(self):
        # 3D TSV channels are addressable like any planar direction; the
        # spec is validated against the platform's topology at network
        # construction, not here.
        assert parse_intermittent_spec("12:up:0.4:30:200").direction is Direction.UP
        assert parse_intermittent_spec("12:down:0.4:30:200").direction is Direction.DOWN

    @pytest.mark.parametrize(
        "spec",
        [
            "12:east:0.4:30",
            "12:east:0.4:30:200:9",
            "12:east:lots:30:200",
            "12:sideways:0.4:30:200",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_intermittent_spec(spec)


class TestBurstProcess:
    def _lifecycle(self, *faults, wear_out=None, seed=42):
        return IntermittentLifecycle(
            IntermittentFaultSchedule.of(*faults), wear_out, seed
        )

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            self._lifecycle(
                IntermittentFault(5, Direction.EAST, 0.4, 10.0, 10.0),
                IntermittentFault(5, Direction.EAST, 0.2, 20.0, 20.0),
            )

    def test_windows_are_deterministic_per_seed(self):
        def toggles(seed):
            life = self._lifecycle(
                IntermittentFault(5, Direction.EAST, 0.4, 10.0, 30.0), seed=seed
            )
            out = []
            for cycle in range(600):
                life.advance(cycle)
                out.append(life.site(5, Direction.EAST).on)
            return out

        assert toggles(42) == toggles(42)
        assert toggles(42) != toggles(43)

    def test_process_starts_off_and_respects_start(self):
        life = self._lifecycle(
            IntermittentFault(5, Direction.EAST, 0.9, 10.0, 10.0, start=100)
        )
        (site,) = life.sites
        for cycle in range(100):
            life.advance(cycle)
            assert not site.on  # clean until the process starts
        assert site.next_toggle >= 100

    def test_strikes_only_during_on_windows(self):
        life = self._lifecycle(
            IntermittentFault(5, Direction.EAST, 1.0, 10.0, 10.0)
        )
        (site,) = life.sites
        # Off window: never strikes, draws nothing.
        assert not site.on
        assert life.strike(0, 5, Direction.EAST, 0.0) is None
        assert site.strikes == 0
        # Force the on phase: rate 1.0 strikes every traversal.
        site.on = True
        upset = life.strike(1, 5, Direction.EAST, 0.0)
        assert upset is Corruption.SINGLE
        assert life.strike(2, 5, Direction.EAST, 1.0) is Corruption.MULTI
        assert site.strikes == 2
        # Unknown sites cost nothing and return None.
        assert life.strike(3, 9, Direction.WEST, 0.0) is None

    def test_strikes_published_as_burst_transient_faults(self):
        life = self._lifecycle(
            IntermittentFault(5, Direction.EAST, 1.0, 10.0, 10.0)
        )
        life.telemetry = TelemetryBus(TelemetryConfig(enabled=True))
        (site,) = life.sites
        site.on = True
        life.strike(7, 5, Direction.EAST, 0.0)
        (event,) = life.telemetry.events
        assert (event.kind, event.cycle, event.node) == ("transient_fault", 7, 5)
        assert event.data == {"site": "link", "severity": "single", "burst": True}

    def test_site_state_pickles_bit_for_bit(self):
        life = self._lifecycle(
            IntermittentFault(5, Direction.EAST, 0.5, 10.0, 30.0)
        )
        for cycle in range(50):
            life.advance(cycle)
        (site,) = life.sites
        clone = pickle.loads(pickle.dumps(site))
        assert clone.on == site.on
        assert clone.next_toggle == site.next_toggle
        # The RNG stream continues identically after the round trip.
        assert clone.rng.random() == site.rng.random()


def _config(**kw):
    noc = NoCConfig(
        shape=(4, 4),
        routing=kw.get("routing", RoutingAlgorithm.FT_TABLE),
    )
    return SimulationConfig(
        noc=noc,
        faults=FaultConfig(
            rates={},
            seed=kw.get("seed", 42),
            permanent=kw.get("permanent", PermanentFaultSchedule.empty()),
            intermittent=kw.get("intermittent", IntermittentFaultSchedule.empty()),
            wear_out=kw.get("wear_out", None),
        ),
        workload=WorkloadConfig(
            injection_rate=0.15,
            num_messages=200,
            warmup_messages=20,
            max_cycles=50_000,
        ),
        telemetry=kw.get("telemetry", TelemetryConfig(enabled=False)),
    )


class TestWearOutEscalation:
    """Escalation must be indistinguishable from a scheduled death.

    A rate-0 intermittent site never corrupts a flit and draws only from
    its private stream, so traffic is identical to a clean run right up to
    the escalation cycle; a traversal-weight-only wear-out then gives a
    deterministic escalation cycle.  Scheduling an explicit permanent link
    death at that same cycle must produce the same observables (minus the
    lifecycle's own counters), the same dead-link set and routing table,
    and the same deadlock-freedom certificate.
    """

    SITE = (5, Direction.EAST)

    def _escalating_config(self, **kw):
        return _config(
            intermittent=IntermittentFaultSchedule.of(
                IntermittentFault(5, Direction.EAST, 0.0, 20.0, 20.0)
            ),
            wear_out=WearOutConfig(
                threshold=40.0, strike_weight=0.0, traversal_weight=1.0
            ),
            **kw,
        )

    def _escalation_cycle(self):
        sim = Simulator(
            self._escalating_config(telemetry=TelemetryConfig(enabled=True))
        )
        result = sim.run()
        (event,) = result.telemetry.events_of("wear_out_escalation")
        assert event.node == 5
        assert event.data["direction"] == "east"
        assert event.data["stress"] >= 40.0
        return event.cycle

    def test_escalation_matches_scheduled_death(self):
        esc_cycle = self._escalation_cycle()
        assert esc_cycle > 0

        sim_a = Simulator(self._escalating_config())
        res_a = result_to_dict(sim_a.run())
        sim_b = Simulator(
            _config(
                permanent=PermanentFaultSchedule.of(
                    PermanentFault("link", 5, Direction.EAST, cycle=esc_cycle)
                )
            )
        )
        res_b = result_to_dict(sim_b.run())

        res_a.pop("config")
        res_b.pop("config")
        # The lifecycle's own bookkeeping is the only allowed difference.
        for name in ("intermittent_bursts_started", "wear_out_escalations"):
            res_a["counters"].pop(name, None)
        assert res_a["counters"].get("permanent_faults_applied") == 1
        assert res_a == res_b

        # Same torn-down topology and rebuilt tables...
        net_a, net_b = sim_a.network, sim_b.network
        assert net_a._dead_links == {self.SITE} == net_b._dead_links
        assert net_a.routing_fn._table == net_b.routing_fn._table
        assert (
            net_a.routing_fn._alive_channels
            == net_b.routing_fn._alive_channels
        )

        # ...and the post-escalation routing is still certified
        # deadlock-free, exactly as after the explicit death.
        from repro.analysis.cdg import verify_deadlock_freedom

        cert_a = verify_deadlock_freedom(
            net_a.topology, net_a.routing_fn, net_a.config.noc.num_vcs
        )
        cert_b = verify_deadlock_freedom(
            net_b.topology, net_b.routing_fn, net_b.config.noc.num_vcs
        )
        assert cert_a.deadlock_free
        assert cert_a == cert_b

    def test_escalation_cycle_is_independent_of_telemetry(self):
        """The object loop escalates on the cycle its telemetry reports,
        with telemetry off as well as on."""
        sim = Simulator(self._escalating_config())
        assert sim.network.kernel is None
        (site,) = sim.network.lifecycle.sites
        while not site.escalated:
            assert sim.should_continue()
            sim.advance()
        # The escalation runs at the top of the step that ends on this cycle.
        assert sim.network.cycle - 1 == self._escalation_cycle()

    def test_escalated_site_stops_bursting_and_striking(self):
        sim = Simulator(self._escalating_config())
        sim.run()
        (site,) = sim.network.lifecycle.sites
        assert site.escalated
        assert (
            sim.network.lifecycle.strike(99_999, 5, Direction.EAST, 0.0)
            is None
        )

    def test_escalation_skipped_when_site_already_dead(self):
        # An explicit death at cycle 0 makes the later wear-out escalation
        # a no-op: no double teardown, one reroute cause at a time.
        config = dataclasses.replace(
            self._escalating_config(),
            faults=dataclasses.replace(
                self._escalating_config().faults,
                permanent=PermanentFaultSchedule.of(
                    PermanentFault("link", 5, Direction.EAST, cycle=0)
                ),
            ),
        )
        result = Simulator(config).run()
        assert result.counters.get("permanent_faults_applied") == 1
        assert result.counters.get("wear_out_escalations", 0) == 0
