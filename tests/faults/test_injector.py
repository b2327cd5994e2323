"""Tests for the fault injector and the ``transient_fault`` events it publishes."""

import pytest

from repro.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.telemetry import TelemetryBus, TelemetryConfig
from repro.types import Corruption, Direction, FaultSite


class TestRates:
    def test_fault_free_never_fires(self):
        inj = FaultInjector(FaultConfig.fault_free())
        inj.telemetry = TelemetryBus(TelemetryConfig(enabled=True))
        assert inj.is_fault_free
        for _ in range(1000):
            assert inj.link_upset(0, 0) is None
            assert not inj.routing_upset(0, 0)
            assert not inj.sa_upset(0, 0)
            assert not inj.va_upset(0, 0)
            assert inj.crossbar_upset(0, 0) is None
            assert not inj.retx_upset(0, 0)
            assert not inj.handshake_glitch(0, 0)
        assert inj.telemetry.events == []

    def test_rate_one_always_fires(self):
        inj = FaultInjector(FaultConfig.link_only(1.0, multi_bit_fraction=1.0))
        for _ in range(50):
            assert inj.link_upset(0, 0) is Corruption.MULTI

    def test_empirical_rate(self):
        inj = FaultInjector(FaultConfig.link_only(0.1))
        fires = sum(inj.link_upset(0, 0) is not None for _ in range(20_000))
        assert fires == pytest.approx(2000, rel=0.1)

    def test_multi_bit_fraction(self):
        inj = FaultInjector(
            FaultConfig.link_only(1.0, multi_bit_fraction=0.25)
        )
        outcomes = [inj.link_upset(0, 0) for _ in range(8000)]
        multi = sum(o is Corruption.MULTI for o in outcomes)
        assert multi == pytest.approx(2000, rel=0.15)

    def test_crossbar_upsets_are_single_bit(self):
        # Section 4.4: crossbar transients produce single-bit upsets.
        inj = FaultInjector(FaultConfig.single_site(FaultSite.CROSSBAR, 1.0))
        assert inj.crossbar_upset(0, 0) is Corruption.SINGLE


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = FaultInjector(FaultConfig.link_only(0.3, seed=9))
        b = FaultInjector(FaultConfig.link_only(0.3, seed=9))
        assert [a.link_upset(0, 0) for _ in range(200)] == [
            b.link_upset(0, 0) for _ in range(200)
        ]

    def test_different_seed_differs(self):
        a = FaultInjector(FaultConfig.link_only(0.3, seed=1))
        b = FaultInjector(FaultConfig.link_only(0.3, seed=2))
        assert [a.link_upset(0, 0) for _ in range(200)] != [
            b.link_upset(0, 0) for _ in range(200)
        ]


class TestMisdirect:
    def test_never_returns_a_correct_direction(self):
        inj = FaultInjector(FaultConfig.fault_free())
        correct = [Direction.EAST]
        allowed = list(Direction)
        for _ in range(100):
            assert inj.misdirect(correct, allowed) is not Direction.EAST

    def test_falls_back_when_no_wrong_option(self):
        inj = FaultInjector(FaultConfig.fault_free())
        assert inj.misdirect([Direction.EAST], [Direction.EAST]) is Direction.EAST


class TestScenarioPicks:
    def test_va_scenarios_cover_paper_cases(self):
        inj = FaultInjector(FaultConfig.fault_free())
        seen = {inj.pick_va_scenario() for _ in range(500)}
        assert seen == {"invalid", "duplicate", "wrong_vc_same_pc", "wrong_pc"}

    def test_sa_scenarios_cover_paper_cases(self):
        inj = FaultInjector(FaultConfig.fault_free())
        seen = {inj.pick_sa_scenario() for _ in range(500)}
        assert seen == {"blocked", "wrong_output", "duplicate_output", "multicast"}


class TestTransientFaultEvents:
    def test_one_event_per_landed_upset(self):
        inj = FaultInjector(FaultConfig.link_only(1.0))
        inj.telemetry = TelemetryBus(TelemetryConfig(enabled=True))
        assert inj.link_upset(5, 3) is not None
        assert inj.link_upset(6, 3) is not None
        events = inj.telemetry.events
        assert [(e.kind, e.cycle, e.node, e.data["site"]) for e in events] == [
            ("transient_fault", 5, 3, "link"),
            ("transient_fault", 6, 3, "link"),
        ]
