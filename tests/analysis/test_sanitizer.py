"""Invariant sanitizer tests.

Two directions: healthy runs — including fault-injection and recovery runs,
where the counters must balance — stay silent; and corrupted state (either
synthetically tampered or produced by real undetected allocation faults)
trips the matching SIM rule.
"""

import pytest

from repro.analysis.sanitizer import InvariantSanitizer, InvariantViolationError
from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.noc.simulator import Simulator
from repro.types import FaultSite, RoutingAlgorithm, VCState


def make_sim(noc=None, faults=None, rate=0.25, messages=300, seed=7):
    config = SimulationConfig(
        noc=NoCConfig(shape=(4, 4), **(noc or {})),
        faults=faults or FaultConfig.fault_free(),
        workload=WorkloadConfig(
            injection_rate=rate,
            num_messages=messages,
            warmup_messages=50,
            max_cycles=40_000,
            seed=seed,
        ),
        invariant_checks=True,
    )
    return Simulator(config)


class TestHealthyRunsStaySilent:
    def test_fault_free_run(self):
        sim = make_sim()
        result = sim.run()
        assert result.packets_delivered >= 300
        assert sim.sanitizer.checks_run == result.cycles
        assert not sim.sanitizer.violations

    def test_hbh_link_fault_run_conserves_flits(self):
        # Retransmissions, NACKs and drops all hit the conservation ledger.
        sim = make_sim(
            faults=FaultConfig.link_only(0.02, multi_bit_fraction=1.0)
        )
        result = sim.run()
        assert result.counter("flits_retransmitted") > 0
        assert not sim.sanitizer.violations

    def test_deadlock_recovery_run_conserves_flits(self):
        sim = make_sim(
            noc=dict(
                routing=RoutingAlgorithm.FULLY_ADAPTIVE,
                deadlock_recovery_enabled=True,
            ),
            rate=0.35,
        )
        sim.run()
        assert not sim.sanitizer.violations

    def test_va_faults_with_ac_enabled_are_corrected(self):
        # The AC unit catches every misallocation before it becomes state.
        sim = make_sim(
            faults=FaultConfig.single_site(FaultSite.VC_ALLOC, 0.01)
        )
        result = sim.run()
        assert result.counter("va_errors_corrected") > 0
        assert not sim.sanitizer.violations


class TestRealFaultsAreCaught:
    def test_va_faults_without_ac_trip_the_sanitizer(self):
        # With the AC disabled, an undetected VA fault installs an illegal
        # grant; the sanitizer is the cross-check that notices.
        sim = make_sim(
            noc=dict(ac_unit_enabled=False),
            faults=FaultConfig.single_site(FaultSite.VC_ALLOC, 0.05, seed=1),
            rate=0.3,
            messages=400,
            seed=1,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        ids = {d.rule_id for d in excinfo.value.diagnostics}
        assert ids <= {"SIM102", "SIM103"} and ids

    def test_sa_faults_without_ac_disable_conservation_with_notice(self):
        # Undetected SA faults create stray flit copies by design; the
        # sanitizer reports one INFO notice and mutes SIM101, rather than
        # drowning the ablation in false errors.
        sim = make_sim(
            noc=dict(ac_unit_enabled=False),
            faults=FaultConfig.single_site(FaultSite.SW_ALLOC, 0.01, seed=3),
            rate=0.3,
            messages=200,
            seed=3,
        )
        sim.sanitizer.raise_on_violation = False
        result = sim.run()
        assert result.counter("sa_misdirected_flits") > 0
        infos = sim.sanitizer.report.by_rule("SIM101")
        assert len(infos) == 1
        assert "disabled" in infos[0].message
        # Strays corrupt downstream wormhole state too — those detections
        # are real (SIM102/SIM103), only conservation is muted.
        assert all(
            d.rule_id in ("SIM102", "SIM103") for d in sim.sanitizer.violations
        )


def _find_active_ivc(sim):
    """Step the simulator until some input VC holds an output grant."""
    for _ in range(200):
        sim._generate_traffic(sim.network.cycle)
        sim.network.step()
        for router in sim.network.routers:
            for port_vcs in router.inputs:
                for ivc in port_vcs:
                    if ivc.state is VCState.ACTIVE:
                        return router, ivc
    raise AssertionError("no VC ever became ACTIVE")


class TestSyntheticCorruption:
    """Tamper with live state and check the exact rule that fires."""

    def make_quiet_sim(self):
        sim = make_sim(rate=0.3)
        sim.sanitizer.raise_on_violation = False
        return sim

    def test_sim101_missing_flit(self):
        sim = self.make_quiet_sim()
        for _ in range(200):
            sim._generate_traffic(sim.network.cycle)
            sim.network.step()
            buffered = [
                ivc
                for router in sim.network.routers
                for port_vcs in router.inputs
                for ivc in port_vcs
                if len(ivc.buffer)
            ]
            if buffered:
                break
        assert buffered, "traffic never buffered a flit"
        buffered[0].buffer.pop()  # a flit vanishes without a counter
        violations = sim.sanitizer.check()
        assert [d.rule_id for d in violations] == ["SIM101"]
        assert violations[0].witness  # the accounting breakdown

    def test_sim102_stranded_grant(self):
        sim = self.make_quiet_sim()
        router, ivc = _find_active_ivc(sim)
        channel = router.outputs[ivc.out_port][ivc.out_vc]
        channel.allocated_to = None  # the channel forgets its owner
        violations = sim.sanitizer.check()
        assert any(d.rule_id == "SIM102" for d in violations)
        assert any("stranded" in d.message for d in violations)

    def test_sim102_dangling_allocation(self):
        sim = self.make_quiet_sim()
        router, ivc = _find_active_ivc(sim)
        # Point a *different, free* output channel at an idle input VC.
        for port, channels in enumerate(router.outputs):
            for channel in channels:
                if channel.allocated_to is None:
                    idle = next(
                        v
                        for pv in router.inputs
                        for v in pv
                        if v.state is VCState.IDLE
                    )
                    channel.allocated_to = idle.key
                    violations = sim.sanitizer.check()
                    assert any(
                        d.rule_id == "SIM102" and "dangling" in d.message
                        for d in violations
                    )
                    return
        raise AssertionError("no free output channel to corrupt")

    def test_sim102_duplicate_grant(self):
        sim = self.make_quiet_sim()
        router, ivc = _find_active_ivc(sim)
        other = next(
            v
            for pv in router.inputs
            for v in pv
            if v is not ivc and v.state is VCState.IDLE
        )
        other.state = VCState.ACTIVE
        other.out_port = ivc.out_port
        other.out_vc = ivc.out_vc
        violations = sim.sanitizer.check()
        assert any(
            d.rule_id == "SIM102" and "duplicate" in d.message
            for d in violations
        )

    def test_sim103_out_of_range_grant(self):
        sim = self.make_quiet_sim()
        _, ivc = _find_active_ivc(sim)
        ivc.out_vc = 99
        violations = sim.sanitizer.check()
        assert any(
            d.rule_id == "SIM103" and "out-of-range" in d.message
            for d in violations
        )

    def test_raise_on_violation_carries_diagnostics(self):
        sim = make_sim(rate=0.3)  # raise_on_violation stays True
        _, ivc = _find_active_ivc(sim)
        ivc.out_vc = 99
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.sanitizer.check()
        # The corrupted grant trips both the allocation cross-check (the
        # owned channel now dangles) and the state-machine check.
        ids = {d.rule_id for d in excinfo.value.diagnostics}
        assert "SIM103" in ids
        assert "SIM103" in str(excinfo.value)
