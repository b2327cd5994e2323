"""Config lint rule catalogue tests: every NOC rule fires and stays quiet
on the conditions it documents, and the ids are stable public contract."""

import warnings

import pytest

from repro.analysis import lint_config, lint_dict
from repro.analysis.diagnostics import Severity
from repro.analysis.rules import iter_rules
from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.serialization import config_to_dict
from repro.types import FaultSite, RoutingAlgorithm


def make_config(noc=None, faults=None, workload=None):
    """Build a config, swallowing construction-time advisories (the linter
    reports the same conditions with ids)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimulationConfig(
            noc=NoCConfig(**(noc or {})),
            faults=faults or FaultConfig.fault_free(),
            workload=WorkloadConfig(**(workload or {})),
        )


def rule_ids(report):
    return [d.rule_id for d in report]


class TestCatalogue:
    def test_ids_are_stable_and_ordered(self):
        ids = [entry.rule_id for entry in iter_rules()]
        assert ids == [f"NOC{n:03d}" for n in range(1, 17)]

    def test_paper_baseline_is_clean(self):
        assert len(lint_config(make_config())) == 0


class TestNOC001BufferBound:
    def test_fires_on_violated_bound(self):
        report = lint_config(
            make_config(
                noc=dict(
                    deadlock_recovery_enabled=True,
                    vc_buffer_depth=2,
                    flits_per_packet=8,
                )
            )
        )
        (diag,) = report.by_rule("NOC001")
        assert diag.severity is Severity.ERROR
        assert "retx_buffer_depth" in diag.hint

    def test_quiet_when_bound_holds_or_recovery_off(self):
        ok = make_config(noc=dict(deadlock_recovery_enabled=True))
        assert not lint_config(ok).by_rule("NOC001")
        off = make_config(noc=dict(vc_buffer_depth=2, flits_per_packet=8))
        assert not lint_config(off).by_rule("NOC001")

    def test_post_init_warns_on_violated_bound(self):
        with pytest.warns(UserWarning, match="NOC001"):
            NoCConfig(
                deadlock_recovery_enabled=True,
                vc_buffer_depth=2,
                flits_per_packet=8,
            )

    def test_post_init_silent_when_bound_holds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            NoCConfig(deadlock_recovery_enabled=True)


class TestNOC002RetxDepth:
    def test_fires_on_raw_dict_the_constructor_rejects(self):
        data = config_to_dict(make_config())
        data["noc"]["retx_buffer_depth"] = 2
        report = lint_dict(data)
        ids = rule_ids(report)
        assert "NOC000" in ids and "NOC002" in ids
        assert report.has_errors


class TestNOC003Threshold:
    def test_unreachable_threshold_is_an_error(self):
        report = lint_config(
            make_config(
                noc=dict(deadlock_recovery_enabled=True, deadlock_threshold=500),
                workload=dict(max_cycles=400),
            )
        )
        (diag,) = report.by_rule("NOC003")
        assert diag.severity is Severity.ERROR

    def test_hair_trigger_threshold_is_a_warning(self):
        report = lint_config(
            make_config(
                noc=dict(deadlock_recovery_enabled=True, deadlock_threshold=3)
            )
        )
        (diag,) = report.by_rule("NOC003")
        assert diag.severity is Severity.WARNING

    def test_quiet_without_recovery(self):
        report = lint_config(
            make_config(noc=dict(deadlock_threshold=3))
        )
        assert not report.by_rule("NOC003")


class TestNOC004CyclicCDG:
    def test_fires_with_witness(self):
        report = lint_config(
            make_config(noc=dict(routing=RoutingAlgorithm.FULLY_ADAPTIVE))
        )
        (diag,) = report.by_rule("NOC004")
        assert diag.severity is Severity.ERROR
        assert diag.witness  # the concrete channel cycle

    def test_quiet_with_recovery_enabled(self):
        report = lint_config(
            make_config(
                noc=dict(
                    routing=RoutingAlgorithm.FULLY_ADAPTIVE,
                    deadlock_recovery_enabled=True,
                )
            )
        )
        assert not report.by_rule("NOC004")

    def test_quiet_when_cdg_pass_skipped(self):
        report = lint_config(
            make_config(noc=dict(routing=RoutingAlgorithm.FULLY_ADAPTIVE)),
            cdg=False,
        )
        assert not report.by_rule("NOC004")


class TestNOC005DeadMachinery:
    def test_fires_on_recovery_over_acyclic_cdg(self):
        report = lint_config(
            make_config(noc=dict(deadlock_recovery_enabled=True))
        )
        (diag,) = report.by_rule("NOC005")
        assert diag.severity is Severity.WARNING


class TestNOC006FaultRates:
    def test_out_of_range_rate_is_an_error(self):
        data = config_to_dict(make_config())
        data["faults"]["rates"]["link"] = 2.0
        report = lint_dict(data)
        assert any(
            d.rule_id == "NOC006" and d.severity is Severity.ERROR
            for d in report
        )

    def test_non_numeric_rate_is_an_error(self):
        data = config_to_dict(make_config())
        data["faults"]["rates"]["link"] = "lots"
        report = lint_dict(data)
        assert any(
            d.rule_id == "NOC006" and d.severity is Severity.ERROR
            for d in report
        )

    def test_stress_rate_is_a_warning(self):
        report = lint_config(
            make_config(faults=FaultConfig.link_only(0.2))
        )
        (diag,) = report.by_rule("NOC006")
        assert diag.severity is Severity.WARNING


class TestNOC007VCDepth:
    def test_fires_when_buffer_smaller_than_packet(self):
        report = lint_config(
            make_config(noc=dict(vc_buffer_depth=2, flits_per_packet=4))
        )
        (diag,) = report.by_rule("NOC007")
        assert diag.severity is Severity.WARNING


class TestNOC008TorusXY:
    def test_error_without_recovery(self):
        report = lint_config(make_config(noc=dict(topology="torus")))
        (diag,) = report.by_rule("NOC008")
        assert diag.severity is Severity.ERROR

    def test_warning_with_recovery(self):
        report = lint_config(
            make_config(
                noc=dict(topology="torus", deadlock_recovery_enabled=True)
            )
        )
        (diag,) = report.by_rule("NOC008")
        assert diag.severity is Severity.WARNING

    def test_quiet_on_torus_with_adaptive_routing(self):
        report = lint_config(
            make_config(
                noc=dict(
                    topology="torus",
                    routing=RoutingAlgorithm.WEST_FIRST,
                    deadlock_recovery_enabled=True,
                )
            )
        )
        assert not report.by_rule("NOC008")

    def test_network_construction_warns(self):
        """The regression the linter guards statically also warns at
        construction time, so even direct Network users hear about it."""
        from repro.noc.network import Network

        with pytest.warns(UserWarning, match="NOC008"):
            Network(make_config(noc=dict(topology="torus", shape=(4, 4))))

    def test_network_construction_quiet_with_recovery(self):
        from repro.noc.network import Network

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Network(
                make_config(
                    noc=dict(
                        topology="torus",
                        shape=(4, 4),
                        deadlock_recovery_enabled=True,
                    )
                )
            )


class TestNOC009InjectionRate:
    def test_superunity_rate_is_an_error(self):
        report = lint_config(make_config(workload=dict(injection_rate=1.5)))
        (diag,) = report.by_rule("NOC009")
        assert diag.severity is Severity.ERROR

    def test_saturated_rate_is_a_warning(self):
        report = lint_config(make_config(workload=dict(injection_rate=0.6)))
        (diag,) = report.by_rule("NOC009")
        assert diag.severity is Severity.WARNING


class TestNOC010CycleBudget:
    def test_fires_on_implausible_budget(self):
        report = lint_config(
            make_config(
                workload=dict(
                    num_messages=2000, warmup_messages=500, max_cycles=600
                )
            )
        )
        (diag,) = report.by_rule("NOC010")
        assert diag.severity is Severity.WARNING


class TestNOC011HandshakeTMR:
    def test_fires_on_ablation(self):
        report = lint_config(
            make_config(
                noc=dict(handshake_tmr=False),
                faults=FaultConfig.single_site(FaultSite.HANDSHAKE, 0.001),
            )
        )
        (diag,) = report.by_rule("NOC011")
        assert diag.severity is Severity.WARNING

    def test_quiet_without_handshake_faults(self):
        report = lint_config(make_config(noc=dict(handshake_tmr=False)))
        assert not report.by_rule("NOC011")


class TestNOC012ACUnit:
    def test_fires_on_ablation(self):
        report = lint_config(
            make_config(
                noc=dict(ac_unit_enabled=False),
                faults=FaultConfig.single_site(FaultSite.VC_ALLOC, 0.001),
            )
        )
        (diag,) = report.by_rule("NOC012")
        assert diag.severity is Severity.WARNING

    def test_quiet_without_logic_faults(self):
        report = lint_config(make_config(noc=dict(ac_unit_enabled=False)))
        assert not report.by_rule("NOC012")


class TestNOC013PermanentRerouting:
    def _schedule(self):
        import dataclasses

        from repro.faults.permanent import PermanentFault, PermanentFaultSchedule
        from repro.types import Direction

        return dataclasses.replace(
            FaultConfig.fault_free(),
            permanent=PermanentFaultSchedule.of(
                PermanentFault("link", 5, Direction.EAST)
            ),
        )

    def test_fires_for_non_reroutable_routing(self):
        report = lint_config(
            make_config(
                noc=dict(routing=RoutingAlgorithm.WEST_FIRST),
                faults=self._schedule(),
            )
        )
        (diag,) = report.by_rule("NOC013")
        assert diag.severity is Severity.WARNING
        assert "ft_table" in diag.hint

    def test_quiet_for_fault_aware_routing(self):
        report = lint_config(make_config(faults=self._schedule()))
        assert not report.by_rule("NOC013")

    def test_quiet_without_permanent_faults(self):
        report = lint_config(
            make_config(noc=dict(routing=RoutingAlgorithm.WEST_FIRST))
        )
        assert not report.by_rule("NOC013")

    def test_fires_for_wear_out_escalation(self):
        import dataclasses

        from repro.faults.intermittent import (
            IntermittentFault,
            IntermittentFaultSchedule,
            WearOutConfig,
        )
        from repro.types import Direction

        faults = dataclasses.replace(
            FaultConfig.fault_free(),
            intermittent=IntermittentFaultSchedule.of(
                IntermittentFault(5, Direction.EAST, 0.2, 10.0, 90.0)
            ),
            wear_out=WearOutConfig(threshold=50.0),
        )
        report = lint_config(
            make_config(
                noc=dict(routing=RoutingAlgorithm.WEST_FIRST), faults=faults
            )
        )
        (diag,) = report.by_rule("NOC013")
        assert "wear-out" in diag.message

    def test_quiet_for_intermittent_without_wear_out(self):
        import dataclasses

        from repro.faults.intermittent import (
            IntermittentFault,
            IntermittentFaultSchedule,
        )
        from repro.types import Direction

        # Bursts alone never kill hardware; nothing to reroute around.
        faults = dataclasses.replace(
            FaultConfig.fault_free(),
            intermittent=IntermittentFaultSchedule.of(
                IntermittentFault(5, Direction.EAST, 0.2, 10.0, 90.0)
            ),
        )
        report = lint_config(
            make_config(
                noc=dict(routing=RoutingAlgorithm.WEST_FIRST), faults=faults
            )
        )
        assert not report.by_rule("NOC013")


class TestNOC014PartitionAtCycleZero:
    def _faults(self, *faults):
        import dataclasses

        from repro.faults.permanent import PermanentFaultSchedule

        return dataclasses.replace(
            FaultConfig.fault_free(),
            permanent=PermanentFaultSchedule.of(*faults),
        )

    def test_fires_when_a_corner_is_severed(self):
        from repro.faults.permanent import PermanentFault
        from repro.types import Direction

        # Kill both links out of corner (0,0) of a 3x3, both directions:
        # node 0 survives but can talk to nobody.
        report = lint_config(
            make_config(
                noc=dict(shape=(3, 3)),
                faults=self._faults(
                    PermanentFault("link", 0, Direction.EAST),
                    PermanentFault("link", 1, Direction.WEST),
                    PermanentFault("link", 0, Direction.NORTH),
                    PermanentFault("link", 3, Direction.SOUTH),
                ),
            )
        )
        (diag,) = report.by_rule("NOC014")
        assert diag.severity is Severity.WARNING
        assert "partitions" in diag.message
        # 8 surviving partners x 2 directions = 16 severed ordered pairs.
        assert "16 of 72" in diag.message

    def test_dead_vc_partitions_only_when_it_is_the_only_vc(self):
        from repro.faults.permanent import PermanentFault
        from repro.types import Direction

        faults = self._faults(
            PermanentFault("vc", 0, Direction.EAST, vc=0),
            PermanentFault("vc", 1, Direction.WEST, vc=0),
        )
        single_vc = lint_config(
            make_config(noc=dict(shape=(2, 1), num_vcs=1), faults=faults)
        )
        assert single_vc.by_rule("NOC014")
        multi_vc = lint_config(
            make_config(noc=dict(shape=(2, 1), num_vcs=3), faults=faults)
        )
        assert not multi_vc.by_rule("NOC014")

    def test_quiet_when_dead_router_explains_all_loss(self):
        from repro.faults.permanent import PermanentFault

        # A dead router removes itself from the expectation: the survivors
        # of a 3x3 minus the center stay connected around the rim.
        report = lint_config(
            make_config(
                noc=dict(shape=(3, 3)),
                faults=self._faults(PermanentFault("router", 4)),
            )
        )
        assert not report.by_rule("NOC014")

    def test_quiet_for_late_partitions(self):
        from repro.faults.permanent import PermanentFault
        from repro.types import Direction

        # The same cut scheduled mid-run is degradation, not a broken
        # platform definition: NOC014 only judges cycle 0.
        report = lint_config(
            make_config(
                noc=dict(shape=(2, 1)),
                faults=self._faults(
                    PermanentFault("link", 0, Direction.EAST, cycle=500),
                    PermanentFault("link", 1, Direction.WEST, cycle=500),
                ),
            )
        )
        assert not report.by_rule("NOC014")

    def test_fires_for_negative_cycles_too(self):
        from repro.faults.permanent import PermanentFault
        from repro.types import Direction

        # Dead on arrival is ``cycle <= 0`` (PermanentFault), not only the
        # literal 0: the late-partition cut above, moved before the start.
        report = lint_config(
            make_config(
                noc=dict(shape=(2, 1)),
                faults=self._faults(
                    PermanentFault("link", 0, Direction.EAST, cycle=-1),
                    PermanentFault("link", 1, Direction.WEST, cycle=-1),
                ),
            )
        )
        assert report.by_rule("NOC014")

    def test_quiet_for_survivable_kills(self):
        from repro.faults.permanent import PermanentFault
        from repro.types import Direction

        report = lint_config(
            make_config(
                noc=dict(shape=(3, 3)),
                faults=self._faults(PermanentFault("link", 0, Direction.EAST)),
            )
        )
        assert not report.by_rule("NOC014")


class TestNOC015BurstOutlastsRetx:
    def _faults(self, rate=0.8, mean_on=60.0):
        import dataclasses

        from repro.faults.intermittent import (
            IntermittentFault,
            IntermittentFaultSchedule,
        )
        from repro.types import Direction

        return dataclasses.replace(
            FaultConfig.fault_free(),
            intermittent=IntermittentFaultSchedule.of(
                IntermittentFault(12, Direction.EAST, rate, mean_on, 200.0)
            ),
        )

    def test_fires_for_long_hot_burst_under_hbh(self):
        # Give-up window = max_nack_retries(8) * MIN_RETX_DEPTH(3) = 24
        # cycles; a 60-cycle on-window at rate 0.8 covers it with margin.
        report = lint_config(make_config(faults=self._faults()))
        (diag,) = report.by_rule("NOC015")
        assert diag.severity is Severity.WARNING
        assert "12:east" in diag.message
        assert diag.witness
        assert any("give-up" in line for line in diag.witness)

    def test_quiet_for_short_bursts(self):
        report = lint_config(make_config(faults=self._faults(mean_on=10.0)))
        assert not report.by_rule("NOC015")

    def test_quiet_for_mild_strike_rates(self):
        # A 0.1-rate burst rarely corrupts the same flit's replays too;
        # give-up is a tail risk, not the expected outcome.
        report = lint_config(make_config(faults=self._faults(rate=0.1)))
        assert not report.by_rule("NOC015")

    def test_quiet_for_non_hbh_schemes(self):
        from repro.types import LinkProtection

        report = lint_config(
            make_config(
                noc=dict(link_protection=LinkProtection.E2E),
                faults=self._faults(),
            )
        )
        assert not report.by_rule("NOC015")

    def test_raised_retries_widen_the_window(self):
        report = lint_config(
            make_config(
                noc=dict(max_nack_retries=32), faults=self._faults(mean_on=60.0)
            )
        )
        assert not report.by_rule("NOC015")


class TestNOC016CheckpointIntervalExceedsRun:
    def _config(self, interval, max_cycles=1000):
        return make_config(workload=dict(max_cycles=max_cycles)).replace(
            checkpoint_interval=interval,
            checkpoint_path="variant.ckpt" if interval is not None else None,
        )

    def test_fires_when_interval_exceeds_max_cycles(self):
        report = lint_config(self._config(5000))
        (diag,) = report.by_rule("NOC016")
        assert diag.severity is Severity.WARNING
        assert "5000" in diag.message and "1000" in diag.message
        assert "restart from cycle 0" in diag.message
        assert diag.witness

    def test_fires_on_the_equal_boundary(self):
        # interval == max_cycles: the run terminates *at* the cycle the
        # first checkpoint would fire, so nothing durable ever lands.
        report = lint_config(self._config(1000))
        assert report.by_rule("NOC016")

    def test_quiet_when_checkpoints_actually_fire(self):
        report = lint_config(self._config(100))
        assert not report.by_rule("NOC016")

    def test_quiet_without_checkpointing(self):
        report = lint_config(self._config(None))
        assert not report.by_rule("NOC016")
