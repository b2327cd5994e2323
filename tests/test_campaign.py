"""Tests for the campaign runner."""

import pytest

from repro.campaign import campaign_table, grid, run_campaign
from repro.config import NoCConfig, SimulationConfig, WorkloadConfig


def tiny_base() -> SimulationConfig:
    return SimulationConfig(
        noc=NoCConfig(shape=(3, 3)),
        workload=WorkloadConfig(
            injection_rate=0.2, num_messages=100, warmup_messages=20
        ),
    )


class TestGrid:
    def test_cartesian_product(self):
        variants = grid(
            axes={
                "noc.num_vcs": [1, 2],
                "workload.injection_rate": [0.1, 0.2, 0.3],
            },
            base=tiny_base(),
        )
        assert len(variants) == 6
        names = [name for name, _ in variants]
        assert "num_vcs=1 injection_rate=0.1" in names

    def test_sets_nested_values(self):
        variants = grid(
            axes={"faults.rates.link": [0.01]},
            base=tiny_base(),
        )
        from repro.types import FaultSite

        (_, config), = variants
        assert config.faults.rate(FaultSite.LINK) == 0.01

    def test_base_not_mutated(self):
        base = tiny_base()
        grid(axes={"noc.num_vcs": [7]}, base=base)
        assert base.noc.num_vcs == 3

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            grid(axes={})

    def test_legacy_geometry_axis_is_refused_not_ignored(self):
        # The base serializes with noc.shape, so a noc.width axis is a
        # second spelling of the same extent (it used to be dropped).
        with pytest.raises(ValueError, match="noc.shape and noc.width"):
            grid(axes={"noc.width": [3, 4]}, base=tiny_base())
        shapes = [c.noc.shape for _, c in grid({"noc.shape": [[3, 3], [4, 4, 4]]})]
        assert shapes == [(3, 3), (4, 4, 4)]


class TestRunCampaign:
    def test_serial_run(self):
        variants = grid(
            axes={"workload.injection_rate": [0.1, 0.3]},
            base=tiny_base(),
        )
        rows = run_campaign(variants)
        assert len(rows) == 2
        assert rows[0].packets_delivered >= 100
        # Higher load -> higher latency.
        assert rows[1].avg_latency > rows[0].avg_latency

    def test_parallel_matches_serial(self):
        variants = grid(
            axes={"noc.link_protection": ["hbh", "none"]},
            base=tiny_base(),
        )
        serial = run_campaign(variants, processes=1)
        parallel = run_campaign(variants, processes=2)
        assert [r.avg_latency for r in serial] == [
            r.avg_latency for r in parallel
        ]
        assert [r.counters for r in serial] == [r.counters for r in parallel]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_campaign([])
        with pytest.raises(ValueError):
            run_campaign(grid(axes={"noc.num_vcs": [1]}, base=tiny_base()), processes=0)

    def test_table_rendering(self):
        rows = run_campaign(
            grid(axes={"noc.num_vcs": [1]}, base=tiny_base())
        )
        table = campaign_table(rows)
        assert "variant" in table and "num_vcs=1" in table


def _crashing_variant() -> SimulationConfig:
    """Survives config construction, crashes when the Simulator builds the
    traffic pattern (the factory rejects the name)."""
    import dataclasses

    base = tiny_base()
    return base.replace(
        workload=dataclasses.replace(base.workload, pattern="no_such_pattern")
    )


class TestCampaignFailureHandling:
    def test_crashing_variant_yields_failed_row(self):
        rows = run_campaign(
            [("ok", tiny_base()), ("boom", _crashing_variant())],
            lint=False,
        )
        ok, boom = rows
        assert not ok.failed and ok.error is None
        assert ok.packets_delivered >= 100
        assert boom.failed
        assert boom.error is not None and boom.error.startswith("ValueError")
        assert "no_such_pattern" in boom.error
        assert boom.packets_delivered == 0 and boom.counters == {}

    def test_crashing_variant_does_not_kill_the_pool(self):
        rows = run_campaign(
            [
                ("ok-1", tiny_base()),
                ("boom", _crashing_variant()),
                ("ok-2", tiny_base()),
            ],
            processes=2,
            lint=False,
        )
        assert [r.failed for r in rows] == [False, True, False]
        assert rows[0].avg_latency == rows[2].avg_latency

    def test_lint_abort_fires_before_the_pool(self):
        from repro.campaign import CampaignLintError
        from repro.config import NoCConfig

        wedged = SimulationConfig(
            noc=NoCConfig(
                shape=(4, 4), topology="torus",
                deadlock_recovery_enabled=False,
            ),
            workload=tiny_base().workload,
        )
        with pytest.raises(CampaignLintError) as excinfo:
            run_campaign(
                [("ok", tiny_base()), ("wedged", wedged)], processes=2
            )
        assert any(
            d.rule_id == "NOC004" for d in excinfo.value.diagnostics
        )

    def test_retries_exhaust_deterministic_failure(self):
        (row,) = run_campaign(
            [("boom", _crashing_variant())], lint=False, retries=2
        )
        assert row.failed

    def test_retries_validation(self):
        with pytest.raises(ValueError):
            run_campaign(
                grid(axes={"noc.num_vcs": [1]}, base=tiny_base()), retries=-1
            )

    def test_failed_row_renders_in_table(self):
        rows = run_campaign([("boom", _crashing_variant())], lint=False)
        table = campaign_table(rows)
        assert "FAILED: ValueError" in table
