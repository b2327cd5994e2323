"""Unit tests for the configuration layer."""

import pytest

from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm


class TestNoCConfig:
    def test_paper_defaults(self):
        cfg = NoCConfig()
        assert cfg.shape == (8, 8)
        assert cfg.num_nodes == 64
        assert cfg.num_vcs == 3
        assert cfg.flits_per_packet == 4
        assert cfg.pipeline_stages == 3
        assert cfg.retx_buffer_depth == 3
        assert cfg.num_ports == 5
        assert cfg.routing is RoutingAlgorithm.XY
        assert cfg.link_protection is LinkProtection.HBH
        assert cfg.ac_unit_enabled

    def test_replace_returns_new_config(self):
        cfg = NoCConfig()
        other = cfg.replace(shape=(4, 8))
        assert other.shape == (4, 8)
        assert cfg.shape == (8, 8)

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            NoCConfig().shape = (3, 3)  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shape=(0, 8)),
            dict(shape=(8, -1)),
            dict(num_vcs=0),
            dict(vc_buffer_depth=0),
            dict(flits_per_packet=0),
            dict(retx_buffer_depth=2),  # the HBH scheme needs >= 3
            dict(pipeline_stages=5),
            dict(pipeline_stages=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NoCConfig(**kwargs)

    def test_deadlock_buffer_bound_paper_example(self):
        # Figure 10: T=4, R=3, M=4, n=3 -> satisfied.
        cfg = NoCConfig(vc_buffer_depth=4, retx_buffer_depth=3, flits_per_packet=4)
        assert cfg.deadlock_buffer_bound_ok(3)

    def test_deadlock_buffer_bound_violated(self):
        # R=3 exactly meets, not exceeds, M*N for T=5, M=4 (B=8*n vs 8*n).
        cfg = NoCConfig(vc_buffer_depth=5, retx_buffer_depth=3, flits_per_packet=4)
        assert not cfg.deadlock_buffer_bound_ok(4)


class TestFaultConfig:
    def test_fault_free(self):
        cfg = FaultConfig.fault_free()
        for site in FaultSite:
            assert cfg.rate(site) == 0.0

    def test_link_only(self):
        cfg = FaultConfig.link_only(0.01, multi_bit_fraction=0.5)
        assert cfg.rate(FaultSite.LINK) == 0.01
        assert cfg.rate(FaultSite.ROUTING) == 0.0
        assert cfg.link_multi_bit_fraction == 0.5

    def test_single_site(self):
        cfg = FaultConfig.single_site(FaultSite.SW_ALLOC, 0.002)
        assert cfg.rate(FaultSite.SW_ALLOC) == 0.002
        assert cfg.rate(FaultSite.LINK) == 0.0

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            FaultConfig(rates={FaultSite.LINK: 1.5})

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            FaultConfig(rates={FaultSite.LINK: -0.1})

    def test_rejects_bad_multi_fraction(self):
        with pytest.raises(ValueError):
            FaultConfig(link_multi_bit_fraction=2.0)

    def test_rejects_non_faultsite_keys(self):
        with pytest.raises(TypeError):
            FaultConfig(rates={"link": 0.1})  # type: ignore[dict-item]


class TestWorkloadConfig:
    def test_defaults_valid(self):
        cfg = WorkloadConfig()
        assert 0 <= cfg.warmup_messages < cfg.num_messages

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(injection_rate=0.0),
            dict(injection_rate=-1.0),
            dict(num_messages=0),
            dict(num_messages=10, warmup_messages=10),
            dict(max_cycles=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)


class TestSimulationConfig:
    def test_compose_and_replace(self):
        cfg = SimulationConfig()
        assert cfg.noc.num_nodes == 64
        other = cfg.replace(collect_utilization=True)
        assert other.collect_utilization and not cfg.collect_utilization
