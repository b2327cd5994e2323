"""Tests for config/result (de)serialization."""

import json

import pytest

from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.noc.simulator import run_simulation
from repro.serialization import (
    SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    envelope,
    result_from_dict,
    result_to_dict,
)
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm


def through_json(data):
    """``data`` after a trip through JSON text, the way files store it."""
    return json.loads(json.dumps(data, indent=2, sort_keys=True))


def fancy_config() -> SimulationConfig:
    return SimulationConfig(
        noc=NoCConfig(
            shape=(4, 3),
            num_vcs=2,
            routing=RoutingAlgorithm.WEST_FIRST,
            link_protection=LinkProtection.E2E,
            deadlock_recovery_enabled=True,
            duplicate_retx_buffers=True,
        ),
        faults=FaultConfig(
            rates={FaultSite.LINK: 0.01, FaultSite.SW_ALLOC: 0.002},
            link_multi_bit_fraction=0.3,
            seed=9,
        ),
        workload=WorkloadConfig(
            pattern="tornado",
            injection_rate=0.15,
            num_messages=123,
            warmup_messages=45,
            seed=6,
        ),
        collect_utilization=True,
        payload_ecc_check=True,
    )


class TestConfigRoundTrip:
    def test_dict_roundtrip(self):
        config = fancy_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_roundtrip(self):
        config = fancy_config()
        assert config_from_dict(through_json(config_to_dict(config))) == config

    def test_default_config_roundtrip(self):
        config = SimulationConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_checkpoint_fields_roundtrip(self):
        config = fancy_config().replace(
            checkpoint_interval=300, checkpoint_path="run.ckpt"
        )
        again = config_from_dict(config_to_dict(config))
        assert again == config
        assert again.checkpoint_interval == 300

    def test_pre_checkpoint_dicts_still_load(self):
        # Archived configs from before the checkpoint fields existed must
        # deserialize with checkpointing off.
        data = config_to_dict(fancy_config())
        del data["checkpoint_interval"], data["checkpoint_path"]
        config = config_from_dict(data)
        assert config.checkpoint_interval is None
        assert config.checkpoint_path is None

    def test_json_is_valid_and_stable(self):
        data = through_json(config_to_dict(fancy_config()))
        assert data["noc"]["routing"] == "west_first"
        assert data["faults"]["rates"]["link"] == 0.01
        assert data == config_to_dict(config_from_dict(data))

    def test_roundtripped_config_runs_identically(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3)),
            faults=FaultConfig.link_only(0.02, multi_bit_fraction=1.0),
            workload=WorkloadConfig(
                injection_rate=0.2, num_messages=120, warmup_messages=20
            ),
        )
        a = run_simulation(config)
        b = run_simulation(config_from_dict(through_json(config_to_dict(config))))
        assert a.avg_latency == b.avg_latency
        assert a.counters == b.counters


class TestResultSerialization:
    def test_result_to_json(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(3, 3)),
            workload=WorkloadConfig(
                injection_rate=0.2, num_messages=100, warmup_messages=20
            ),
        )
        result = run_simulation(config)
        data = result_to_dict(result)
        assert data["packets_delivered"] >= 100
        assert data["config"]["noc"]["shape"] == [3, 3]
        parsed = through_json(data)
        assert parsed["avg_latency"] == pytest.approx(result.avg_latency)


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(
            SimulationConfig(
                noc=NoCConfig(shape=(3, 3)),
                faults=FaultConfig.link_only(0.02, seed=5),
                workload=WorkloadConfig(
                    injection_rate=0.2, num_messages=100, warmup_messages=20
                ),
            )
        )

    def _assert_same(self, a, b):
        assert b.config == a.config
        assert b.cycles == a.cycles
        assert b.packets_delivered == a.packets_delivered
        assert b.avg_latency == a.avg_latency
        assert b.counters == a.counters
        assert b.energy_events == a.energy_events
        assert (
            b.throughput_flits_per_node_cycle
            == a.throughput_flits_per_node_cycle
        )

    def test_dict_roundtrip(self, result):
        self._assert_same(result, result_from_dict(result_to_dict(result)))

    def test_json_roundtrip(self, result):
        self._assert_same(
            result, result_from_dict(through_json(result_to_dict(result)))
        )

    def test_roundtrip_without_embedded_config(self, result):
        data = result_to_dict(result, include_config=False)
        assert "config" not in data
        self._assert_same(result, result_from_dict(data, config=result.config))

    def test_missing_config_rejected(self, result):
        data = result_to_dict(result, include_config=False)
        with pytest.raises(ValueError, match="no embedded config"):
            result_from_dict(data)


class TestEnvelope:
    def test_shape(self):
        env = envelope("run", {"cycles": 7}, config={"noc": {"width": 4}})
        assert env == {
            "schema": SCHEMA_VERSION,
            "command": "run",
            "config": {"noc": {"width": 4}},
            "result": {"cycles": 7},
        }
        assert env["schema"] == "repro/v1"

    def test_config_optional(self):
        env = envelope("lint", [])
        assert env["config"] is None
        assert env["result"] == []
