"""Backwards compatibility of the ``shape=`` topology redesign.

Guards the redesign's acceptance criterion: existing 2D configs — including
ones still built through the deprecated ``width=``/``height=`` kwargs —
must produce *bit-for-bit* identical results, counters and telemetry
NDJSON bytes, and must serialize to the exact legacy dict form.  3D shapes
must round-trip through the generalized form and fall back from the
batched kernel with a named reason (docs/TOPOLOGY.md).
"""

import warnings

import pytest

from repro import api
from repro.config import NoCConfig, SimulationConfig, WorkloadConfig
from repro.telemetry.config import TelemetryConfig
from repro.noc.kernel import kernel_supports
from repro.noc.simulator import run_simulation
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    result_to_dict,
)
from repro.telemetry import write_ndjson


def _legacy_noc(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return NoCConfig(width=8, height=8, **kw)


def _workload():
    return WorkloadConfig(
        injection_rate=0.08, num_messages=150, warmup_messages=20
    )


class TestDeprecationWarnings:
    def test_nocconfig_width_height_kwargs_warn(self):
        with pytest.warns(DeprecationWarning, match="shape"):
            noc = NoCConfig(width=6, height=4)
        assert noc.shape == (6, 4)

    def test_simulationconfig_width_height_kwargs_warn(self):
        with pytest.warns(DeprecationWarning, match="shape"):
            config = SimulationConfig(width=6, height=4)
        assert config.noc.shape == (6, 4)

    def test_shape_kwarg_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            noc = NoCConfig(shape=(6, 4))
            config = SimulationConfig(shape=(4, 4, 4), topology="mesh3d")
        assert noc.shape == (6, 4)
        assert config.noc.topology == "mesh3d"

    def test_width_height_attributes_stay_readable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            noc = NoCConfig(shape=(6, 4))
            assert (noc.width, noc.height) == (6, 4)

    def test_run_simulation_unknown_kwargs_raise(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4)),
            workload=WorkloadConfig(
                injection_rate=0.05, num_messages=20, warmup_messages=5
            ),
        )
        with pytest.raises(TypeError, match="width"):
            run_simulation(config, width=4)


class TestLegacyShapeEquivalence:
    def test_telemetry_ndjson_is_byte_identical(self, tmp_path):
        """The acceptance criterion: a legacy width/height run and a
        shape run of the same workload must agree on every byte of the
        telemetry NDJSON export and every serialized observable."""
        exports, results = {}, {}
        for form, noc in (
            ("legacy", _legacy_noc()),
            ("shape", NoCConfig(shape=(8, 8))),
        ):
            config = SimulationConfig(
                noc=noc,
                workload=_workload(),
                telemetry=TelemetryConfig(enabled=True, metrics_interval=25),
            )
            result = run_simulation(config)
            path = tmp_path / f"{form}.ndjson"
            write_ndjson(result.telemetry, str(path), config=config_to_dict(config))
            exports[form] = path.read_bytes()
            results[form] = result_to_dict(result)
        assert exports["legacy"] == exports["shape"]
        assert results["legacy"] == results["shape"]

    def test_counters_match_without_telemetry(self):
        outs = []
        for noc in (_legacy_noc(), NoCConfig(shape=(8, 8))):
            config = SimulationConfig(noc=noc, workload=_workload())
            outs.append(result_to_dict(run_simulation(config)))
        assert outs[0] == outs[1]


class TestSerializationRoundTrip:
    def test_2d_emits_legacy_keys(self):
        data = config_to_dict(SimulationConfig(noc=NoCConfig(shape=(8, 8))))
        assert data["noc"]["width"] == 8 and data["noc"]["height"] == 8
        assert "shape" not in data["noc"]
        assert "link_latency" not in data["noc"]

    def test_3d_emits_shape_and_latency(self):
        config = SimulationConfig(
            noc=NoCConfig(
                shape=(3, 3, 3),
                topology="mesh3d",
                link_latency=(1, 1, 2),
                retx_buffer_depth=5,
            )
        )
        data = config_to_dict(config)
        assert data["noc"]["shape"] == [3, 3, 3]
        assert data["noc"]["link_latency"] == [1, 1, 2]
        assert "width" not in data["noc"] and "height" not in data["noc"]

    def test_both_forms_load_without_deprecation_warnings(self):
        legacy = config_to_dict(SimulationConfig(noc=NoCConfig(shape=(5, 5))))
        cubic = config_to_dict(
            SimulationConfig(
                noc=NoCConfig(
                    shape=(3, 3, 3),
                    topology="mesh3d",
                    link_latency=(1, 1, 2),
                    retx_buffer_depth=5,
                )
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert config_from_dict(legacy).noc.shape == (5, 5)
            loaded = config_from_dict(cubic)
        assert loaded.noc.shape == (3, 3, 3)
        assert loaded.noc.link_latency == (1, 1, 2)

    def test_shape_wins_when_both_forms_appear(self):
        data = config_to_dict(SimulationConfig(noc=NoCConfig(shape=(5, 5))))
        data["noc"]["shape"] = [6, 6]  # width/height 5x5 still present
        assert config_from_dict(data).noc.shape == (6, 6)

    def test_2d_roundtrip_is_stable(self):
        config = SimulationConfig(noc=NoCConfig(shape=(8, 8)))
        data = config_to_dict(config)
        assert config_to_dict(config_from_dict(data)) == data


class TestApiOverrides:
    def test_load_config_accepts_shape_and_latency_strings(self):
        config = api.load_config(
            shape="4x4x4", link_latency="1,1,2", retx_buffer_depth=5
        )
        assert config.noc.shape == (4, 4, 4)
        assert config.noc.topology == "mesh3d"
        assert config.noc.link_latency == (1, 1, 2)

    def test_load_config_legacy_width_height_still_work(self):
        config = api.load_config(width=6, height=4)
        assert config.noc.shape == (6, 4)


class TestBatchedKernel3DFallback:
    def test_3d_falls_back_with_a_named_reason(self):
        config = SimulationConfig(
            noc=NoCConfig(
                shape=(3, 3, 3),
                topology="mesh3d",
                link_latency=(1, 1, 2),
                retx_buffer_depth=5,
            )
        )
        reason = kernel_supports(config)
        assert reason == "the batched kernel models 2D meshes only"

    def test_multicycle_latency_falls_back_with_a_named_reason(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4), link_latency=2, retx_buffer_depth=5)
        )
        reason = kernel_supports(config)
        assert reason == "multi-cycle link latencies are outside the batched domain"

    def test_2d_unit_latency_is_still_batchable(self):
        config = SimulationConfig(noc=NoCConfig(shape=(4, 4)))
        assert kernel_supports(config) is None
