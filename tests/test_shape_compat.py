"""The canonical platform spelling and its one legacy ingress.

A platform has one spelling — ``NoCConfig(shape=...)``, serialized as
``noc.shape`` + ``noc.link_latency`` — and the constructor sugar of the
PR 9 deprecation window is gone.  What earlier commits *wrote* (envelopes,
config files, NDJSON headers, journals: ``noc.width``/``noc.height`` and
an ``activity_driven`` key) still loads, through
:func:`repro.serialization.upgrade_config_dict` and nowhere else.  3D
shapes and slow links run on the batched kernel; a wear-out that can
escalate falls back with a named reason (docs/TOPOLOGY.md).  The all-spellings property lives in
``tests/test_config_canonical.py``.
"""

import json
import pathlib
import warnings

import pytest

from repro import api
from repro.analysis import lint_dict
from repro.config import FaultConfig, NoCConfig, SimulationConfig, WorkloadConfig
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
)
from repro.noc.network import Network
from repro.telemetry.config import TelemetryConfig
from repro.noc.kernel import kernel_supports
from repro.checkpoint import load_checkpoint
from repro.noc.simulator import Simulator, run_simulation
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    result_to_dict,
    upgrade_config_dict,
)
from repro.telemetry import write_ndjson
from repro.types import Direction

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: ``repro run --width 3 --height 3 ... --json`` as commit 3c6b9a1 printed
#: it: legacy geometry keys and an ``activity_driven`` key in the config.
PARENT_ENVELOPE = FIXTURES / "envelopes" / "parent_3c6b9a1_run.json"

#: Kept in the old spelling on purpose (the canonical twin is derived).
LEGACY_LINT_FIXTURE = FIXTURES / "lint" / "torus_xy_no_recovery.json"


#: Keys earlier commits wrote that now name a constant, at that constant.
RETIRED_AT_DEFAULT = {
    "collect_power": True,
    "telemetry": {
        "events": True,
        "series": True,
        "series_capacity": 512,
        "max_events": 100_000,
        "flight_recorder_depth": 256,
    },
}


def _legacy_dict(config: SimulationConfig) -> dict:
    """``config`` as commits before the canonical spelling serialized it:
    legacy geometry, ``activity_driven``, the never-read
    ``flit_width_bits`` (off its old default of 64: any value is dropped)
    and the retired knobs at their constants."""
    data = config_to_dict(config)
    width, height = data["noc"].pop("shape")
    assert data["noc"].pop("link_latency") == 1
    data["noc"].update(width=width, height=height, flit_width_bits=32)
    data["activity_driven"] = True
    data["collect_power"] = RETIRED_AT_DEFAULT["collect_power"]
    data["telemetry"].update(RETIRED_AT_DEFAULT["telemetry"])
    return data


def _workload():
    return WorkloadConfig(
        injection_rate=0.08, num_messages=150, warmup_messages=20
    )


class TestDeprecationWarnings:
    """The deprecation window is closed: the sugar is a ``TypeError``."""

    def test_nocconfig_width_height_kwargs_are_gone(self):
        with pytest.raises(TypeError, match="width"):
            NoCConfig(width=6, height=4)

    @pytest.mark.parametrize(
        "sugar",
        [
            dict(shape=(4, 4, 4)),
            dict(topology="mesh3d"),
            dict(link_latency=2),
            dict(width=6),
            dict(height=4),
            dict(activity_driven=False),
            dict(collect_power=True),
        ],
        ids=lambda kw: next(iter(kw)),
    )
    def test_simulationconfig_platform_kwargs_are_gone(self, sugar):
        with pytest.raises(TypeError, match=next(iter(sugar))):
            SimulationConfig(**sugar)

    @pytest.mark.parametrize(
        "build, knob",
        [
            (lambda kw: NoCConfig(**kw), "flit_width_bits"),
            *[
                (lambda kw: TelemetryConfig(**kw), knob)
                for knob in RETIRED_AT_DEFAULT["telemetry"]
            ],
            *[
                (lambda kw: Simulator(SimulationConfig(), **kw), knob)
                for knob in ("pattern", "injection", "energy_model")
            ],
            (lambda kw: run_simulation(SimulationConfig(), **kw), "pattern"),
            (lambda kw: load_checkpoint("run.ckpt", **kw), "backend"),
            (lambda kw: api.resume("run.ckpt", **kw), "backend"),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_removed_knobs_are_gone(self, build, knob):
        with pytest.raises(TypeError, match=knob):
            build({knob: None})

    def test_shape_kwarg_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            noc = NoCConfig(shape=(6, 4))
            config = SimulationConfig(noc=NoCConfig(shape=(4, 4, 4)))
        assert noc.shape == (6, 4)
        assert config.noc.topology == "mesh3d"

    def test_width_height_attributes_stay_readable(self):
        """Geometry vocabulary, not config input: the read-only extents on
        a topology and a telemetry report are derived from ``shape``."""
        from repro.noc.topology import MeshTopology
        from repro.telemetry.report import TelemetryReport

        topology = MeshTopology(shape=(6, 4, 2))
        report = TelemetryReport(shape=(6, 4, 2), metrics_interval=10)
        for geometry in (topology, report):
            assert (geometry.width, geometry.height, geometry.depth) == (6, 4, 2)
        with pytest.raises(AttributeError):
            report.width = 3

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
    """A legacy-spelled serialized config is the same platform."""

    def test_telemetry_ndjson_is_byte_identical(self, tmp_path):
        """A run loaded from the legacy dict form and a ``shape`` run
        agree on every byte of the telemetry NDJSON export — header
        (the config echo) included — and every serialized observable."""
        shape_config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4)),
            workload=_workload(),
            telemetry=TelemetryConfig(enabled=True, metrics_interval=25),
        )
        exports, results = {}, {}
        for form, config in (
            ("legacy", config_from_dict(_legacy_dict(shape_config))),
            ("shape", shape_config),
        ):
            result = run_simulation(config)
            path = tmp_path / f"{form}.ndjson"
            write_ndjson(result.telemetry, str(path), config=config_to_dict(config))
            exports[form] = path.read_bytes()
            results[form] = result_to_dict(result)
        assert exports["legacy"] == exports["shape"]
        assert results["legacy"] == results["shape"]

    def test_counters_match_without_telemetry(self):
        """The committed parent-commit envelope: its legacy config loads,
        and re-running it reproduces the stored result byte for byte."""
        stored = json.loads(PARENT_ENVELOPE.read_text())
        assert "width" in stored["config"]["noc"]  # really the old spelling
        assert "activity_driven" in stored["config"]
        config = config_from_dict(stored["config"])
        assert config.noc.shape == (3, 3)
        assert config == api.load_config(stored["config"])
        rerun = result_to_dict(run_simulation(config), include_config=False)
        assert json.dumps(rerun, sort_keys=True) == json.dumps(
            stored["result"], sort_keys=True
        )

    def test_legacy_lint_fixture_lints_like_its_canonical_twin(self):
        legacy = json.loads(LEGACY_LINT_FIXTURE.read_text())
        assert "width" in legacy["noc"] and "shape" not in legacy["noc"]
        twin = upgrade_config_dict(legacy)
        assert twin["noc"]["shape"] == [4, 4] and "width" not in twin["noc"]
        assert lint_dict(legacy).to_dicts() == lint_dict(twin).to_dicts()
        assert any(d["rule_id"] == "NOC008" for d in lint_dict(legacy).to_dicts())


class TestSerializationRoundTrip:
    def test_2d_emits_shape_and_latency(self):
        data = config_to_dict(SimulationConfig(noc=NoCConfig(shape=(8, 8))))
        assert data["noc"]["shape"] == [8, 8]
        assert data["noc"]["link_latency"] == 1
        assert "width" not in data["noc"] and "height" not in data["noc"]
        assert "activity_driven" not in data

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
        legacy = _legacy_dict(SimulationConfig(noc=NoCConfig(shape=(5, 5))))
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

    @pytest.mark.parametrize("legacy_key", ["width", "height"])
    def test_both_spellings_raise(self, legacy_key):
        data = config_to_dict(SimulationConfig(noc=NoCConfig(shape=(5, 5))))
        data["noc"][legacy_key] = 6
        with pytest.raises(ValueError, match=f"noc.shape and noc.{legacy_key}"):
            config_from_dict(data)
        report = lint_dict(data)
        assert [d.rule_id for d in report.errors] == ["NOC000"]

    @pytest.mark.parametrize(
        "section, knob, value",
        [
            (None, "collect_power", False),
            ("telemetry", "events", False),
            ("telemetry", "max_events", 10),
        ],
    )
    def test_a_retired_knob_off_its_constant_raises(self, section, knob, value):
        """Dropping it would silently change what the run records."""
        data = _legacy_dict(SimulationConfig(noc=NoCConfig(shape=(5, 5))))
        (data if section is None else data[section])[knob] = value
        with pytest.raises(ValueError, match=knob):
            config_from_dict(data)
        assert [d.rule_id for d in lint_dict(data).errors] == ["NOC000"]

    def test_a_missing_legacy_axis_defaults_to_8(self):
        data = _legacy_dict(SimulationConfig(noc=NoCConfig(shape=(5, 8))))
        del data["noc"]["height"]
        assert config_from_dict(data).noc.shape == (5, 8)

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

    @pytest.mark.parametrize("name", ["width", "height", "activity_driven"])
    def test_load_config_removed_names_are_unknown_overrides(self, name):
        with pytest.raises(TypeError, match=f"unknown override '{name}'.*shape="):
            api.load_config(**{name: 4})

    def test_load_config_legacy_width_height_still_work(self):
        """...as keys of a *source* written by an earlier commit, with or
        without an override laid over them."""
        legacy = _legacy_dict(SimulationConfig(noc=NoCConfig(shape=(6, 4))))
        assert api.load_config(legacy).noc.shape == (6, 4)
        assert api.load_config(json.dumps(legacy)).noc.shape == (6, 4)
        assert api.load_config(legacy, shape="5x5").noc.shape == (5, 5)


class TestBatchedKernel3DFallback:
    def test_3d_is_batchable(self):
        config = SimulationConfig(
            noc=NoCConfig(
                shape=(3, 3, 3),
                topology="mesh3d",
                link_latency=(1, 1, 2),
                retx_buffer_depth=5,
            )
        )
        assert kernel_supports(config) is None
        assert Network(config).kernel is not None

    def test_multicycle_latency_is_batchable(self):
        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4), link_latency=2, retx_buffer_depth=5)
        )
        assert kernel_supports(config) is None
        assert Network(config).kernel is not None

    def test_a_wear_out_that_can_escalate_falls_back_with_a_named_reason(self):
        site = IntermittentFault(5, Direction.UP, 0.5, 30.0, 60.0)
        config = SimulationConfig(
            noc=NoCConfig(
                shape=(3, 3, 3), link_latency=(1, 1, 2), retx_buffer_depth=5
            ),
            faults=FaultConfig(
                intermittent=IntermittentFaultSchedule.of(site),
                wear_out=WearOutConfig(threshold=40.0),
            ),
        )
        reason = kernel_supports(config)
        assert reason == (
            "an intermittent site can wear out into a link death within max_cycles"
        )
        assert Network(config).kernel is None

    def test_2d_unit_latency_is_still_batchable(self):
        config = SimulationConfig(noc=NoCConfig(shape=(4, 4)))
        assert kernel_supports(config) is None
