"""The ``repro.api`` facade: load_config, run, sweep, lint, degrade."""

import json
import warnings

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.types import LinkProtection


class TestLoadConfig:
    def test_defaults(self):
        config = api.load_config()
        assert config == SimulationConfig()

    def test_flat_overrides(self):
        config = api.load_config(
            shape=(4, 4), vcs=2, scheme="e2e", rate=0.1,
            messages=50, warmup=5, seed=9, link_error_rate=0.01,
        )
        assert config.noc.shape == (4, 4)
        assert config.noc.num_vcs == 2
        assert config.noc.link_protection is LinkProtection.E2E
        assert config.workload.injection_rate == 0.1
        assert config.workload.num_messages == 50
        assert config.workload.seed == 9
        assert config.faults.seed == 9  # seed applies to both sections
        assert config.faults.rates  # link rate landed

    def test_telemetry_shorthand(self):
        config = api.load_config(telemetry=True, metrics_interval=25)
        assert config.telemetry.enabled is True
        assert config.telemetry.metrics_interval == 25
        explicit = api.load_config(
            telemetry=api.TelemetryConfig(enabled=True, series_capacity=16)
        )
        assert explicit.telemetry.series_capacity == 16

    def test_from_existing_config_and_dict(self):
        base = api.load_config(shape=(4, 4))
        again = api.load_config(base, rate=0.3)
        assert again.noc.shape == (4, 4)
        assert again.workload.injection_rate == 0.3
        from_dict = api.load_config(api.config_to_dict(base))
        assert from_dict == base

    def test_from_json_file_and_string(self, tmp_path):
        base = api.load_config(shape=(4, 4))
        text = json.dumps(api.config_to_dict(base))
        assert api.load_config(text) == base
        path = tmp_path / "config.json"
        path.write_text(text)
        assert api.load_config(path) == base
        assert api.load_config(str(path)) == base

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="wdith"):
            api.load_config(wdith=4)


class TestRun:
    def test_run_with_overrides(self):
        result = api.run(shape=(3, 3), messages=60, warmup=10)
        assert result.packets_delivered >= 60
        assert result.telemetry is None

    def test_run_existing_config_is_not_copied(self):
        config = api.load_config(shape=(3, 3), messages=40, warmup=5)
        result = api.run(config)
        assert result.config is config

    def test_run_with_telemetry_path(self, tmp_path):
        path = tmp_path / "out.ndjson"
        result = api.run(
            shape=(3, 3), messages=40, warmup=5,
            telemetry_path=path, metrics_interval=20,
        )
        assert result.telemetry is not None
        lines = path.read_text().splitlines()
        assert api.validate_ndjson_lines(lines) == []


class TestSweepLintDegrade:
    def test_sweep_orders_rates(self):
        results = api.sweep(
            shape=(3, 3), messages=40, warmup=5, rates=[0.05, 0.2]
        )
        assert [r.config.workload.injection_rate for r in results] == [0.05, 0.2]
        assert all(r.packets_delivered == 40 for r in results)

    def test_lint_flags_and_file(self, tmp_path):
        assert api.lint(shape=(4, 4)).exit_code == 0
        bad = api.config_to_dict(api.load_config(shape=(4, 4)))
        bad["noc"]["retx_buffer_depth"] = 1  # NOC002: below Section 3.1 bound
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        report = api.lint(path)
        assert report.diagnostics

    def test_degrade_surface(self):
        points = api.degrade(
            shape=(4, 4), max_kills=1, inject_cycles=200
        )
        assert [p.kills for p in points] == [0, 1]


class TestDeprecatedKwargs:
    def test_run_simulation_rejects_unknown_keywords(self):
        from repro.noc.simulator import run_simulation

        config = api.load_config(shape=(3, 3), messages=30, warmup=5)
        with pytest.raises(TypeError, match="legacy_knob"):
            run_simulation(config, legacy_knob=1)

    def test_explicit_keywords_do_not_warn(self):
        from repro.noc.simulator import run_simulation

        config = api.load_config(shape=(3, 3), messages=30, warmup=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_simulation(config, pattern=None, injection=None)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestPackageExports:
    def test_top_level_reexports(self):
        import repro

        assert repro.api is api
        assert repro.TelemetryConfig is api.TelemetryConfig
        assert repro.TelemetryReport is api.TelemetryReport
