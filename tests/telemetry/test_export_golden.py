"""NDJSON export: golden-file pin, envelope shape, and the validator.

The golden scenario lives in ``tools/regen_telemetry_golden.py`` (imported
here via importlib, same pattern as ``tests/test_docs_links.py``) so the
committed file and this test can never disagree about what was run.
"""

import importlib.util
import json
import pathlib

import pytest

regen_spec = importlib.util.spec_from_file_location(
    "regen_telemetry_golden",
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "tools"
    / "regen_telemetry_golden.py",
)
regen = importlib.util.module_from_spec(regen_spec)
regen_spec.loader.exec_module(regen)

from repro.telemetry import SCHEMA_VERSION, validate_ndjson_lines  # noqa: E402


@pytest.fixture(scope="module")
def golden_lines():
    return regen.golden_lines()


class TestGoldenFile:
    def test_seeded_run_matches_committed_golden(self, golden_lines):
        committed = regen.GOLDEN_PATH.read_text().splitlines()
        assert golden_lines == committed, (
            "telemetry NDJSON drifted from tests/telemetry/golden_run.ndjson; "
            "if the change is intentional, run "
            "`python tools/regen_telemetry_golden.py` and commit the diff"
        )

    def test_golden_stream_validates_clean(self, golden_lines):
        assert validate_ndjson_lines(golden_lines) == []

    def test_header_is_a_versioned_envelope(self, golden_lines):
        header = json.loads(golden_lines[0])
        assert header["schema"] == SCHEMA_VERSION
        assert header["command"] == "telemetry"
        assert header["config"]["noc"]["shape"] == [4, 4]
        assert header["result"]["events"] > 0
        assert header["result"]["samples"] > 0

    def test_events_precede_samples_in_cycle_order(self, golden_lines):
        records = [json.loads(line) for line in golden_lines[1:]]
        kinds = [r["type"] for r in records]
        assert "sample" in kinds and "event" in kinds
        first_sample = kinds.index("sample")
        assert all(k == "sample" for k in kinds[first_sample:])
        event_cycles = [r["cycle"] for r in records if r["type"] == "event"]
        assert event_cycles == sorted(event_cycles)


class TestValidator:
    def test_not_vacuously_green(self, golden_lines):
        """Planted corruption in a valid stream must be caught."""
        bad_kind = list(golden_lines)
        record = json.loads(bad_kind[1])
        record["kind"] = "made_up_event"
        bad_kind[1] = json.dumps(record)
        assert any("made_up_event" in p for p in validate_ndjson_lines(bad_kind))

        bad_json = list(golden_lines)
        bad_json[2] = "{not json"
        assert validate_ndjson_lines(bad_json)

        bad_header = list(golden_lines)
        header = json.loads(bad_header[0])
        header["schema"] = "repro/v999"
        bad_header[0] = json.dumps(header)
        assert validate_ndjson_lines(bad_header)

    def test_empty_stream_is_a_problem(self):
        (problem,) = validate_ndjson_lines([])
        assert "stream is empty" in problem

    def test_validate_telemetry_tool_wraps_the_validator(self, capsys):
        tool_spec = importlib.util.spec_from_file_location(
            "validate_telemetry",
            pathlib.Path(regen.__file__).parent / "validate_telemetry.py",
        )
        tool = importlib.util.module_from_spec(tool_spec)
        tool_spec.loader.exec_module(tool)
        assert tool.main([str(regen.GOLDEN_PATH)]) == 0
        assert "OK" in capsys.readouterr().out


class TestWriteNdjson:
    def test_write_and_summary(self, tmp_path):
        from repro.serialization import config_to_dict
        from repro.telemetry import write_ndjson

        from repro.noc.simulator import run_simulation

        config = regen.golden_config()
        result = run_simulation(config)
        path = tmp_path / "out.ndjson"
        summary = write_ndjson(
            result.telemetry, path, config=config_to_dict(config)
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + summary["events"] + summary["samples"]
        assert validate_ndjson_lines(lines) == []
