"""The NDJSON exporter spells every record as a per-record canonical
``json.dumps`` would, and the validator refuses any other spelling.

The exporter builds each series' constant text once and formats only the
cycle and value of each point; these tests pin that shortcut against the
plain per-record reference on awkward values and on a real run.
"""

import importlib.util
import json
import math
import pathlib

from repro.telemetry import (
    SCHEMA_VERSION,
    TelemetryReport,
    ndjson_lines,
    validate_ndjson_lines,
    write_ndjson,
)
from repro.telemetry.bus import TelemetryEvent


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_lines(report, config=None):
    """One ``json.dumps`` per record: the format's definition."""
    header = {
        "schema": SCHEMA_VERSION,
        "command": "telemetry",
        "config": config,
        "result": report.summary(),
    }
    lines = [_canonical(header)]
    lines += [_canonical(event.to_dict()) for event in report.events]
    for metric, component in sorted(report.series):
        for cycle, value in report.series[(metric, component)]:
            lines.append(
                _canonical(
                    {
                        "type": "sample",
                        "cycle": cycle,
                        "metric": metric,
                        "component": component,
                        "value": value,
                    }
                )
            )
    return lines


def synthetic_report():
    awkward = [
        (0, 3),
        (10, -0.0),
        (20, 1e-300),
        (30, 1e300),
        (40, math.nan),
        (50, math.inf),
        (60, -math.inf),
        (70, 0.1 + 0.2),
        (80, -7),
    ]
    return TelemetryReport(
        shape=(2, 2),
        metrics_interval=10,
        events=[
            TelemetryEvent(5, "nack", 1, {"kind": "link", "port": 2, "seq": 4}),
            TelemetryEvent(6, "packet_lost", 3),
        ],
        series={
            ("link_utilization", '0:east "quoted" \\ café\n'): awkward,
            ("vc_occupancy", "1"): [(0, 0.0), (10, 2.5)],
            ("retx_pressure", "2"): [],
            ("delivered", "global"): [(0, 1), (10, 12)],
        },
    )


def test_synthetic_report_matches_the_per_record_reference(tmp_path):
    report = synthetic_report()
    config = {"noc": {"shape": [2, 2]}, "seed": 1}
    expected = reference_lines(report, config)
    assert list(ndjson_lines(report, config)) == expected
    path = tmp_path / "out.ndjson"
    write_ndjson(report, path, config=config)
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert validate_ndjson_lines(expected) == []


def test_an_empty_report_is_a_header_alone(tmp_path):
    report = TelemetryReport(shape=(2, 2), metrics_interval=10, series={("m", "x"): []})
    path = tmp_path / "out.ndjson"
    write_ndjson(report, path)
    assert path.read_text(encoding="utf-8") == reference_lines(report)[0] + "\n"


def test_a_real_run_matches_the_per_record_reference(tmp_path):
    from repro.noc.simulator import run_simulation
    from repro.serialization import config_to_dict

    tools = pathlib.Path(__file__).resolve().parents[2] / "tools"
    spec = importlib.util.spec_from_file_location(
        "regen_telemetry_golden", tools / "regen_telemetry_golden.py"
    )
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    config = regen.golden_config()
    report = run_simulation(config).telemetry
    config_dict = config_to_dict(config)
    path = tmp_path / "out.ndjson"
    write_ndjson(report, path, config=config_dict)
    expected = reference_lines(report, config_dict)
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert expected == regen.GOLDEN_PATH.read_text().splitlines()


def test_validator_refuses_a_non_canonical_spelling():
    lines = reference_lines(synthetic_report())
    at = lines.index(
        '{"component":"global","cycle":10,"metric":"delivered",'
        '"type":"sample","value":12}'
    )
    sample = json.loads(lines[at])
    for spelling in (
        json.dumps(sample, sort_keys=True),  # spaced separators
        json.dumps(dict(reversed(list(sample.items()))), separators=(",", ":")),
        lines[at].replace('"value":12', '"value":1.2e1'),  # another number
    ):
        problems = validate_ndjson_lines(lines[:at] + [spelling] + lines[at + 1:])
        assert problems == [
            f"line {at + 1}: not the canonical dump of its object "
            "(sorted keys, compact separators)"
        ]
