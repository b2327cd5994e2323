"""NDJSON export and validation of telemetry streams.

Format (one JSON object per line, keys sorted, compact separators):

* line 1 — the ``repro/v1`` envelope header::

      {"schema": "repro/v1", "command": "telemetry",
       "config": {...} | null, "result": {<report summary>}}

* then one line per retained event::

      {"type": "event", "cycle": C, "kind": K, "node": N, "data": {...}}

* then one line per time-series sample, grouped by sorted
  (metric, component) key::

      {"type": "sample", "cycle": C, "metric": M, "component": X, "value": V}

Everything is deterministic for a seeded run (no timestamps, no floats
beyond what the simulator itself computed), so a committed golden file can
assert the whole stream byte-for-byte across Python versions.

Every line is the canonical dump of its object,
``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, and the
validator refuses any other spelling.  Samples are written one series at a
time: each series' constant text (``{"component":X,"cycle":`` and
``,"metric":M,"type":"sample","value":``) is built once, and each point
adds only its cycle and value, spelled as ``json.dumps`` spells them
(``repr`` of an ``int`` or a finite ``float``, ``json.dumps`` for anything
else).  ``write_ndjson`` never holds more than one series' text.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.telemetry.report import TelemetryReport

#: Versioned schema tag shared with the CLI's ``--json`` envelopes.
SCHEMA_VERSION = "repro/v1"


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _number(value: Any) -> str:
    """``value`` as ``_dumps`` spells it: ``repr`` for an ``int`` or a
    finite ``float`` (what ``json`` itself calls), ``json.dumps`` for
    anything else (``NaN``, ``Infinity``, ``true``, a subclass)."""
    kind = type(value)
    if kind is int or (kind is float and value - value == 0.0):
        return repr(value)
    return json.dumps(value)


def _series_lines(
    metric: str, component: str, points: List[Tuple[int, Any]]
) -> List[str]:
    """One series' sample lines (no newlines), from its constant text."""
    head = '{"component":' + json.dumps(component) + ',"cycle":'
    mid = ',"metric":' + json.dumps(metric) + ',"type":"sample","value":'
    return [
        head + _number(cycle) + mid + _number(value) + "}" for cycle, value in points
    ]


def _record_chunks(
    report: TelemetryReport, config: Optional[Dict[str, Any]]
) -> Iterator[List[str]]:
    """The stream's lines, a chunk at a time: the header and the events,
    then one chunk per series in sorted ``(metric, component)`` order."""
    header = {
        "schema": SCHEMA_VERSION,
        "command": "telemetry",
        "config": config,
        "result": report.summary(),
    }
    yield [_dumps(header)] + [_dumps(event.to_dict()) for event in report.events]
    series = report.series
    for metric, component in sorted(series):
        yield _series_lines(metric, component, series[(metric, component)])


def ndjson_lines(
    report: TelemetryReport, config: Optional[Dict[str, Any]] = None
) -> Iterator[str]:
    """Yield the NDJSON lines for a report (no trailing newlines)."""
    for chunk in _record_chunks(report, config):
        yield from chunk


def write_ndjson(
    report: TelemetryReport,
    path: str,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write a report's NDJSON stream to ``path``, one chunk (the header
    and events, then a series) per write; returns the summary."""
    with open(path, "w", encoding="utf-8") as handle:
        for chunk in _record_chunks(report, config):
            if chunk:
                handle.write("\n".join(chunk))
                handle.write("\n")
    return report.summary()


def validate_ndjson_lines(lines: Iterable[str]) -> List[str]:
    """Validate an NDJSON stream against the event/sample schema.

    Returns a list of human-readable problems (empty means valid).  Every
    line must also be spelled canonically, as ``write_ndjson`` spells it,
    so a check of a real stream checks the formatter too.  Used by the
    golden-file tests and ``tools/validate_telemetry.py`` (the CI
    telemetry smoke job).
    """
    from repro.telemetry.bus import EVENT_KINDS

    problems: List[str] = []
    count = 0
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        count += 1
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"line {lineno}: expected a JSON object")
            continue
        if raw != _dumps(obj):
            problems.append(
                f"line {lineno}: not the canonical dump of its object "
                "(sorted keys, compact separators)"
            )
        if count == 1:
            if obj.get("schema") != SCHEMA_VERSION:
                problems.append(
                    f"line {lineno}: header schema is {obj.get('schema')!r}, "
                    f"expected {SCHEMA_VERSION!r}"
                )
            if obj.get("command") != "telemetry":
                problems.append(f"line {lineno}: header command must be 'telemetry'")
            if not isinstance(obj.get("result"), dict):
                problems.append(f"line {lineno}: header is missing its result summary")
            continue
        kind = obj.get("type")
        if kind == "event":
            if obj.get("kind") not in EVENT_KINDS:
                problems.append(
                    f"line {lineno}: unknown event kind {obj.get('kind')!r}"
                )
            if not isinstance(obj.get("cycle"), int) or obj["cycle"] < 0:
                problems.append(f"line {lineno}: event cycle must be a non-negative int")
            if not isinstance(obj.get("node"), int):
                problems.append(f"line {lineno}: event node must be an int")
            if "data" in obj and not isinstance(obj["data"], dict):
                problems.append(f"line {lineno}: event data must be an object")
        elif kind == "sample":
            if not isinstance(obj.get("metric"), str):
                problems.append(f"line {lineno}: sample metric must be a string")
            if not isinstance(obj.get("component"), str):
                problems.append(f"line {lineno}: sample component must be a string")
            if not isinstance(obj.get("cycle"), int) or obj["cycle"] < 0:
                problems.append(f"line {lineno}: sample cycle must be a non-negative int")
            if not isinstance(obj.get("value"), (int, float)) or isinstance(
                obj.get("value"), bool
            ):
                problems.append(f"line {lineno}: sample value must be a number")
        else:
            problems.append(f"line {lineno}: unknown line type {kind!r}")
    if count == 0:
        problems.append("stream is empty (expected at least a header line)")
    return problems
