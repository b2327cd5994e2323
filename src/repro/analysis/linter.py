"""The config linter: rule catalogue + CDG pass over one or many configs.

Entry points:

* :func:`lint_config` — lint an in-process :class:`SimulationConfig`
  (used by campaigns before burning simulation cycles).
* :func:`lint_dict` — lint a raw serialized config dict; range errors the
  constructors would raise become ``NOC000`` diagnostics instead of
  tracebacks.
* :func:`lint_path` / :func:`lint_paths` — lint JSON config files or
  directories of them (the ``repro lint`` CLI).

The channel-dependency-graph verdict is memoized per (topology, size,
routing) because campaign grids lint hundreds of variants that share a
platform.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.analysis.cdg import CDGVerdict, verify_deadlock_freedom
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.rules import LintContext, run_rules
from repro.config import SimulationConfig
from repro.noc.routing import resolve_routing_function
from repro.noc.topology import make_topology
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    upgrade_config_dict,
)
from repro.types import RoutingAlgorithm

#: (topology name, shape, routing value, permanent schedule) -> verdict.
_CDG_CACHE: Dict[Tuple[object, ...], CDGVerdict] = {}


def cdg_verdict_for(config: SimulationConfig) -> Optional[CDGVerdict]:
    """The (memoized) CDG verdict for a config's platform.

    Returns None for source routing, which has no static routing relation.
    When the config schedules permanent faults, the verdict covers the
    *fully degraded* topology — every scheduled link/router death applied —
    under the fault-aware table routing the simulator will substitute, so a
    clean verdict certifies the reconfigured routing deadlock-free.
    """
    from repro.noc.routing import FaultAwareRouting

    noc = config.noc
    if noc.routing is RoutingAlgorithm.SOURCE:
        return None
    schedule = config.faults.permanent
    key: Tuple[object, ...] = (
        noc.topology,
        noc.shape,
        noc.routing.value,
        schedule,
    )
    verdict = _CDG_CACHE.get(key)
    if verdict is None:
        topology = make_topology(noc.topology, noc.shape, noc.link_latency)
        routing_fn = resolve_routing_function(noc.routing, topology)
        if schedule and noc.routing in (
            RoutingAlgorithm.XY,
            RoutingAlgorithm.FT_TABLE,
        ):
            # Mirror Network.__init__: these platforms run fault-aware
            # table routing, so verify what will actually execute once the
            # whole schedule has taken effect.
            if not isinstance(routing_fn, FaultAwareRouting):
                routing_fn = FaultAwareRouting(topology)
            dead_links = {
                (f.node, f.direction)
                for f in schedule
                if f.kind == "link" and f.direction is not None
            }
            if noc.num_vcs == 1:
                # A dead VC is the whole link when it is the only VC.
                dead_links |= {
                    (f.node, f.direction)
                    for f in schedule
                    if f.kind == "vc" and f.direction is not None
                }
            dead_routers = {f.node for f in schedule if f.kind == "router"}
            routing_fn.rebuild(dead_links, dead_routers)
        verdict = verify_deadlock_freedom(topology, routing_fn, noc.num_vcs)
        _CDG_CACHE[key] = verdict
    return verdict


def lint_config(
    config: SimulationConfig,
    *,
    cdg: bool = True,
    source: Optional[str] = None,
) -> DiagnosticReport:
    """Run every lint pass against a constructed config."""
    ctx = LintContext(
        data=config_to_dict(config),
        config=config,
        cdg=cdg_verdict_for(config) if cdg else None,
    )
    report = DiagnosticReport(run_rules(ctx))
    return report.with_source(source) if source else report


def lint_dict(
    data: Mapping[str, Any],
    *,
    cdg: bool = True,
    source: Optional[str] = None,
) -> DiagnosticReport:
    """Lint a raw serialized config dict.

    Construction failures are reported as ``NOC000`` (the config is not even
    representable) and the raw-dict rules still run, so a file with e.g. a
    too-shallow retransmission buffer gets the specific ``NOC002`` alongside
    the constructor's complaint.
    """
    config: Optional[SimulationConfig] = None
    failure: Optional[Diagnostic] = None
    try:
        with warnings.catch_warnings():
            # Construction-time advisories (e.g. the Eq. 1 warning) would be
            # duplicates here: the rules report them with ids and hints.
            warnings.simplefilter("ignore")
            data = upgrade_config_dict(data)
            config = config_from_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        failure = Diagnostic(
            rule_id="NOC000",
            severity=Severity.ERROR,
            message=f"config rejected by constructors: {exc}",
            hint="fix the field, then re-lint for semantic rules",
        )
    ctx = LintContext(
        data=data,
        config=config,
        cdg=cdg_verdict_for(config) if (cdg and config is not None) else None,
    )
    report = DiagnosticReport()
    if failure is not None:
        report.add(failure)
    report.extend(run_rules(ctx))
    return report.with_source(source) if source else report


def lint_path(path: Union[str, Path], *, cdg: bool = True) -> DiagnosticReport:
    """Lint one JSON config file, or every ``*.json`` under a directory."""
    return lint_paths([path], cdg=cdg)


def config_files(path: Union[str, Path]) -> List[Path]:
    """``path`` itself or, for a directory, every ``*.json`` beneath it,
    sorted: the one walker behind ``repro lint`` and ``repro verify``."""
    path = Path(path)
    return sorted(path.rglob("*.json")) if path.is_dir() else [path]


def lint_paths(
    paths: Iterable[Union[str, Path]], *, cdg: bool = True
) -> DiagnosticReport:
    """Lint many files/directories into one combined report."""
    report = DiagnosticReport()
    for path in paths:
        files = config_files(path)
        if not files:
            report.add(
                Diagnostic(
                    rule_id="NOC000",
                    severity=Severity.WARNING,
                    message="directory contains no *.json config files",
                    source=str(Path(path)),
                )
            )
        for file in files:
            report.extend(_lint_file(file, cdg=cdg))
    return report


def _lint_file(path: Path, *, cdg: bool) -> DiagnosticReport:
    source = str(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        return DiagnosticReport(
            [
                Diagnostic(
                    rule_id="NOC000",
                    severity=Severity.ERROR,
                    message=f"cannot read config file: {exc}",
                    source=source,
                )
            ]
        )
    except json.JSONDecodeError as exc:
        return DiagnosticReport(
            [
                Diagnostic(
                    rule_id="NOC000",
                    severity=Severity.ERROR,
                    message=f"invalid JSON: {exc}",
                    source=source,
                )
            ]
        )
    if not isinstance(data, dict):
        return DiagnosticReport(
            [
                Diagnostic(
                    rule_id="NOC000",
                    severity=Severity.ERROR,
                    message="top-level JSON value must be an object",
                    source=source,
                )
            ]
        )
    return lint_dict(data, cdg=cdg, source=source)
