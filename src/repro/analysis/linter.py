"""The config linter: rule catalogue + CDG pass over one or many configs.

Entry points:

* :func:`lint_config` — lint an in-process :class:`SimulationConfig`
  (used by campaigns before burning simulation cycles).
* :func:`lint_dict` — lint a raw serialized config dict; range errors the
  constructors would raise become ``NOC000`` diagnostics instead of
  tracebacks.
* :func:`lint_path` / :func:`lint_paths` — lint JSON config files or
  directories of them (the ``repro lint`` CLI).

The channel-dependency-graph verdict is memoized (``_CDG_CACHE``) because
campaign grids lint hundreds of variants that share a platform.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.analysis.cdg import CDGVerdict, verify_deadlock_freedom
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.rules import LintContext, run_rules
from repro.analysis.verify import static_routing_for, topology_of
from repro.config import SimulationConfig
from repro.noc.routing import check_fault_sites
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    upgrade_config_dict,
)
from repro.types import RoutingAlgorithm

#: Everything a verdict depends on -> verdict: the platform, the routing
#: :func:`static_routing_for` resolves from the permanent schedule and the
#: can-lose-components substitution, and the VC count it reports (which also
#: decides when a link has lost its last VC).
_CDG_CACHE: Dict[Tuple[object, ...], CDGVerdict] = {}


def cdg_verdict_for(config: SimulationConfig) -> Optional[CDGVerdict]:
    """The (memoized) CDG verdict for a config's platform.

    Returns None for source routing, which has no static routing relation.
    The verdict covers what :func:`static_routing_for` resolves: when the
    platform can lose components, the fault-aware table routing the
    simulator substitutes, on the *fully degraded* topology — every
    scheduled link/router/last-VC death applied — so a clean verdict
    certifies the reconfigured routing deadlock-free.
    """
    noc = config.noc
    if noc.routing is RoutingAlgorithm.SOURCE:
        return None
    key: Tuple[object, ...] = (
        noc.topology,
        noc.shape,
        noc.routing.value,
        noc.num_vcs,
        config.faults.permanent,
        config.faults.can_lose_components,
    )
    verdict = _CDG_CACHE.get(key)
    if verdict is None:
        topology = topology_of(config)
        routing_fn, _ = static_routing_for(config, topology)
        verdict = verify_deadlock_freedom(topology, routing_fn, noc.num_vcs)
        _CDG_CACHE[key] = verdict
    return verdict


def _lint(
    data: Mapping[str, Any],
    config: Optional[SimulationConfig],
    rejection: Optional[Exception],
    cdg: bool,
    source: Optional[str],
) -> DiagnosticReport:
    """Every pass, for both entry points.  A config whose faults name a
    component its platform lacks is treated like one the constructors
    refused (``Network`` would refuse it): ``NOC000``, and only the
    raw-dict rules run."""
    if config is not None:
        try:
            check_fault_sites(config, topology_of(config))
        except ValueError as exc:
            config, rejection = None, exc
    report = DiagnosticReport()
    if rejection is not None:
        report.add(
            Diagnostic(
                rule_id="NOC000",
                severity=Severity.ERROR,
                message=f"config rejected by constructors: {rejection}",
                hint="fix the field, then re-lint for semantic rules",
            )
        )
    ctx = LintContext(
        data=data,
        config=config,
        cdg=cdg_verdict_for(config) if (cdg and config is not None) else None,
    )
    report.extend(run_rules(ctx))
    return report.with_source(source) if source else report


def lint_config(
    config: SimulationConfig,
    *,
    cdg: bool = True,
    source: Optional[str] = None,
) -> DiagnosticReport:
    """Run every lint pass against a constructed config."""
    return _lint(config_to_dict(config), config, None, cdg, source)


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
    rejection: Optional[Exception] = None
    try:
        with warnings.catch_warnings():
            # Construction-time advisories (e.g. the Eq. 1 warning) would be
            # duplicates here: the rules report them with ids and hints.
            warnings.simplefilter("ignore")
            data = upgrade_config_dict(data)
            config = config_from_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        rejection = exc
    return _lint(data, config, rejection, cdg, source)


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
