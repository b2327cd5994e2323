"""The stable public facade: ``import repro.api as api``.

Everything a script, notebook or external harness needs to drive the
simulator lives behind this one module, with small call-shaped functions
instead of the internal class constellation:

* :func:`load_config` — build a :class:`SimulationConfig` from a JSON file,
  a JSON string, a serialized dict, or keyword overrides
  (:func:`config_dict` stops at the dict, before any constructor runs).
* :func:`run` — run one simulation (telemetry and tracing optional).
* :func:`resume` — finish an interrupted run from a checkpoint file
  (:mod:`repro.checkpoint`; bit-for-bit equal to the uninterrupted run).
* :func:`sweep` — latency vs injection rate over one config.
* :func:`lint` — the static NOC0xx / deadlock-freedom checks.
* :func:`verify` — the routing certification engine: statically prove
  connectivity, livelock-freedom and deadlock-freedom (plus optional
  link-kill robustness sweeps) for a config.
* :func:`degrade` — the graceful-degradation campaign.
* :func:`campaign` / :func:`resume_campaign` — the durable campaign
  service: supervised variant grids with retry backoff, deadlines, a
  crash-proof journal and a content-addressed result cache
  (docs/CAMPAIGNS.md); :func:`variants_from_spec` reads its spec files.

The ``repro`` command line is a projection of this module: each subcommand
parses flags into the overrides above, makes one call here and renders the
result (:mod:`repro.cli` imports nothing else from the library).

Every heavyweight type these return is re-exported here, so user code can
type-annotate and introspect without reaching into internal modules::

    from repro import api

    config = api.load_config(shape="4x4", telemetry=True)
    result = api.run(config)
    print(result.telemetry.summary())

The internal module layout may shift between releases; this surface is the
compatibility contract (schema ``repro/v1``, see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.linter import (
    DiagnosticReport,
    config_files,
    lint_config,
    lint_dict,
    lint_paths,
)
from repro.analysis.rules import rule_catalogue
from repro.analysis.sanitizer import InvariantViolationError
from repro.campaign import (
    CampaignLintError,
    CampaignRow,
    campaign_row_to_dict,
    campaign_table,
    grid,
    run_campaign,
    variants_from_spec,
)
from repro.analysis.verify import (
    FaultSweepVerdict,
    RoutingCertificate,
    TraversalVerdict,
    certify_config,
    certify_routing,
)
from repro.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
    min_retx_depth,
    parse_link_latency,
    parse_shape,
)
from repro.experiments.degradation import (
    BurstDegradationPoint,
    DegradationPoint,
    run_burst_degradation,
    run_degradation,
)
from repro.faults.intermittent import (
    IntermittentFault,
    IntermittentFaultSchedule,
    WearOutConfig,
    parse_intermittent_spec,
)
from repro.faults.permanent import (
    PermanentFaultSchedule,
    parse_link_spec,
    parse_router_spec,
    parse_vc_spec,
)
from repro.noc.simulator import SimulationResult, Simulator, run_simulation
from repro.serialization import (
    config_from_dict,
    config_to_dict,
    envelope,
    result_from_dict,
    result_to_dict,
    upgrade_config_dict,
)
from repro.service import (
    JournalError,
    ResultCache,
    RetryPolicy,
    cache_key,
    read_journal,
    resume_campaign,
)
from repro.telemetry import (
    TelemetryConfig,
    TelemetryReport,
    validate_ndjson_lines,
    write_ndjson,
)

__all__ = [
    "BurstDegradationPoint",
    "CampaignLintError",
    "CampaignRow",
    "CheckpointError",
    "DegradationPoint",
    "DiagnosticReport",
    "FaultConfig",
    "FaultSweepVerdict",
    "IntermittentFault",
    "IntermittentFaultSchedule",
    "InvariantViolationError",
    "JournalError",
    "WearOutConfig",
    "RoutingCertificate",
    "TraversalVerdict",
    "certify_config",
    "certify_routing",
    "NoCConfig",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "TelemetryConfig",
    "TelemetryReport",
    "WorkloadConfig",
    "ResultCache",
    "RetryPolicy",
    "cache_key",
    "campaign",
    "campaign_row_to_dict",
    "campaign_table",
    "config_dict",
    "config_files",
    "config_from_dict",
    "config_to_dict",
    "degrade",
    "degrade_burst",
    "envelope",
    "faults_from_specs",
    "grid",
    "lint",
    "lint_dict",
    "lint_paths",
    "load_checkpoint",
    "load_config",
    "min_retx_depth",
    "parse_link_latency",
    "parse_shape",
    "read_checkpoint_header",
    "read_journal",
    "result_from_dict",
    "result_to_dict",
    "resume",
    "resume_campaign",
    "rule_catalogue",
    "run",
    "run_campaign",
    "save_checkpoint",
    "sweep",
    "validate_ndjson_lines",
    "variants_from_spec",
    "verify",
    "write_ndjson",
]

ConfigLike = Union[SimulationConfig, Mapping[str, Any], str, Path]


def load_config(source: Optional[ConfigLike] = None, **overrides: Any) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from whatever the caller has.

    ``source`` may be an existing config (returned as-is unless overridden),
    a serialized dict, a path to a JSON config file, or a JSON string.
    Keyword overrides use the flat names scripts actually vary:
    ``shape, link_latency, vcs, buffer_depth, flits, retx_depth, routing,
    scheme, rate, messages, warmup, seed, max_cycles, pattern,
    link_error_rate, faults, telemetry, metrics_interval`` — any
    :class:`NoCConfig`/:class:`WorkloadConfig` field name also works, as do
    the top-level ``backend, invariant_checks, collect_utilization,
    payload_ecc_check, checkpoint_interval, checkpoint_path``.  ``shape``
    accepts a tuple or the CLI's ``"4x4x4"`` grammar; ``link_latency``
    accepts an int, a per-axis tuple, or ``"1,1,2"``.

    ``telemetry`` accepts a :class:`TelemetryConfig`, a dict, or ``True``
    (enable with defaults); ``faults`` accepts a :class:`FaultConfig` or a
    serialized faults dict, laid over the source's ``faults`` section.
    """
    return config_from_dict(config_dict(source, **overrides))


def config_dict(
    source: Optional[ConfigLike] = None, **overrides: Any
) -> Dict[str, Any]:
    """:func:`load_config` minus the constructors: the complete serialized
    dict for ``source`` with ``overrides`` applied.  Only the ``shape`` and
    ``link_latency`` grammar is checked, so values the constructors reject
    survive for :func:`lint_dict` to diagnose (how ``repro lint`` reads
    its flags)."""
    data = upgrade_config_dict(_source_to_dict(source))
    _apply_overrides(data, overrides)
    return data


def _source_to_dict(source: Optional[ConfigLike]) -> Dict[str, Any]:
    if source is None:
        return config_to_dict(SimulationConfig())
    if isinstance(source, SimulationConfig):
        return config_to_dict(source)
    if isinstance(source, Mapping):
        return json.loads(json.dumps(dict(source)))  # deep copy, JSON-safe
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        text = Path(source).read_text()
        return json.loads(text)
    return json.loads(source)


#: Flat override aliases -> (section, field).
_ALIASES = {
    "vcs": ("noc", "num_vcs"),
    "buffer_depth": ("noc", "vc_buffer_depth"),
    "flits": ("noc", "flits_per_packet"),
    "retx_depth": ("noc", "retx_buffer_depth"),
    "scheme": ("noc", "link_protection"),
    "rate": ("workload", "injection_rate"),
    "messages": ("workload", "num_messages"),
    "warmup": ("workload", "warmup_messages"),
}

_NOC_FIELDS = {f.name for f in dataclasses.fields(NoCConfig)}
_WORKLOAD_FIELDS = {f.name for f in dataclasses.fields(WorkloadConfig)}


def _apply_overrides(data: Dict[str, Any], overrides: Dict[str, Any]) -> None:
    for key, value in overrides.items():
        if key == "telemetry":
            if value is True:
                value = {"enabled": True}
            elif value is False:
                value = {"enabled": False}
            elif isinstance(value, TelemetryConfig):
                value = value.to_dict()
            data["telemetry"] = dict(value)
        elif key == "metrics_interval":
            tel = data.setdefault("telemetry", {"enabled": True})
            tel["metrics_interval"] = value
        elif key == "faults":
            if isinstance(value, FaultConfig):
                value = config_to_dict(SimulationConfig(faults=value))["faults"]
            data["faults"] = {**data.get("faults", {}), **value}
        elif key == "link_error_rate":
            data.setdefault("faults", {}).setdefault("rates", {})["link"] = value
        elif key == "seed":
            data.setdefault("workload", {})["seed"] = value
            data.setdefault("faults", {})["seed"] = value
        elif key in _ALIASES:
            section, name = _ALIASES[key]
            data.setdefault(section, {})[name] = value
        elif key == "shape":
            data.setdefault("noc", {})["shape"] = list(parse_shape(value))
        elif key == "link_latency":
            latency = parse_link_latency(value)
            data.setdefault("noc", {})["link_latency"] = (
                latency if isinstance(latency, int) else list(latency)
            )
        elif key in _NOC_FIELDS:
            data.setdefault("noc", {})[key] = value
        elif key in _WORKLOAD_FIELDS:
            data.setdefault("workload", {})[key] = value
        elif key in (
            "invariant_checks",
            "backend",
            "collect_utilization",
            "payload_ecc_check",
            "checkpoint_interval",
            "checkpoint_path",
        ):
            data[key] = value
        else:
            raise TypeError(
                f"load_config() got an unknown override {key!r} (mesh "
                "extents are shape=; the docstring lists the other names)"
            )


def faults_from_specs(
    rates: Mapping[str, float],
    multi_bit_fraction: float = 0.1,
    *,
    dead_links: Sequence[str] = (),
    dead_routers: Sequence[str] = (),
    dead_vcs: Sequence[str] = (),
    intermittent_links: Sequence[str] = (),
    wear_out: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """A ``faults=`` override in ``repro run``'s fault vocabulary: ``rates``
    by :class:`~repro.types.FaultSite` value (zeros dropped) and spec
    strings — ``"12:east@500"`` (link), ``"27"`` (router),
    ``"9:north:1@800"`` (VC), ``"12:east:0.4:30:200"`` (intermittent) —
    a malformed one being a :class:`ValueError`.  Returns the serialized
    ``faults`` section minus ``seed``; no :class:`FaultConfig` is built, so
    out-of-range rates survive for lint."""
    permanent = [parse_link_spec(spec) for spec in dead_links]
    permanent += [parse_router_spec(spec) for spec in dead_routers]
    permanent += [parse_vc_spec(spec) for spec in dead_vcs]
    intermittent = [parse_intermittent_spec(spec) for spec in intermittent_links]
    return {
        "rates": {site: rate for site, rate in rates.items() if rate},
        "link_multi_bit_fraction": multi_bit_fraction,
        "permanent": PermanentFaultSchedule.of(*permanent).to_dicts(),
        "intermittent": IntermittentFaultSchedule.of(*intermittent).to_dicts(),
        "wear_out": dict(wear_out) if wear_out is not None else None,
    }


def run(
    config: Optional[ConfigLike] = None,
    *,
    telemetry_path: Optional[Union[str, Path]] = None,
    **overrides: Any,
) -> SimulationResult:
    """Run one simulation.

    Accepts anything :func:`load_config` does.  When ``telemetry_path`` is
    given, telemetry is force-enabled and the NDJSON stream is written
    there after the run.
    """
    if telemetry_path is not None and "telemetry" not in overrides:
        # First, so a metrics_interval= override lands on the enabled section.
        overrides = {"telemetry": True, **overrides}
    if isinstance(config, SimulationConfig) and not overrides:
        cfg = config
    else:
        cfg = load_config(config, **overrides)
    result = run_simulation(cfg)
    if telemetry_path is not None and result.telemetry is not None:
        write_ndjson(
            result.telemetry, telemetry_path, config=config_to_dict(cfg)
        )
    return result


def resume(
    path: Union[str, Path],
    *,
    telemetry_path: Optional[Union[str, Path]] = None,
) -> SimulationResult:
    """Finish an interrupted run from its checkpoint file.

    Bit-for-bit equivalent to never having been interrupted (see
    docs/CHECKPOINTING.md), on the engine that wrote the checkpoint.
    ``telemetry_path`` exports the NDJSON stream after completion, exactly
    as :func:`run` would have."""
    sim = load_checkpoint(path)
    result = sim.run()
    if telemetry_path is not None and result.telemetry is not None:
        write_ndjson(
            result.telemetry,
            telemetry_path,
            config=config_to_dict(sim.config),
        )
    return result


def sweep(
    config: Optional[ConfigLike] = None,
    rates: Optional[List[float]] = None,
    **overrides: Any,
) -> List[SimulationResult]:
    """Run the same config at several injection rates (saturation curves).

    Returns one :class:`SimulationResult` per rate, in order; each result's
    ``config.workload.injection_rate`` records its rate.
    """
    if rates is None:
        rates = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    base = config_to_dict(load_config(config, **overrides))
    out = []
    for rate in rates:
        point = json.loads(json.dumps(base))
        point.setdefault("workload", {})["injection_rate"] = rate
        out.append(run_simulation(config_from_dict(point)))
    return out


def lint(
    target: Optional[ConfigLike] = None,
    *,
    cdg: bool = True,
    **overrides: Any,
) -> DiagnosticReport:
    """Statically check a config (or config files) for NoC hazards.

    ``target`` may be anything :func:`load_config` accepts; a path to a
    JSON file or a directory of them is linted file-by-file like the CLI's
    ``repro lint <paths>``.
    """
    if isinstance(target, (str, Path)) and Path(target).exists():
        return lint_paths([target], cdg=cdg)
    return lint_config(load_config(target, **overrides), cdg=cdg)


def verify(
    target: Optional[ConfigLike] = None,
    *,
    single_link_kills: bool = False,
    multi_kills: Any = (),
    samples: int = 12,
    sweep_seed: int = 2006,
    **overrides: Any,
) -> Dict[str, Any]:
    """Statically certify the routing a config will run.

    Returns the JSON-ready certificate entry (the same shape ``repro
    verify --json`` emits per config): a ``routing`` block with the
    connectivity / livelock-freedom / deadlock-freedom verdicts and any
    witnesses, plus optional ``single_link_kills`` / ``multi_link_kills``
    robustness sweeps of the fault-aware rebuild.  ``target`` may be
    anything :func:`load_config` accepts.
    """
    return certify_config(
        load_config(target, **overrides),
        single_link_kills=single_link_kills,
        multi_kills=tuple(multi_kills),
        samples=samples,
        seed=sweep_seed,
    )


#: The graceful-degradation campaign and its intermittent/wear-out companion
#: (keywords: :mod:`repro.experiments.degradation`).
degrade = run_degradation
degrade_burst = run_burst_degradation


def campaign(
    variants: Optional[List[Any]] = None,
    *,
    axes: Optional[Mapping[str, List[Any]]] = None,
    base: Optional[ConfigLike] = None,
    **kwargs: Any,
) -> Any:
    """Run a campaign of config variants under the campaign service.

    Pass either explicit ``variants`` — ``(name, SimulationConfig)``
    pairs — or ``axes`` (dotted-path → values, expanded as a cartesian
    :func:`grid` over ``base``).  All of
    :func:`repro.campaign.run_campaign`'s keywords pass through:
    ``processes``, ``retries``, ``timeout``, ``deadline``, ``backoff``
    (a :class:`RetryPolicy`), ``journal_path``, ``cache_dir``,
    ``checkpoint_dir``, ``return_stats``, ...  Resume a journaled
    campaign with :func:`resume_campaign`.  See docs/CAMPAIGNS.md.
    """
    if variants is None:
        if axes is None:
            raise ValueError("campaign() needs variants or axes")
        base_config = load_config(base) if base is not None else None
        variants = grid(axes, base_config)
    elif axes is not None:
        raise ValueError("give either variants or axes, not both")
    return run_campaign(variants, **kwargs)
