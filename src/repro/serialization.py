"""Config and result (de)serialization.

Round-trippable dict/JSON forms for :class:`repro.config.SimulationConfig`
and :class:`repro.noc.simulator.SimulationResult`, so experiment campaigns
can be scripted, archived and diffed (`python -m repro run --json` uses
this, as do downstream analysis notebooks).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping

from repro.config import (
    FaultConfig,
    NoCConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.faults.intermittent import IntermittentFaultSchedule, WearOutConfig
from repro.faults.permanent import PermanentFaultSchedule
from repro.noc.simulator import SimulationResult
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.export import SCHEMA_VERSION
from repro.types import FaultSite, LinkProtection, RoutingAlgorithm


def upgrade_config_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Rewrite a config dict serialized by an earlier version into the one
    canonical spelling (a copy; already-canonical dicts pass through).

    The only place that knows the legacy keys, so stored journals,
    envelopes, config files and NDJSON headers keep loading:

    * ``noc.width``/``noc.height`` fold into ``noc.shape`` (a missing one
      defaults to 8); giving them *and* ``noc.shape`` is a ``ValueError``
      rather than a silent win for either;
    * ``activity_driven`` is dropped whatever its value (the loops are
      bit-for-bit equivalent, so it never changed a result).
    """
    out = {key: value for key, value in data.items() if key != "activity_driven"}
    noc = out.get("noc")
    if isinstance(noc, Mapping):
        legacy = [key for key in ("width", "height") if key in noc]
        if legacy:
            if "shape" in noc:
                raise ValueError(
                    f"noc.shape and noc.{'/noc.'.join(legacy)} are two "
                    "spellings of one platform; give noc.shape only"
                )
            noc = dict(noc)
            noc["shape"] = [noc.pop("width", 8), noc.pop("height", 8)]
            out["noc"] = noc
    return out


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """A JSON-safe dict capturing every field of a simulation config.

    Equal configs give equal dicts: ``noc.shape`` is always a list and
    ``noc.link_latency`` an int (uniform) or a per-axis list.
    """
    noc = dataclasses.asdict(config.noc)
    noc["routing"] = config.noc.routing.value
    noc["link_protection"] = config.noc.link_protection.value
    noc["shape"] = list(noc["shape"])
    if not isinstance(noc["link_latency"], int):
        noc["link_latency"] = list(noc["link_latency"])
    faults = {
        "rates": {site.value: rate for site, rate in config.faults.rates.items()},
        "link_multi_bit_fraction": config.faults.link_multi_bit_fraction,
        "seed": config.faults.seed,
        "permanent": config.faults.permanent.to_dicts(),
        "intermittent": config.faults.intermittent.to_dicts(),
        "wear_out": (
            config.faults.wear_out.to_dict()
            if config.faults.wear_out is not None
            else None
        ),
    }
    return {
        "noc": noc,
        "faults": faults,
        "workload": dataclasses.asdict(config.workload),
        "collect_power": config.collect_power,
        "collect_utilization": config.collect_utilization,
        "payload_ecc_check": config.payload_ecc_check,
        "invariant_checks": config.invariant_checks,
        "backend": config.backend,
        "telemetry": config.telemetry.to_dict(),
        "checkpoint_interval": config.checkpoint_interval,
        "checkpoint_path": config.checkpoint_path,
    }


def config_from_dict(data: Dict[str, Any]) -> SimulationConfig:
    """Inverse of :func:`config_to_dict` (also loads every earlier
    serialized form, through :func:`upgrade_config_dict`)."""
    data = upgrade_config_dict(data)
    noc_data = dict(data["noc"])
    noc_data["routing"] = RoutingAlgorithm(noc_data["routing"])
    noc_data["link_protection"] = LinkProtection(noc_data["link_protection"])
    faults_data = data["faults"]
    faults = FaultConfig(
        rates={
            FaultSite(name): rate for name, rate in faults_data["rates"].items()
        },
        link_multi_bit_fraction=faults_data["link_multi_bit_fraction"],
        seed=faults_data["seed"],
        permanent=PermanentFaultSchedule.from_dicts(
            faults_data.get("permanent", [])
        ),
        intermittent=IntermittentFaultSchedule.from_dicts(
            faults_data.get("intermittent", [])
        ),
        wear_out=WearOutConfig.from_dict(faults_data.get("wear_out")),
    )
    return SimulationConfig(
        noc=NoCConfig(**noc_data),
        faults=faults,
        workload=WorkloadConfig(**data["workload"]),
        collect_power=data.get("collect_power", True),
        collect_utilization=data.get("collect_utilization", False),
        payload_ecc_check=data.get("payload_ecc_check", False),
        invariant_checks=data.get("invariant_checks", False),
        backend=data.get("backend", "object"),
        telemetry=TelemetryConfig.from_dict(data.get("telemetry")),
        checkpoint_interval=data.get("checkpoint_interval"),
        checkpoint_path=data.get("checkpoint_path"),
    )


def config_to_json(config: SimulationConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def config_from_json(text: str) -> SimulationConfig:
    return config_from_dict(json.loads(text))


def result_to_dict(
    result: SimulationResult, include_config: bool = True
) -> Dict[str, Any]:
    """A JSON-safe dict of a run's outcome.

    ``include_config=False`` drops the embedded config copy — used by the
    CLI envelopes, where the config rides at the envelope's top level
    instead of inside each result.
    """
    out: Dict[str, Any] = {
        "cycles": result.cycles,
        "packets_injected": result.packets_injected,
        "packets_delivered": result.packets_delivered,
        "packets_lost": result.packets_lost,
        "measured_packets": result.measured_packets,
        "avg_latency": result.avg_latency,
        "avg_hops": result.avg_hops,
        "energy_per_packet_nj": result.energy_per_packet_nj,
        "throughput_flits_per_node_cycle": result.throughput_flits_per_node_cycle,
        "tx_buffer_utilization": result.tx_buffer_utilization,
        "retx_buffer_utilization": result.retx_buffer_utilization,
        "hit_cycle_limit": result.hit_cycle_limit,
        "counters": dict(result.counters),
        "energy_events": dict(result.energy_events),
    }
    if include_config:
        out["config"] = config_to_dict(result.config)
    if result.telemetry is not None:
        out["telemetry"] = result.telemetry.summary()
    return out


def result_from_dict(
    data: Dict[str, Any], config: SimulationConfig = None
) -> SimulationResult:
    """Inverse of :func:`result_to_dict`.

    The config is taken from ``data["config"]`` when present, else from the
    ``config`` argument (for dicts produced with ``include_config=False``).
    Telemetry summaries are not reconstructed into reports — a round-tripped
    result carries ``telemetry=None``.
    """
    if "config" in data:
        cfg = config_from_dict(data["config"])
    elif config is not None:
        cfg = config
    else:
        raise ValueError(
            "result dict has no embedded config; pass one via the "
            "config= argument"
        )
    return SimulationResult(
        config=cfg,
        cycles=data["cycles"],
        packets_injected=data["packets_injected"],
        packets_delivered=data["packets_delivered"],
        packets_lost=data["packets_lost"],
        measured_packets=data["measured_packets"],
        avg_latency=data["avg_latency"],
        avg_hops=data["avg_hops"],
        energy_per_packet_nj=data["energy_per_packet_nj"],
        # throughput_flits_per_node_cycle is derived, not a field
        tx_buffer_utilization=data["tx_buffer_utilization"],
        retx_buffer_utilization=data["retx_buffer_utilization"],
        counters=dict(data.get("counters", {})),
        energy_events=dict(data.get("energy_events", {})),
        hit_cycle_limit=data.get("hit_cycle_limit", False),
    )


def result_to_json(result: SimulationResult, indent: int = 2) -> str:
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def result_from_json(text: str) -> SimulationResult:
    return result_from_dict(json.loads(text))


def envelope(
    command: str,
    result: Any,
    config: Dict[str, Any] = None,
) -> Dict[str, Any]:
    """The versioned ``repro/v1`` machine-output wrapper.

    Every CLI subcommand's ``--json`` mode and the NDJSON telemetry header
    share this shape, so downstream tooling can dispatch on ``schema`` and
    ``command`` without sniffing payloads.
    """
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
