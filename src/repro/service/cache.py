"""Content-addressed result cache for campaign variants.

Simulations are deterministic functions of their config, so a variant's
result can be cached under the SHA-256 of its canonical config JSON — the
same digest family the checkpoint header carries for its payload.  Two
variants with different *names* but identical configs share one cache
entry; a repeated campaign over the same grid is served entirely from
cache (``metadata["cache_hit"] = True``) without spawning a worker.

The key deliberately excludes ``checkpoint_interval``/``checkpoint_path``:
those are supervision infrastructure, not part of the experiment, and a
result must not change identity because a different campaign checkpointed
it on a different schedule.  For the same reason :func:`result_core`
strips the ``checkpoints_written`` counter from the cached row — every
other field of the stored envelope is bit-for-bit reproducible
(docs/CHECKPOINTING.md's resume guarantee extends to campaign retries).

Entries are ``repro/v1`` envelopes written atomically (temp + fsync +
rename) as ``<sha256>.json``; a torn or hand-damaged entry reads as a
cache miss, never as a wrong result.  ``--cache-verify`` mode re-runs the
simulation anyway and byte-compares the fresh canonical envelope against
the stored one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.telemetry.export import SCHEMA_VERSION

__all__ = [
    "CACHE_ENVELOPE_COMMAND",
    "ResultCache",
    "cache_config",
    "cache_key",
    "canonical_envelope",
    "result_core",
]

CACHE_ENVELOPE_COMMAND = "campaign-variant"

#: Config keys that describe supervision infrastructure or the engine
#: (both engines give bit-for-bit equal results), not the experiment;
#: they must not change a result's identity.
_INFRA_CONFIG_KEYS = ("backend", "checkpoint_interval", "checkpoint_path")

#: Counters that record supervision activity rather than simulated
#: behaviour; stripped from cached rows so the envelope is identical
#: whether or not (and how often) the run was checkpointed.
_INFRA_COUNTERS = frozenset({"checkpoints_written"})

#: The deterministic row fields a cache entry stores (everything except
#: names, diagnostics and supervision metadata).
_CORE_FIELDS = (
    "avg_latency",
    "avg_hops",
    "energy_per_packet_nj",
    "throughput",
    "packets_delivered",
    "packets_lost",
    "error",
)


def cache_config(config_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The serialized config with supervision-infrastructure keys removed
    (the form the cache key and the stored envelope use)."""
    return {
        key: value
        for key, value in config_dict.items()
        if key not in _INFRA_CONFIG_KEYS
    }


def cache_key(config_dict: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the variant's canonical config JSON."""
    canonical = json.dumps(
        cache_config(config_dict), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_core(row: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic core of a result row: headline metrics + counters,
    minus supervision provenance (attempts, resume cycles, cache flags)."""
    core = {name: row[name] for name in _CORE_FIELDS}
    core["counters"] = {
        name: count
        for name, count in sorted(row.get("counters", {}).items())
        if name not in _INFRA_COUNTERS
    }
    return core


def canonical_envelope(
    config_dict: Dict[str, Any], row: Dict[str, Any]
) -> bytes:
    """The exact bytes a cache entry stores: a compact, key-sorted
    ``repro/v1`` envelope of the variant's config and core result.  Two
    executions of the same config must produce identical bytes — the chaos
    drill (tools/chaos_campaign.py) holds the service to that."""
    envelope = {
        "schema": SCHEMA_VERSION,
        "command": CACHE_ENVELOPE_COMMAND,
        "config": cache_config(config_dict),
        "result": result_core(row),
    }
    return (
        json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class ResultCache:
    """A directory of ``<sha256>.json`` result envelopes."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored core result for ``key``, or None.

        Anything unexpected — missing file, torn write, hand-edited JSON,
        wrong schema — is a miss: the variant is simply re-simulated.
        """
        path = self.path(key)
        try:
            data = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != SCHEMA_VERSION
            or data.get("command") != CACHE_ENVELOPE_COMMAND
            or not isinstance(data.get("result"), dict)
        ):
            return None
        return data["result"]

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored envelope bytes (for ``--cache-verify`` comparison)."""
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, envelope_bytes: bytes) -> Path:
        """Atomically store an envelope (last writer wins — both wrote the
        same bytes if the determinism contract holds)."""
        path = self.path(key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(envelope_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))  # det: ok — a count
