"""Crash-safe checkpoint/resume for simulations.

A checkpoint is a complete, versioned snapshot of a mid-run
:class:`~repro.noc.simulator.Simulator` — every router's VC buffers and
pipeline registers, the retransmission barrel buffers, link delay lines
and wake sets, NI queues and ``e2e_copies``, the scheduled-event heap,
permanent-fault cursors, probe/deadlock state, both RNGs (traffic and
fault injection), stats counters and telemetry rings.  Resuming from a
checkpoint continues the run **bit-for-bit**: the final result, every
counter and the NDJSON telemetry stream are identical to an uninterrupted
run on both cycle loops (``tests/noc/test_checkpoint.py`` is the oracle,
docs/CHECKPOINTING.md the design note).

File format (magic + versioned JSON header + pickle payload + checksum)::

    REPRO-CKPT\\n
    {"schema": "repro/v1", "checkpoint_version": 4, "cycle": ..., ...}\\n
    <pickle bytes>

The header is readable without unpickling (:func:`read_checkpoint_header`)
and carries a SHA-256 of the payload, so a torn or corrupted file is
rejected with :class:`CheckpointError` instead of resuming from garbage.
Writes are atomic (temp file + fsync + rename): a crash mid-write leaves
the previous checkpoint intact.

Security note: the payload is a pickle and is only integrity-checked, not
authenticated — load checkpoints you wrote yourself, like any pickle.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.noc.simulator import Simulator
from repro.serialization import config_to_dict
from repro.telemetry.export import SCHEMA_VERSION

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "load_checkpoint",
    "read_checkpoint_header",
    "save_checkpoint",
]

MAGIC = b"REPRO-CKPT\n"

#: Bumped whenever the pickled object graph changes shape incompatibly.
#: Loaders accept exactly their own version — see docs/CHECKPOINTING.md
#: for the compatibility policy.
CHECKPOINT_VERSION = 4

#: Pinned so checkpoints written by newer Pythons stay readable by the
#: oldest supported interpreter (3.9 < protocol 5's default adoption).
PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, corrupt or incompatible."""


def save_checkpoint(sim: Simulator, path: Union[str, Path]) -> Path:
    """Atomically snapshot ``sim`` to ``path``.

    The simulator must be between cycles (which it always is outside
    ``Network.step``); the snapshot captures the entire object graph in a
    single pickle so shared references (stats collector, telemetry bus,
    wake sets) survive intact.
    """
    path = Path(path)
    payload = pickle.dumps(sim, protocol=PICKLE_PROTOCOL)
    header = {
        "schema": SCHEMA_VERSION,
        "checkpoint_version": CHECKPOINT_VERSION,
        "cycle": sim.network.cycle,
        "completed": sim.network.completed,
        "config": config_to_dict(sim.config),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "pickle_protocol": PICKLE_PROTOCOL,
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header_line.encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _read_header(fh: io.BufferedReader, path: Path) -> Dict[str, Any]:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint (bad magic)")
    header_line = fh.readline()
    if not header_line.endswith(b"\n"):
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise CheckpointError(f"{path}: unparseable checkpoint header") from exc
    version = header.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} is not supported by "
            f"this build (expects {CHECKPOINT_VERSION}); re-run from the "
            "original config instead of resuming"
        )
    return header


def read_checkpoint_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Return the JSON header (cycle, config, checksum, ...) without
    unpickling the payload — cheap inspection for tooling and supervisors."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(
    path: Union[str, Path], *, backend: Optional[str] = None
) -> Simulator:
    """Restore a :class:`Simulator` from ``path``, verifying the payload
    checksum first.  The returned simulator carries ``resumed_from_cycle``
    and finishes the run via ``sim.run()`` exactly as the original would
    have.

    A checkpoint always resumes on the backend that wrote it (recorded in
    the header's config).  Pass ``backend`` to *assert* which backend that
    is: a mismatch raises :class:`CheckpointError` before unpickling.
    Cross-backend resume is deliberately unsupported — the two backends
    snapshot different state shapes, and a silent conversion could not be
    bit-for-bit audited (see docs/CHECKPOINTING.md)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: no such checkpoint")
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        if backend is not None:
            recorded = header.get("config", {}).get("backend", "object")
            if backend != recorded:
                raise CheckpointError(
                    f"{path}: checkpoint was written by the {recorded!r} "
                    f"backend but backend={backend!r} was requested; "
                    "cross-backend resume is not supported — resume on the "
                    "recorded backend, or restart from the original config"
                )
        payload = fh.read()
    expected_bytes = header.get("payload_bytes")
    if expected_bytes is not None and len(payload) != expected_bytes:
        raise CheckpointError(
            f"{path}: truncated payload ({len(payload)} of "
            f"{expected_bytes} bytes)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch")
    try:
        sim = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any unpickling failure
        raise CheckpointError(f"{path}: failed to unpickle payload: {exc}") from exc
    if not isinstance(sim, Simulator):
        raise CheckpointError(
            f"{path}: payload is a {type(sim).__name__}, not a Simulator"
        )
    sim.resumed_from_cycle = sim.network.cycle
    return sim
