"""The durable campaign journal: append-only JSONL, crash-tolerant replay.

File format — a magic line, a JSON header, then one JSON record per
variant state transition::

    CAMPAIGN-JOURNAL
    {"schema": "repro/v1", "journal_version": 1, ...meta}
    {"type": "queued", "variant": 0, "name": ..., "config": {...}, ...}
    {"type": "leased", "variant": 0, "attempt": 1}
    {"type": "attempt", "variant": 0, "attempt": 1, "error": "...", ...}
    {"type": "done", "variant": 0, "row": {...}}

Appends are a single sequential ``write`` followed by ``flush`` +
``fsync``, so a SIGKILLed supervisor can tear at most the *final* line of
the file; :func:`read_journal` ignores a trailing partial record and
raises :class:`JournalError` only for corruption anywhere earlier (which a
crash cannot produce).  ``queued`` records carry the variant's full
serialized config, making the journal self-contained: ``repro campaign
--resume DIR`` rebuilds the whole work list from the journal alone and
re-enqueues only variants without a terminal ``done``/``failed``/
``timeout`` record — completed variants are never re-run.

Record vocabulary (the supervisor's event stream — this *is* the service
telemetry; counters are summarized in the terminal ``summary`` record):

========================  ==================================================
``queued``                variant admitted to the queue (carries config)
``leased``                attempt N handed to a worker process
``attempt``               attempt N failed (error, backoff ``retry_in``)
``checkpoint_discarded``  a corrupt/truncated checkpoint was dropped and
                          the retry restarted from cycle 0
``cache_hit``             variant served from the content-addressed cache
``done`` / ``failed`` /   terminal transition; carries the full result row
``timeout``
``deadline``              the whole-campaign deadline expired (per-variant
                          ``campaign_deadline`` rows follow as ``failed``)
``resumed``               a new supervisor took over this journal
``summary``               end-of-campaign service counters
========================  ==================================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.export import SCHEMA_VERSION

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "CampaignJournal",
    "JournalError",
    "JournalState",
    "read_journal",
]

JOURNAL_MAGIC = "CAMPAIGN-JOURNAL"

#: Bumped whenever the record vocabulary changes incompatibly.
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal file is missing, not a journal, or corrupt mid-file."""


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class CampaignJournal:
    """Append-side handle: one open file, fsynced line appends."""

    def __init__(self, path: Union[str, Path], fh: Any):
        self.path = Path(path)
        self._fh = fh

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
    ) -> "CampaignJournal":
        """Start a fresh journal (refuses to clobber an existing one)."""
        path = Path(path)
        if path.exists():
            raise JournalError(
                f"{path}: journal already exists — resume it or remove it"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"schema": SCHEMA_VERSION, "journal_version": JOURNAL_VERSION}
        header.update(meta or {})
        fh = open(path, "a", encoding="utf-8")
        journal = cls(path, fh)
        fh.write(JOURNAL_MAGIC + "\n")
        fh.write(_dumps(header) + "\n")
        journal._sync()
        return journal

    @classmethod
    def append_to(cls, path: Union[str, Path]) -> "CampaignJournal":
        """Open an existing journal for further appends (resume path).

        Repairs a torn final line first: a SIGKILLed append leaves a
        partial record with no trailing newline, and appending after it
        would weld the next record onto the fragment — turning damage
        :func:`read_journal` tolerates (a torn *tail*) into mid-file
        corruption it rejects.  Truncating back to the last committed
        newline restores the invariant that every record starts on a
        fresh line.
        """
        path = Path(path)
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith((JOURNAL_MAGIC + "\n").encode("utf-8")):
            raise JournalError(f"{path}: not a campaign journal (bad magic)")
        if not data.endswith(b"\n"):
            os.truncate(path, data.rfind(b"\n") + 1)
        return cls(path, open(path, "a", encoding="utf-8"))

    def append(self, type_: str, **fields: Any) -> None:
        """Durably append one record (a single write + flush + fsync, so a
        crash can only tear the final line)."""
        record = {"type": type_}
        record.update(fields)
        self._fh.write(_dumps(record) + "\n")
        self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._sync()
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class JournalState:
    """The file's content: the header and the ordered records.  What the
    records *mean* is :func:`repro.service.machine.replay`'s business."""

    meta: Dict[str, Any]
    #: Every fully-written record, in order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Whether the final line was torn (a crashed append) and ignored.
    torn_tail: bool = False


def read_journal(path: Union[str, Path]) -> JournalState:
    """Read a journal's header and records into a :class:`JournalState`.

    Tolerates exactly the damage a SIGKILL can cause — a torn *final*
    line — and raises :class:`JournalError` for anything else (bad magic,
    unparseable header, corruption mid-file).
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"{path}: no such journal")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    # A well-formed file ends with "\n", so split leaves a final "".
    complete, tail = lines[:-1], lines[-1]
    torn = tail != ""
    if not complete or complete[0] != JOURNAL_MAGIC:
        raise JournalError(f"{path}: not a campaign journal (bad magic)")
    if len(complete) < 2:
        if torn:
            raise JournalError(f"{path}: journal header never committed")
        raise JournalError(f"{path}: journal has no header")
    try:
        meta = json.loads(complete[1])
    except ValueError as exc:
        raise JournalError(f"{path}: unparseable journal header") from exc
    version = meta.get("journal_version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: journal version {version!r} is not supported by this "
            f"build (expects {JOURNAL_VERSION})"
        )
    state = JournalState(meta=meta, torn_tail=torn)
    for lineno, line in enumerate(complete[2:], start=3):
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise JournalError(
                f"{path}: corrupt record at line {lineno} (not a torn "
                "tail — the file was damaged after it was written)"
            ) from exc
        if not isinstance(record, dict):
            raise JournalError(f"{path}: record at line {lineno} is not an object")
        state.records.append(record)
    return state
