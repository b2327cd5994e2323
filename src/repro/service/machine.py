"""The campaign state machine: the journal vocabulary as code.

One variant is a :class:`Job` moving through four states::

    NEW ──queued──▶ QUEUED ──leased──▶ LEASED ──done/failed/timeout──▶ FINISHED
                      ▲  │                │
                      │  └─done/failed────┼──▶ FINISHED   (cache hit, deadline)
                      └──────attempt──────┘                (retry after backoff)

:func:`decide` maps ``(job, event, settings)`` to the records a supervisor
must journal and the actions it must then take; it mutates nothing and
raises :class:`IllegalTransition` for an event the job's state forbids.
:func:`apply` is the **only** place job state and the record-derivable
counters change: the live supervisor journals each decided record and then
applies it, and resume applies every record the journal holds
(:func:`replay`, the journal's one per-variant fold), so the two agree by
construction.  Nothing here touches a process, a clock or a file
(tests/test_service_machine.py; docs/CAMPAIGNS.md has the full table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.service.cache import cache_key
from repro.service.policy import CampaignSettings

Record = Dict[str, Any]


class IllegalTransition(ValueError):
    """An event or journal record that the job's current state forbids."""


class JobState(Enum):
    NEW = "new"  # on the work list, not yet journaled
    QUEUED = "queued"  # waiting for a worker slot (or out a backoff)
    LEASED = "leased"  # an attempt is in flight
    FINISHED = "finished"  # terminal: ``row`` is final


@dataclass
class Job:
    """One variant: immutable identity plus the state :func:`apply` owns."""

    index: int
    name: str
    config: Dict[str, Any]
    key: str
    state: JobState = JobState.NEW
    attempts: int = 0
    attempt_errors: List[str] = field(default_factory=list)
    checkpoint_discarded: Optional[str] = None
    row: Optional[Dict[str, Any]] = None


# -- events: what a supervisor observes ------------------------------------------


class Enqueue(NamedTuple):
    """The variant is admitted to the queue."""


class Launch(NamedTuple):
    """A worker slot is free and the job's backoff (if any) has elapsed."""


class CacheHit(NamedTuple):
    """The result cache already holds this config's result core."""

    result: Dict[str, Any]


class Finished(NamedTuple):
    """The worker left a complete result row, successful or not;
    ``cache_verified`` is the ``cache_verify`` verdict (None: not compared)."""

    row: Dict[str, Any]
    cache_verified: Optional[bool] = None


class Died(NamedTuple):
    """The worker exited without a result file (OOM killer, SIGKILL)."""

    exitcode: Optional[int]


class TimedOut(NamedTuple):
    """The per-attempt watchdog killed the worker."""

    last_checkpoint_cycle: Optional[int] = None


class Expired(NamedTuple):
    """The whole-campaign deadline passed this job by."""


# -- decide ----------------------------------------------------------------------

_DECIDABLE = {
    Enqueue: (JobState.NEW,),
    Launch: (JobState.QUEUED,),
    CacheHit: (JobState.QUEUED,),
    Finished: (JobState.LEASED,),
    Died: (JobState.LEASED,),
    TimedOut: (JobState.LEASED,),
    Expired: (JobState.QUEUED, JobState.LEASED),
}


def failed_row(name: str, config: Dict[str, Any], error: str) -> Dict[str, Any]:
    """The zero-metric row of a variant (or attempt) that produced nothing."""
    return {
        "name": name,
        "config": config,
        "avg_latency": 0.0,
        "avg_hops": 0.0,
        "energy_per_packet_nj": 0.0,
        "throughput": 0.0,
        "packets_delivered": 0,
        "packets_lost": 0,
        "counters": {},
        "error": error,
        "resumed_from_cycle": None,
    }


def _record(kind: str, job: Job, **fields: Any) -> Record:
    return {"type": kind, "variant": job.index, **fields}


def _terminal(
    job: Job, kind: str, row: Dict[str, Any], errors: Sequence[str]
) -> Record:
    """The terminal record: the row completed with the job's whole history,
    not just the final attempt's share of it."""
    row = dict(row)
    row.setdefault("attempts", job.attempts)
    if errors:
        row["attempt_errors"] = list(errors)
    if job.checkpoint_discarded is not None:
        row.setdefault("checkpoint_discarded", job.checkpoint_discarded)
    return _record(kind, job, row=row)


def decide(
    job: Job, event: Any, settings: CampaignSettings
) -> Tuple[List[Record], List[Tuple[Any, ...]]]:
    """The records to journal for ``event`` and the actions to take once
    they are: ``("spawn",)``, ``("requeue", delay_s)``, ``("drop_checkpoint",)``."""
    kind = type(event)
    if job.state not in _DECIDABLE.get(kind, ()) or (
        kind is CacheHit and job.attempts  # consulted before the first attempt only
    ):
        raise IllegalTransition(
            f"variant {job.index} ({job.name!r}) is {job.state.value} after "
            f"{job.attempts} attempt(s): {kind.__name__} is not legal there"
        )
    if kind is Enqueue:
        queued = _record(
            "queued", job, name=job.name, config=job.config, config_sha256=job.key
        )
        return [queued], []
    if kind is Launch:
        return [_record("leased", job, attempt=job.attempts + 1)], [("spawn",)]
    if kind is CacheHit:
        row = dict(event.result, name=job.name, config=job.config, cache_hit=True)
        hit = _record("cache_hit", job, key=job.key)
        return [hit, _terminal(job, "done", row, job.attempt_errors)], []
    if kind is Expired:
        row = failed_row(job.name, job.config, "campaign_deadline")
        return [_terminal(job, "failed", row, job.attempt_errors)], []

    # An attempt ended; whichever way, it is one row from here on.
    if kind is Died:
        error = f"worker died without a result (exit code {event.exitcode})"
        row = failed_row(job.name, job.config, error)
    elif kind is TimedOut:
        row = failed_row(job.name, job.config, "timeout")
        if event.last_checkpoint_cycle is not None:
            row["last_checkpoint_cycle"] = event.last_checkpoint_cycle
    else:
        row = dict(event.row)
    records: List[Record] = []
    discarded = row.get("checkpoint_discarded")
    if discarded is not None:
        records.append(
            _record(
                "checkpoint_discarded", job, attempt=job.attempts, error=discarded
            )
        )
    error = row["error"]
    if error is None:  # only a Finished row can say so
        if event.cache_verified is not None:
            row["cache_verified"] = event.cache_verified
            if not event.cache_verified:
                records.append(_record("cache_mismatch", job, key=job.key))
        records.append(_terminal(job, "done", row, job.attempt_errors))
        return records, [("drop_checkpoint",)]
    if job.attempts <= settings.retries:
        pause = settings.backoff.delay(job.index, job.attempts)
        records.append(
            _record(
                "attempt",
                job,
                attempt=job.attempts,
                error=error,
                retry_in=round(pause, 6),
            )
        )
        return records, [("requeue", pause)]
    terminal = "timeout" if error == "timeout" else "failed"
    records.append(_terminal(job, terminal, row, job.attempt_errors + [error]))
    return records, []


# -- apply -----------------------------------------------------------------------

_Q, _L, _F = JobState.QUEUED, JobState.LEASED, JobState.FINISHED

#: Per-variant record type → (the states it may be applied in, the next state).
_TRANSITIONS = {
    "queued": ((JobState.NEW,), _Q),
    "leased": ((_Q,), _L),
    "attempt": ((_L,), _Q),
    "checkpoint_discarded": ((_L,), _L),
    "cache_hit": ((_Q,), _Q),
    "cache_mismatch": ((_L,), _L),
    "done": ((_Q, _L), _F),
    "failed": ((_Q, _L), _F),
    "timeout": ((_L,), _F),
}

_COUNTS = (
    "completed failed attempts retries timeouts cache_hits cache_mismatches "
    "checkpoints_discarded deadline_failed"
).split()


class Campaign:
    """Every job of one campaign plus the counters its records imply."""

    def __init__(self, items: Iterable[Tuple[str, Dict[str, Any], str]]):
        self.jobs = [
            Job(index, name, config, key)
            for index, (name, config, key) in enumerate(items)
        ]
        self.counters: Dict[str, Any] = dict.fromkeys(_COUNTS, 0)
        self.counters.update(deadline_expired=False, backoff_total_s=0.0)

    def in_state(self, state: JobState) -> List[Job]:
        return [job for job in self.jobs if job.state is state]

    @property
    def rows(self) -> List[Optional[Dict[str, Any]]]:
        """Final rows in queue order (None for an unfinished variant)."""
        return [job.row for job in self.jobs]


def apply(campaign: Campaign, record: Record) -> None:
    """Advance ``campaign`` by one journal record.

    Raises :class:`IllegalTransition` for a record the addressed job's
    state forbids (a hand-edited journal), leaving the campaign untouched.
    """
    kind = record.get("type")
    counters = campaign.counters
    if kind == "deadline":
        counters["deadline_expired"] = True
        return
    if kind == "resumed":
        # A new supervisor took over: the old one's leases died with it,
        # and its deadline clock does not carry over.
        for job in campaign.in_state(JobState.LEASED):
            job.state = JobState.QUEUED
        counters["deadline_expired"] = False
        return
    if kind not in _TRANSITIONS:  # summary, or vocabulary from the future
        return
    variant = record.get("variant")
    if not isinstance(variant, int) or not 0 <= variant < len(campaign.jobs):
        raise IllegalTransition(f"{kind} record names unknown variant {variant!r}")
    job = campaign.jobs[variant]
    legal, after = _TRANSITIONS[kind]
    if job.state not in legal:
        raise IllegalTransition(
            f"{kind} record for variant {variant}, which is {job.state.value}"
        )
    if kind == "leased":
        job.attempts = int(record["attempt"])
        counters["attempts"] += 1
    elif kind == "attempt":
        job.attempt_errors.append(record.get("error", ""))
        counters["retries"] += 1
        counters["backoff_total_s"] += record.get("retry_in", 0.0)
        counters["timeouts"] += record.get("error") == "timeout"
    elif kind == "checkpoint_discarded":
        job.checkpoint_discarded = record.get("error", "")
        counters["checkpoints_discarded"] += 1
    elif kind == "cache_hit":
        counters["cache_hits"] += 1
    elif kind == "cache_mismatch":
        counters["cache_mismatches"] += 1
    elif after is _F:
        error = record["row"].get("error")
        job.row = record["row"]
        counters["completed" if error is None else "failed"] += 1
        counters["timeouts"] += kind == "timeout"
        counters["deadline_failed"] += error == "campaign_deadline"
    job.state = after


def replay(records: Sequence[Record]) -> Campaign:
    """Fold a journal's records into the campaign they describe.  The work
    list is the ``queued`` records, numbered in queue order; cache keys are
    derived from the journaled configs, never trusted from the file."""
    queued = [r for r in records if r.get("type") == "queued"]
    if [r.get("variant") for r in queued] != list(range(len(queued))):
        raise IllegalTransition("queued records are not numbered in queue order")
    campaign = Campaign(
        (r["name"], r["config"], cache_key(r["config"])) for r in queued
    )
    for record in records:
        apply(campaign, record)
    return campaign
