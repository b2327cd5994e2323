"""The campaign service layer: durable, cache-aware fleet execution.

``repro.service`` is the one campaign runner: every
:func:`repro.campaign.run_campaign` call, journaled or not, runs here.
Five pieces compose (docs/CAMPAIGNS.md is the reference):

* :mod:`repro.service.machine` — the state machine: pure ``decide``
  (state × event → records + actions) and pure ``apply`` (the only place
  job state changes), which the live supervisor and resume both go through.
* :mod:`repro.service.journal` — the file format of the append-only JSONL
  journal (``CAMPAIGN-JOURNAL`` header, atomic fsynced appends) recording
  every transition (queued → leased → attempt-N → done/failed/timeout),
  so a campaign whose *supervisor* is SIGKILLed resumes from it.
* :mod:`repro.service.policy` — :class:`RetryPolicy` (exponential backoff,
  deterministic seeded jitter) and :class:`CampaignSettings` (the
  validated supervision knobs the journal header records).
* :mod:`repro.service.cache` — :class:`ResultCache`: results stored as
  ``repro/v1`` envelopes keyed by the SHA-256 of the variant's canonical
  config JSON, so duplicate variants within and across campaigns are
  served from cache instead of re-simulated.
* :mod:`repro.service.runner` — the driver around the machine: watchdogged
  worker processes, the ready heap and its clocks, checkpoint-resume on
  retry (corrupt or foreign checkpoints are discarded), journal/cache I/O.

``tools/chaos_campaign.py`` is the standing proof: it SIGKILLs workers,
corrupts checkpoints, stalls a worker past its watchdog and SIGKILLs the
supervisor itself mid-journal, then requires the resumed campaign's result
envelopes to be bit-for-bit equal to an undisturbed run's.
"""

from repro.service.cache import (
    CACHE_ENVELOPE_COMMAND,
    ResultCache,
    cache_config,
    cache_key,
    canonical_envelope,
    result_core,
)
from repro.service.journal import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    CampaignJournal,
    JournalError,
    JournalState,
    read_journal,
)
from repro.service.machine import replay
from repro.service.policy import CampaignSettings, RetryPolicy
from repro.service.runner import resume_campaign, run_service_campaign

__all__ = [
    "CACHE_ENVELOPE_COMMAND",
    "CampaignJournal",
    "CampaignSettings",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalState",
    "ResultCache",
    "RetryPolicy",
    "cache_config",
    "cache_key",
    "canonical_envelope",
    "read_journal",
    "replay",
    "result_core",
    "resume_campaign",
    "run_service_campaign",
]
