"""Campaign policy: the retry backoff schedule and the validated settings.

Re-launching a failed attempt immediately turns an environmental flake (an
OOM-killed worker, a saturated machine) into a tight crash loop.
:class:`RetryPolicy` spaces attempts out exponentially and adds
*deterministic* jitter: the jitter fraction is derived from a SHA-256 of
``(seed, variant, attempt)``, so two supervisors replaying the same
campaign schedule identical delays — no process-global RNG, nothing for
the determinism analyzer (DET004) to flag — while different variants still
de-synchronize instead of thundering back in lockstep.

:class:`CampaignSettings` is the one spelling of a campaign's supervision
knobs: ``run_campaign`` and ``resume_campaign`` both build (and so
validate) it, and its ``to_dict`` form is what the journal header records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

__all__ = ["CampaignSettings", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for a variant's retry attempts.

    ``delay(variant, attempt)`` is the pause before attempt ``attempt + 1``
    after the ``attempt``-th (1-based) attempt failed::

        base * factor**(attempt-1), capped at ``maximum``,
        then scaled by 1 + jitter * u   with u in [0, 1) deterministic.

    ``RetryPolicy.none()`` disables backoff entirely (every retry fires
    immediately; used by tests that count wall-clock).
    """

    base: float = 0.05
    factor: float = 2.0
    maximum: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("backoff base must be >= 0 seconds")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.maximum < self.base:
            raise ValueError("backoff maximum must be >= base")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-backoff policy: every retry fires immediately."""
        return cls(base=0.0, factor=1.0, maximum=0.0, jitter=0.0)

    def delay(self, variant: int, attempt: int) -> float:
        """Seconds to wait after ``attempt`` (1-based) of ``variant`` failed."""
        if attempt < 1 or self.base == 0.0:
            return 0.0
        raw = self.base * (self.factor ** (attempt - 1))
        capped = min(raw, self.maximum)
        return capped * (1.0 + self.jitter * self._unit(variant, attempt))

    def _unit(self, variant: int, attempt: int) -> float:
        """A stable uniform draw in [0, 1) for (seed, variant, attempt)."""
        digest = hashlib.sha256(
            f"{self.seed}:{variant}:{attempt}".encode("ascii")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)


def _is(kind: Any, value: Any) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class CampaignSettings:
    """How a campaign is supervised (docs/CAMPAIGNS.md has the semantics).
    Construction validates: a ``processes=0`` that would never launch
    anything — keyword, flag or hand-edited journal header — is a
    :class:`ValueError` here, before it reaches the supervisor."""

    processes: int = 1
    retries: int = 0
    timeout: Optional[float] = None
    deadline: Optional[float] = None
    deadline_grace: float = 2.0
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 500
    backoff: RetryPolicy = field(default_factory=RetryPolicy)
    cache_dir: Optional[str] = None
    cache_verify: bool = False

    def __post_init__(self) -> None:
        if not _is(int, self.processes) or self.processes < 1:
            raise ValueError("processes must be an integer >= 1")
        if not _is(int, self.retries) or self.retries < 0:
            raise ValueError("retries must be an integer >= 0")
        for name in ("timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and not (_is((int, float), value) and value > 0):
                raise ValueError(f"{name} must be positive (seconds)")
        if not _is((int, float), self.deadline_grace):
            raise ValueError("deadline_grace must be a number (seconds)")
        if not _is(int, self.checkpoint_interval) or self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1 cycle")
        for name in ("checkpoint_dir", "cache_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a path string")
        if not isinstance(self.backoff, RetryPolicy):
            raise ValueError("backoff must be a RetryPolicy")

    def checkpoint_path(self, variant: int) -> Optional[str]:
        """Where variant ``variant`` checkpoints (None without a directory)."""
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"variant_{variant:04d}.ckpt")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], **overrides: Any) -> "CampaignSettings":
        """Settings from a journal header (unknown keys ignored, missing or
        null ones defaulted), with every non-None override on top."""
        merged = {
            f.name: data[f.name]
            for f in dataclasses.fields(cls)
            if data.get(f.name) is not None
        }
        merged.update((k, v) for k, v in overrides.items() if v is not None)
        if isinstance(merged.get("backoff"), Mapping):
            try:
                merged["backoff"] = RetryPolicy.from_dict(dict(merged["backoff"]))
            except TypeError as exc:
                raise ValueError(f"bad backoff settings: {exc}") from exc
        return cls(**merged)
