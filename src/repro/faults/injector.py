"""The seeded fault injector.

One injector instance serves the whole network; all randomness flows through
a single ``random.Random(seed)`` so that a run is exactly reproducible from
its :class:`repro.config.FaultConfig`.

Each public method corresponds to one fault site and is called by the
component performing the (potentially faulty) operation:

==================  =====================================================
method              called per
==================  =====================================================
``link_upset``      flit per inter-router link traversal
``routing_upset``   routing computation (header flits only)
``va_upset``        successful VA grant
``sa_upset``        successful SA grant
``crossbar_upset``  flit per crossbar traversal
``retx_upset``      flit stored into a retransmission buffer
``handshake_glitch``  reverse-channel signal sample
==================  =====================================================
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.types import Corruption, Direction, FaultSite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config -> faults)
    from repro.config import FaultConfig


class FaultInjector:
    """Draws single-event upsets according to a :class:`FaultConfig`."""

    def __init__(self, config: FaultConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        #: Telemetry bus (wired by the Network when telemetry is enabled).
        #: Publishing happens only inside rate-hit branches — cold paths —
        #: and draws no randomness, so the seed stream is unaffected.
        self.telemetry = None
        #: Intermittent/wear-out lifecycle (wired by the Network when a
        #: schedule is configured).  Its per-site RNG streams are disjoint
        #: from ``self.rng``, so adding burst sites never perturbs the
        #: shared transient stream.
        self.lifecycle = None
        # Cache rates as plain floats: these are the hottest calls in the
        # simulator, and attribute/dict lookups dominate otherwise.
        self._rate_link = config.rate(FaultSite.LINK)
        self._rate_rt = config.rate(FaultSite.ROUTING)
        self._rate_va = config.rate(FaultSite.VC_ALLOC)
        self._rate_sa = config.rate(FaultSite.SW_ALLOC)
        self._rate_xbar = config.rate(FaultSite.CROSSBAR)
        self._rate_retx = config.rate(FaultSite.RETX_BUFFER)
        self._rate_hs = config.rate(FaultSite.HANDSHAKE)
        self._multi_fraction = config.link_multi_bit_fraction

    @property
    def is_fault_free(self) -> bool:
        return (
            self._rate_link == 0.0
            and self._rate_rt == 0.0
            and self._rate_va == 0.0
            and self._rate_sa == 0.0
            and self._rate_xbar == 0.0
            and self._rate_retx == 0.0
            and self._rate_hs == 0.0
        )

    # -- link -------------------------------------------------------------

    def link_upset(
        self, cycle: int, node: int, direction: Optional[Direction] = None
    ) -> Optional[Corruption]:
        """Corruption suffered by a flit during one link traversal.

        The memoryless background rate draws from the shared stream first
        (unchanged whether or not intermittent sites exist); when the
        caller names the link's ``direction`` and a burst lifecycle is
        wired, the site's own stream may add an intermittent strike, and
        the worse corruption class wins.
        """
        severity = None
        if self._rate_link and self.rng.random() < self._rate_link:
            severity = (
                Corruption.MULTI
                if self.rng.random() < self._multi_fraction
                else Corruption.SINGLE
            )
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle, "transient_fault", node,
                    site="link", severity=severity.name.lower(),
                )
        if self.lifecycle is not None and direction is not None:
            strike = self.lifecycle.strike(
                cycle, node, direction, self._multi_fraction
            )
            if strike is not None and (
                severity is None or strike.value > severity.value
            ):
                severity = strike
        return severity

    # -- routing logic -----------------------------------------------------

    def routing_upset(self, cycle: int, node: int) -> bool:
        if self._rate_rt and self.rng.random() < self._rate_rt:
            if self.telemetry is not None:
                self.telemetry.publish(cycle, "transient_fault", node, site="routing")
            return True
        return False

    def misdirect(
        self,
        correct: Sequence[Direction],
        allowed: Sequence[Direction],
    ) -> Direction:
        """Pick the erroneous direction a faulted RT unit outputs.

        ``allowed`` is the universe of directions the (faulty) logic could
        physically emit — all five ports; the choice excludes the correct
        candidates so the fault is always an actual misdirection.
        """
        wrong = [d for d in allowed if d not in correct]
        if not wrong:
            return correct[0]
        return self.rng.choice(wrong)

    # -- allocator logic ---------------------------------------------------

    def va_upset(self, cycle: int, node: int) -> bool:
        if self._rate_va and self.rng.random() < self._rate_va:
            if self.telemetry is not None:
                self.telemetry.publish(cycle, "transient_fault", node, site="vc_alloc")
            return True
        return False

    def pick_va_scenario(self) -> str:
        """Which Section 4.1 VA-error scenario the upset produces.

        Weights are uniform over the four published symptom classes:
        ``invalid`` (1), ``duplicate`` (2/3 — grant a reserved or doubly
        granted output VC), ``wrong_vc_same_pc`` (4a, benign) and
        ``wrong_pc`` (4b).
        """
        return self.rng.choice(["invalid", "duplicate", "wrong_vc_same_pc", "wrong_pc"])

    def sa_upset(self, cycle: int, node: int) -> bool:
        if self._rate_sa and self.rng.random() < self._rate_sa:
            if self.telemetry is not None:
                self.telemetry.publish(cycle, "transient_fault", node, site="sw_alloc")
            return True
        return False

    def pick_sa_scenario(self) -> str:
        """Section 4.3 SA-error symptom: ``blocked`` (a), ``wrong_output``
        (b), ``duplicate_output`` (c) or ``multicast`` (d)."""
        return self.rng.choice(
            ["blocked", "wrong_output", "duplicate_output", "multicast"]
        )

    def choice(self, options: Sequence) -> object:
        """Expose the seeded RNG for scenario construction."""
        return self.rng.choice(list(options))

    # -- datapath ----------------------------------------------------------

    def crossbar_upset(self, cycle: int, node: int) -> Optional[Corruption]:
        """Crossbar transients are single-bit upsets (Section 4.4)."""
        if self._rate_xbar and self.rng.random() < self._rate_xbar:
            if self.telemetry is not None:
                self.telemetry.publish(cycle, "transient_fault", node, site="crossbar")
            return Corruption.SINGLE
        return None

    def retx_upset(self, cycle: int, node: int) -> bool:
        """Upset of a flit held in a retransmission buffer (Section 4.5)."""
        if self._rate_retx and self.rng.random() < self._rate_retx:
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle, "transient_fault", node, site="retx_buffer"
                )
            return True
        return False

    # -- handshake lines -----------------------------------------------------

    def handshake_glitch(self, cycle: int, node: int) -> bool:
        if self._rate_hs and self.rng.random() < self._rate_hs:
            if self.telemetry is not None:
                self.telemetry.publish(
                    cycle, "transient_fault", node, site="handshake"
                )
            return True
        return False
