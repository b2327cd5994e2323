"""Triple-modular-redundancy voting.

Section 4.6 of the paper protects the handful of inter-router handshaking
lines with Triple Module Redundancy: each signal is carried on three wires
and a majority voter masks any single upset.  :func:`tmr_vote` is that voter;
:class:`repro.noc.link.HandshakeChannel` uses it on every sample.
"""

from __future__ import annotations

from typing import Sequence


def tmr_vote(samples: Sequence[bool]) -> bool:
    """Majority vote over three redundant signal samples.

    >>> tmr_vote([True, True, False])
    True
    >>> tmr_vote([False, True, False])
    False
    """
    if len(samples) != 3:
        raise ValueError("TMR requires exactly three samples")
    return sum(bool(s) for s in samples) >= 2
