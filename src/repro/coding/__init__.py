"""Error-control coding substrate.

Real bit-level implementations of the codes the paper's schemes rely on:

* :mod:`repro.coding.hamming` — extended Hamming SEC/DED (single error
  correction, double error detection), the workhorse of both the FEC baseline
  and the hybrid HBH scheme.
* :mod:`repro.coding.parity` — the TMR voter used for handshake lines
  (Section 4.6).
"""

from repro.coding.hamming import DecodeStatus, HammingSecDed
from repro.coding.parity import tmr_vote

__all__ = [
    "DecodeStatus",
    "HammingSecDed",
    "tmr_vote",
]
