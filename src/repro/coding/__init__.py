"""Error-control coding substrate.

Real bit-level implementations of the codes the paper's schemes rely on:

* :mod:`repro.coding.hamming` — extended Hamming SEC/DED (single error
  correction, double error detection), the workhorse of both the FEC baseline
  and the hybrid HBH scheme.
* :mod:`repro.coding.crc` — cyclic redundancy checks (DESIGN S4 inventory;
  nothing on the simulated path calls them — the end-to-end scheme's
  destination check reads the flit's corruption tag).
* :mod:`repro.coding.parity` — single parity bits and the TMR voter used for
  handshake lines (Section 4.6).
"""

from repro.coding.crc import CRC8_ATM, CRC16_CCITT, Crc
from repro.coding.hamming import DecodeStatus, HammingSecDed
from repro.coding.parity import ParityCode, tmr_vote

__all__ = [
    "Crc",
    "CRC8_ATM",
    "CRC16_CCITT",
    "DecodeStatus",
    "HammingSecDed",
    "ParityCode",
    "tmr_vote",
]
