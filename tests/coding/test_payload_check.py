"""Tests for the bit-level payload cross-validation harness."""

import pytest

from repro.coding.hamming import DecodeStatus
from repro.coding.payload_check import PayloadChecker
from repro.noc.flit import Flit
from repro.types import Corruption, FlitType


def make_flit(pid=3, seq=1):
    return Flit(pid, seq, FlitType.BODY, 0, 1)


class TestEncodeVerify:
    def test_clean_roundtrip(self):
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        assert checker.verify_flit(flit)
        assert checker.mismatches == 0
        assert checker.flits_encoded == 1 and checker.flits_checked == 1

    def test_distinct_flits_distinct_payloads(self):
        checker = PayloadChecker()
        a, b = make_flit(seq=0), make_flit(seq=1)
        checker.encode_flit(a)
        checker.encode_flit(b)
        assert a.payload != b.payload


class TestCorruptionConsistency:
    def test_single_upset_decodes_corrected(self):
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        checker.corrupt_payload(flit, Corruption.SINGLE)
        flit.corrupt(Corruption.SINGLE)
        assert checker.codec.decode(flit.payload).status is DecodeStatus.CORRECTED
        assert checker.verify_flit(flit)

    def test_multi_upset_decodes_detected(self):
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        checker.corrupt_payload(flit, Corruption.MULTI)
        flit.corrupt(Corruption.MULTI)
        assert checker.codec.decode(flit.payload).status is DecodeStatus.DETECTED
        assert checker.verify_flit(flit)

    def test_two_singles_compose_into_double(self):
        """Two independent single-bit upsets on one flit are a real double
        error; the symbolic escalation SINGLE + SINGLE -> MULTI must match
        what the decoder sees."""
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        for _ in range(2):
            checker.corrupt_payload(flit, Corruption.SINGLE)
            flit.corrupt(Corruption.SINGLE)
        assert flit.corruption is Corruption.MULTI
        assert checker.codec.decode(flit.payload).status is DecodeStatus.DETECTED
        assert checker.verify_flit(flit)

    def test_accumulation_beyond_double_is_capped(self):
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        for _ in range(5):
            checker.corrupt_payload(flit, Corruption.MULTI)
            flit.corrupt(Corruption.MULTI)
        assert checker.verify_flit(flit)

    def test_mismatch_is_counted(self):
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        flit.corrupt(Corruption.MULTI)  # tag says corrupt, payload is clean
        assert not checker.verify_flit(flit)
        assert checker.mismatches == 1

    def test_corrected_data_must_match_original(self):
        checker = PayloadChecker()
        flit = make_flit()
        checker.encode_flit(flit)
        # Forge a codeword of the wrong data: decodes OK but wrong word.
        other = make_flit(pid=99, seq=7)
        checker.encode_flit(other)
        flit.payload = other.payload
        assert not checker.verify_flit(flit)


class TestFlitEscalation:
    def test_single_plus_single_is_multi(self):
        flit = make_flit()
        flit.corrupt(Corruption.SINGLE)
        flit.corrupt(Corruption.SINGLE)
        assert flit.corruption is Corruption.MULTI


class TestEndToEndCrossValidation:
    @pytest.mark.parametrize("scheme", ["hbh", "e2e", "fec", "none"])
    def test_no_mismatches_under_error_storm(self, scheme):
        from repro.config import FaultConfig, SimulationConfig, WorkloadConfig, NoCConfig
        from repro.noc.simulator import run_simulation
        from repro.types import LinkProtection

        config = SimulationConfig(
            noc=NoCConfig(shape=(4, 4), link_protection=LinkProtection(scheme)),
            faults=FaultConfig.link_only(0.05, multi_bit_fraction=0.4, seed=2),
            workload=WorkloadConfig(
                injection_rate=0.2,
                num_messages=250,
                warmup_messages=50,
                max_cycles=60_000,
            ),
            payload_ecc_check=True,
        )
        result = run_simulation(config)
        assert result.counter("payload_ecc_checks") > 500
        assert result.counter("payload_ecc_mismatches") == 0
