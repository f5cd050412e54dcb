"""Half-Gate / FreeXOR gate-level correctness (paper section 2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.halfgate import GarbledTable, eval_and, eval_xor
from repro.gc.hashing import GateHasher
from repro.gc.labels import lsb
from tests.gc.oracles import LabelPrg, eval_not, garble_and, garble_not, garble_xor

_LABELS = st.integers(min_value=0, max_value=(1 << 128) - 1)

# Hash-call counts per AND gate; the Garbler hashes all four input labels
# (two per half-gate), the Evaluator only its two held labels.  The paper
# notes the Evaluator uses half the AES calls of the Garbler.
GARBLER_HASHES_PER_AND = 4
EVALUATOR_HASHES_PER_AND = 2


def _r_from(seed: int) -> int:
    return LabelPrg(seed).next_odd_block()


class TestAndGate:
    @pytest.mark.parametrize("va", [0, 1])
    @pytest.mark.parametrize("vb", [0, 1])
    def test_truth_table(self, va, vb):
        prg = LabelPrg(1)
        r = prg.next_odd_block()
        wa0, wb0 = prg.next_block(), prg.next_block()
        hasher = GateHasher()
        out0, table = garble_and(wa0, wb0, r, 7, hasher)
        wa = wa0 ^ (r if va else 0)
        wb = wb0 ^ (r if vb else 0)
        got = eval_and(wa, wb, table, 7, hasher)
        expected = out0 ^ (r if (va & vb) else 0)
        assert got == expected

    def test_garbler_hash_count(self):
        prg = LabelPrg(2)
        r = prg.next_odd_block()
        hasher = GateHasher()
        garble_and(prg.next_block(), prg.next_block(), r, 0, hasher)
        assert hasher.calls == GARBLER_HASHES_PER_AND

    def test_evaluator_hash_count(self):
        prg = LabelPrg(3)
        r = prg.next_odd_block()
        hasher = GateHasher()
        out0, table = garble_and(prg.next_block(), prg.next_block(), r, 0, hasher)
        hasher = GateHasher()
        eval_and(prg.next_block(), prg.next_block(), table, 0, hasher)
        assert hasher.calls == EVALUATOR_HASHES_PER_AND

    def test_gate_index_matters(self):
        """Tables garbled under one index must not decrypt under another."""
        prg = LabelPrg(4)
        r = prg.next_odd_block()
        wa0, wb0 = prg.next_block(), prg.next_block()
        hasher = GateHasher()
        out0, table = garble_and(wa0, wb0, r, 5, hasher)
        wrong = eval_and(wa0, wb0, table, 6, hasher)
        assert wrong != out0

    def test_different_indices_give_different_tables(self):
        prg = LabelPrg(5)
        r = prg.next_odd_block()
        wa0, wb0 = prg.next_block(), prg.next_block()
        hasher = GateHasher()
        _, t1 = garble_and(wa0, wb0, r, 1, hasher)
        _, t2 = garble_and(wa0, wb0, r, 2, hasher)
        assert t1 != t2


class TestFreeOps:
    @settings(max_examples=25, deadline=None)
    @given(wa0=_LABELS, wb0=_LABELS, seed=st.integers(0, 1000))
    def test_xor_all_inputs(self, wa0, wb0, seed):
        r = _r_from(seed)
        out0 = garble_xor(wa0, wb0)
        for va in (0, 1):
            for vb in (0, 1):
                wa = wa0 ^ (r if va else 0)
                wb = wb0 ^ (r if vb else 0)
                assert eval_xor(wa, wb) == out0 ^ (r if va ^ vb else 0)

    @settings(max_examples=25, deadline=None)
    @given(wa0=_LABELS, seed=st.integers(0, 1000))
    def test_not_all_inputs(self, wa0, seed):
        r = _r_from(seed)
        out0 = garble_not(wa0, r)
        for va in (0, 1):
            wa = wa0 ^ (r if va else 0)
            assert eval_not(wa) == out0 ^ (r if (va ^ 1) else 0)

    def test_xor_needs_no_table(self):
        # By construction garble_xor returns only a label.
        assert garble_xor(3, 5) == 6


class TestPointAndPermute:
    @settings(max_examples=25, deadline=None)
    @given(wa0=_LABELS, seed=st.integers(0, 1000))
    def test_colour_bits_complementary(self, wa0, seed):
        r = _r_from(seed)
        assert lsb(wa0) != lsb(wa0 ^ r)


class TestGarbledTable:
    def test_roundtrip_bytes(self):
        table = GarbledTable(generator_row=123456789, evaluator_row=(1 << 127) | 7)
        assert GarbledTable.from_bytes(table.to_bytes()) == table

    def test_is_32_bytes(self):
        assert len(GarbledTable(1, 2).to_bytes()) == 32

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            GarbledTable.from_bytes(b"\x00" * 31)
