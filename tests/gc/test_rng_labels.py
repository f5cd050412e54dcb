"""Label PRG and FreeXOR offset invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.labels import (
    GlobalOffset,
    LabelPair,
    bytes_to_label,
    label_to_bytes,
    lsb,
    xor_labels,
)
from repro.gc.backends import resolve_backend
from repro.gc.backends.numpy_backend import NumpyLabelHashBackend
from repro.gc.rng import _CTR_BATCH_MIN, MASK_128, LabelPrg


class TestPrg:
    def test_deterministic(self):
        a = LabelPrg(42)
        b = LabelPrg(42)
        assert [a.next_block() for _ in range(4)] == [b.next_block() for _ in range(4)]

    def test_seed_separation(self):
        assert LabelPrg(1).next_block() != LabelPrg(2).next_block()

    def test_blocks_are_128_bit(self):
        prg = LabelPrg(7)
        for _ in range(8):
            assert 0 <= prg.next_block() <= MASK_128

    def test_next_bits(self):
        prg = LabelPrg(7)
        assert 0 <= prg.next_bits(5) < 32
        assert 0 <= prg.next_bits(300) < (1 << 300)

    def test_next_bits_rejects_zero(self):
        with pytest.raises(ValueError):
            LabelPrg(0).next_bits(0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            LabelPrg(-1)

    def test_large_seed_folds(self):
        assert LabelPrg(1 << 200).next_block() != LabelPrg(1).next_block()

    def test_odd_block_has_lsb_set(self):
        prg = LabelPrg(3)
        for _ in range(16):
            assert prg.next_odd_block() & 1 == 1


class TestNextBlocks:
    """``next_blocks`` is the scalar ``next_block`` loop, on every backend."""

    @pytest.mark.parametrize("backend", ["numpy", "scalar"])
    @pytest.mark.parametrize(
        "count", [0, 1, _CTR_BATCH_MIN - 1, _CTR_BATCH_MIN, 1025]
    )
    def test_equals_scalar_loop(self, backend, count):
        drawn = LabelPrg(42).next_blocks(count, resolve_backend(backend))
        prg = LabelPrg(42)
        assert drawn == [prg.next_block() for _ in range(count)]

    @pytest.mark.parametrize("backend", ["numpy", "scalar", None])
    @pytest.mark.parametrize("seed", [7, 1 << 200])
    def test_interleaved_draws_across_2_32(self, backend, seed):
        resolved = None if backend is None else resolve_backend(backend)
        batched, scalar = LabelPrg(seed), LabelPrg(seed)
        # The counter is a 128-bit block: start just below a carry into
        # its second word so the 40-block draw crosses it.
        batched._counter = scalar._counter = (1 << 32) - 20
        got = [
            batched.next_block(),
            *batched.next_blocks(40, resolved),
            batched.next_bits(300),
            *batched.next_blocks(_CTR_BATCH_MIN, resolved),
            batched.next_odd_block(),
        ]
        want = [
            scalar.next_block(),
            *[scalar.next_block() for _ in range(40)],
            scalar.next_bits(300),
            *[scalar.next_block() for _ in range(_CTR_BATCH_MIN)],
            scalar.next_odd_block(),
        ]
        assert got == want
        assert batched._counter == scalar._counter

    @pytest.mark.parametrize(
        "count, calls", [(_CTR_BATCH_MIN - 1, 0), (_CTR_BATCH_MIN, 1), (1025, 1)]
    )
    def test_one_array_call_from_the_minimum(self, monkeypatch, count, calls):
        seen = []
        original = NumpyLabelHashBackend.encrypt_blocks

        def counting(self, blocks, schedules):
            seen.append(len(blocks))
            return original(self, blocks, schedules)

        monkeypatch.setattr(NumpyLabelHashBackend, "encrypt_blocks", counting)
        LabelPrg(3).next_blocks(count, resolve_backend("numpy"))
        assert seen == [count] * calls


class TestLabels:
    def test_serialization_roundtrip(self):
        label = (1 << 127) | 0xDEADBEEF
        assert bytes_to_label(label_to_bytes(label)) == label

    def test_serialized_length(self):
        assert len(label_to_bytes(0)) == 16

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_label(b"\x01" * 15)

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, MASK_128), b=st.integers(0, MASK_128))
    def test_xor_involution(self, a, b):
        assert xor_labels(xor_labels(a, b), b) == a

    def test_label_pair_select(self):
        pair = LabelPair(zero=0b1010)
        r = 0b0111
        assert pair.select(0, r) == 0b1010
        assert pair.select(1, r) == 0b1101
        assert pair.one(r) == pair.select(1, r)

    def test_label_pair_rejects_non_bit(self):
        with pytest.raises(ValueError):
            LabelPair(zero=0).select(2, 1)

    def test_global_offset_is_odd(self):
        for seed in range(8):
            offset = GlobalOffset(LabelPrg(seed))
            assert offset.value & 1 == 1

    def test_permute_bits_complementary(self):
        prg = LabelPrg(9)
        offset = GlobalOffset(prg)
        for _ in range(8):
            pair = offset.fresh_pair(prg)
            assert lsb(pair.zero) != lsb(pair.one(offset.value))
