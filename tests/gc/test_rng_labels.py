"""Label PRG and FreeXOR offset invariants."""

import pytest

from repro.gc.labels import lsb
from repro.gc.backends import resolve_backend
from repro.gc.backends.numpy_backend import NumpyLabelHashBackend
from repro.gc.rng import _CTR_BATCH_MIN, MASK_128, LabelPrg
from tests.gc import oracles


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
        prg = oracles.LabelPrg(3)
        for _ in range(16):
            assert prg.next_odd_block() & 1 == 1


class TestNextBlocks:
    """``next_blocks`` is the scalar ``next_block`` loop, on either side
    of the block-backend threshold."""

    @pytest.mark.parametrize("backend", ["numpy"])
    @pytest.mark.parametrize(
        "count", [0, 1, _CTR_BATCH_MIN - 1, _CTR_BATCH_MIN, 1025]
    )
    def test_equals_scalar_loop(self, backend, count):
        drawn = LabelPrg(42).next_blocks(count, resolve_backend(backend))
        prg = LabelPrg(42)
        assert drawn == [prg.next_block() for _ in range(count)]

    @pytest.mark.parametrize("backend", ["numpy"])
    @pytest.mark.parametrize("seed", [7, 1 << 200])
    def test_interleaved_draws_across_2_32(self, backend, seed):
        resolved = resolve_backend(backend)
        batched, scalar = oracles.LabelPrg(seed), oracles.LabelPrg(seed)
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
    def test_permute_bits_complementary(self):
        prg = oracles.LabelPrg(9)
        r = prg.next_odd_block()
        for _ in range(8):
            zero = prg.next_block()
            assert lsb(zero) != lsb(zero ^ r)
