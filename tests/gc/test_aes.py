"""AES-128 correctness: FIPS-197 vectors, structure and properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.aes import S_BOX, encrypt_block, expand_key, key_expansion_words
from tests.gc.oracles import encrypt_block_reference

# FIPS-197 Appendix B / C.1 vectors.
FIPS_KEY = 0x000102030405060708090A0B0C0D0E0F
FIPS_PT = 0x00112233445566778899AABBCCDDEEFF
FIPS_CT = 0x69C4E0D86A7B0430D8CDB78070B4C55A

# FIPS-197 Appendix A key (the "Thats my Kung Fu" example).
APPENDIX_A_KEY = 0x2B7E151628AED2A6ABF7158809CF4F3C
APPENDIX_A_PT = 0x3243F6A8885A308D313198A2E0370734
APPENDIX_A_CT = 0x3925841D02DC09FBDC118597196A0B32


class TestVectors:
    def test_fips_197_c1(self):
        assert encrypt_block(FIPS_PT, FIPS_KEY) == FIPS_CT

    def test_fips_197_appendix_a(self):
        assert encrypt_block(APPENDIX_A_PT, APPENDIX_A_KEY) == APPENDIX_A_CT

    def test_reference_matches_vectors(self):
        assert encrypt_block_reference(FIPS_PT, FIPS_KEY) == FIPS_CT
        assert encrypt_block_reference(APPENDIX_A_PT, APPENDIX_A_KEY) == APPENDIX_A_CT

    def test_zero_key_zero_block(self):
        # Known AES-128(0, 0) value.
        assert encrypt_block(0, 0) == 0x66E94BD4EF8A2C3B884CFA59CA342B2E


class TestSbox:
    def test_sbox_known_entries(self):
        assert S_BOX[0x00] == 0x63
        assert S_BOX[0x01] == 0x7C
        assert S_BOX[0x53] == 0xED
        assert S_BOX[0xFF] == 0x16

    def test_sbox_is_permutation(self):
        assert sorted(S_BOX) == list(range(256))

    def test_sbox_has_no_fixed_points(self):
        assert all(S_BOX[v] != v for v in range(256))


class TestKeyExpansion:
    def test_word_count(self):
        assert len(key_expansion_words(FIPS_KEY)) == 44

    def test_fips_round_keys(self):
        words = key_expansion_words(APPENDIX_A_KEY)
        # FIPS-197 Appendix A: w[4..7] of the expanded key.
        assert words[4] == 0xA0FAFE17
        assert words[5] == 0x88542CB1
        assert words[6] == 0x23A33939
        assert words[7] == 0x2A6C7605
        assert words[43] == 0xB6630CA6

    def test_cached_expansion_matches(self):
        assert list(expand_key(FIPS_KEY)) == key_expansion_words(FIPS_KEY)

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            key_expansion_words(1 << 128)

    def test_rejects_negative_key(self):
        with pytest.raises(ValueError):
            key_expansion_words(-1)


_BLOCKS = st.integers(min_value=0, max_value=(1 << 128) - 1)


@settings(max_examples=30, deadline=None)
@given(block=_BLOCKS, key=_BLOCKS)
def test_ttable_matches_reference(block, key):
    assert encrypt_block(block, key) == encrypt_block_reference(block, key)


@settings(max_examples=30, deadline=None)
@given(block=_BLOCKS, key=_BLOCKS)
def test_output_in_range(block, key):
    assert 0 <= encrypt_block(block, key) < (1 << 128)


@settings(max_examples=20, deadline=None)
@given(key=st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_encryption_is_injective_in_block(key):
    # Two distinct blocks never collide under the same key (permutation).
    a = encrypt_block(0x1234, key)
    b = encrypt_block(0x5678, key)
    assert a != b


class TestExpandKeyCache:
    """The hot scalar path must not re-expand per hash call.

    Re-keyed garbling hashes each half-gate's two labels under the same
    tweak key, so a correctly working LRU means exactly two schedule
    computations per AND gate (one per half-gate) -- not four.
    """

    def test_cache_is_generously_sized(self):
        info = expand_key.cache_info()
        assert info.maxsize is not None and info.maxsize >= 4096

    def test_expansion_is_cached_per_tweak(self):
        expand_key.cache_clear()
        expand_key(0xDEAD)
        expand_key(0xDEAD)
        info = expand_key.cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_garbler_expands_twice_per_and_gate(self):
        from repro.circuits.builder import CircuitBuilder
        from repro.circuits.stdlib.integer import mul
        from tests.gc.oracles import garble_circuit

        builder = CircuitBuilder()
        xs = builder.add_garbler_inputs(8)
        ys = builder.add_evaluator_inputs(8)
        builder.mark_outputs(mul(builder, xs, ys))
        circuit = builder.build("mul8")
        n_and = circuit.stats().and_gates
        assert n_and > 0

        expand_key.cache_clear()
        garbler = garble_circuit(circuit, seed=42)
        info = expand_key.cache_info()
        assert garbler.hasher.calls == 4 * n_and
        # Misses: one schedule per half-gate tweak plus the PRG key.
        assert info.misses == 2 * n_and + 1
        # Hits: the second label of each half-gate reuses the schedule,
        # and every PRG block after the first hits the PRG-key schedule.
        assert info.hits >= 2 * n_and
