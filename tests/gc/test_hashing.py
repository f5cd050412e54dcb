"""Gate hash: re-keyed vs fixed-key (paper section 2.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.hashing import GateHasher, rekeyed_hash, sigma
from tests.gc.oracles import fixed_key_hash

_LABELS = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestSigma:
    def test_known_value(self):
        # sigma(L || R) = (L xor R) || L
        left = 0xAAAA_BBBB_CCCC_DDDD
        right = 0x1111_2222_3333_4444
        x = (left << 64) | right
        expected = ((left ^ right) << 64) | left
        assert sigma(x) == expected

    @settings(max_examples=50, deadline=None)
    @given(x=_LABELS)
    def test_sigma_is_a_bijection(self, x):
        # sigma is invertible: L = low half, R = high ^ low.
        s = sigma(x)
        left = s & ((1 << 64) - 1)
        right = (s >> 64) ^ left
        assert ((left << 64) | right) == x

    @settings(max_examples=50, deadline=None)
    @given(a=_LABELS, b=_LABELS)
    def test_sigma_is_linear(self, a, b):
        assert sigma(a ^ b) == sigma(a) ^ sigma(b)


class TestHashes:
    @settings(max_examples=25, deadline=None)
    @given(label=_LABELS, index=st.integers(0, 2**32))
    def test_deterministic(self, label, index):
        assert rekeyed_hash(label, index) == rekeyed_hash(label, index)
        assert fixed_key_hash(label, index) == fixed_key_hash(label, index)

    @settings(max_examples=25, deadline=None)
    @given(label=_LABELS, index=st.integers(0, 2**32))
    def test_modes_differ(self, label, index):
        assert rekeyed_hash(label, index) != fixed_key_hash(label, index)

    @settings(max_examples=25, deadline=None)
    @given(label=_LABELS)
    def test_index_separates(self, label):
        assert rekeyed_hash(label, 1) != rekeyed_hash(label, 2)

    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, 2**32))
    def test_label_separates(self, index):
        assert rekeyed_hash(17, index) != rekeyed_hash(18, index)


class TestAccounting:
    def test_counts_calls(self):
        hasher = GateHasher()
        for i in range(5):
            assert hasher(i, i) == rekeyed_hash(i, i)
        assert hasher.calls == 5
