"""Oblivious transfer and the end-to-end two-party protocol."""

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import less_than
from repro.gc.backends import resolve_backend
from repro.gc import ot
from repro.gc.channel import FRAME_OVERHEAD
from repro.gc.labels import bytes_to_ints, ints_to_bytes
from repro.gc.ot import (
    _KDF_BATCH_MIN,
    GROUP_G,
    GROUP_P,
    OT_KAPPA,
    OtExtReceiver,
    OtExtSender,
    OtReceiver,
    OtSender,
    _kdf,
    _kdf_batch,
    _powmod,
    run_ot,
    run_ot_batch,
)
from repro.gc.protocol import TwoPartySession, run_two_party
from repro.gc.rng import LabelPrg
from repro.gc.roles import _LABEL_BYTES, _POINT_BYTES, ot_handshake_bytes
from tests.gc import test_transcript_golden as golden
from tests.gc.session_oracle import run_oracle_session
from tests.gc.test_transcript_golden import circuits  # noqa: F401 (fixture)


class TestOt:
    @pytest.mark.parametrize("choice", [0, 1])
    def test_receiver_gets_chosen_message(self, choice):
        m0, m1 = 0xAAAA, 0xBBBB
        assert run_ot(m0, m1, choice, seed=7) == (m1 if choice else m0)

    def test_batch(self):
        rng = random.Random(5)
        pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(16)]
        choices = [rng.randint(0, 1) for _ in range(16)]
        received = run_ot_batch(pairs, choices, seed=11)
        for (m0, m1), c, got in zip(pairs, choices, received):
            assert got == (m1 if c else m0)

    def test_receiver_cannot_get_other_message(self):
        """Decrypting the unchosen ciphertext yields garbage, not m_other."""
        sender = OtSender(LabelPrg(1))
        receiver = OtReceiver(LabelPrg(2), sender.public)
        m0, m1 = 123, 456
        point, secret = receiver.choose(0)
        c0, c1 = sender.encrypt(0, point, m0, m1)
        assert receiver.decrypt(0, 0, secret, c0, c1) == m0
        # Using the same secret against the other slot must not reveal m1.
        pad = receiver.decrypt(0, 1, secret, c0, c1)
        assert pad != m1

    def test_invalid_point_rejected(self):
        sender = OtSender(LabelPrg(1))
        with pytest.raises(ValueError):
            sender.encrypt(0, 0, 1, 2)

    def test_invalid_choice_rejected(self):
        sender = OtSender(LabelPrg(1))
        receiver = OtReceiver(LabelPrg(2), sender.public)
        with pytest.raises(ValueError):
            receiver.choose(2)

    @pytest.mark.parametrize("choice", [0, 1])
    def test_choose_before_the_sender_point_rejected(self, choice):
        """Without ``A`` the per-bit path raises before it draws the
        choice's secret: the PRG stream is where it started."""
        prg = LabelPrg(1)
        with pytest.raises(ValueError, match="sender's public point"):
            OtReceiver(prg).choose(choice)
        assert prg.next_block() == LabelPrg(1).next_block()


def _chosen(receiver, public, choices):
    """The batched receiver's ``(point, secret)`` per choice: the
    own-state ``draw``, then the reply to ``public``."""
    receiver.draw(choices)
    return list(zip(receiver.points(public), receiver.secrets))


def _opened(receiver, cipher_pairs, start_index=0):
    """The batched receiver's own-state pads, then the reply to the
    ciphertexts."""
    receiver.derive_pads(start_index)
    return receiver.open(cipher_pairs)


class TestBatchedReceiver:
    """The batched fixed-base path must be transcript-identical to the
    per-bit reference path: same PRG draws, same points, same secrets,
    same decrypted messages."""

    def _setup(self, n=24, seed=17):
        rng = random.Random(seed)
        choices = [rng.randint(0, 1) for _ in range(n)]
        pairs = [
            (rng.getrandbits(128), rng.getrandbits(128)) for _ in range(n)
        ]
        sender = OtSender(LabelPrg(seed))
        return sender, choices, pairs

    def test_draw_matches_per_bit_transcript(self):
        sender, choices, _ = self._setup()
        per_bit = OtReceiver(LabelPrg(99), sender.public)
        reference = [per_bit.choose(choice) for choice in choices]
        assert _chosen(OtReceiver(LabelPrg(99)), sender.public, choices) == reference

    def test_open_matches_per_bit(self):
        sender, choices, pairs = self._setup()
        receiver = OtReceiver(LabelPrg(7))
        points_and_secrets = _chosen(receiver, sender.public, choices)
        ciphers = [
            sender.encrypt(index, point, m0, m1)
            for index, ((point, _), (m0, m1)) in enumerate(
                zip(points_and_secrets, pairs)
            )
        ]
        secrets = [secret for _, secret in points_and_secrets]
        batched = _opened(receiver, ciphers)
        per_bit = [
            receiver.decrypt(index, choice, secret, c0, c1)
            for index, (choice, secret, (c0, c1)) in enumerate(
                zip(choices, secrets, ciphers)
            )
        ]
        assert batched == per_bit
        assert batched == [
            m1 if choice else m0
            for (m0, m1), choice in zip(pairs, choices)
        ]

    def test_derive_pads_start_index(self):
        """Offset batches use the same per-OT KDF tweaks as the
        equivalent per-bit calls."""
        sender, choices, pairs = self._setup(n=6)
        receiver = OtReceiver(LabelPrg(7))
        points_and_secrets = _chosen(receiver, sender.public, choices)
        ciphers = [
            sender.encrypt(3 + index, point, m0, m1)
            for index, ((point, _), (m0, m1)) in enumerate(
                zip(points_and_secrets, pairs)
            )
        ]
        batched = _opened(receiver, ciphers, start_index=3)
        assert batched == [
            m1 if choice else m0
            for (m0, m1), choice in zip(pairs, choices)
        ]

    def test_draw_rejects_non_bits(self):
        with pytest.raises(ValueError):
            OtReceiver(LabelPrg(7)).draw([0, 1, 2])

    def test_open_rejects_misaligned(self):
        sender, _, _ = self._setup()
        receiver = OtReceiver(LabelPrg(7))
        _chosen(receiver, sender.public, [0, 1])
        receiver.derive_pads()
        with pytest.raises(ValueError):
            receiver.open([(1, 2)])

    def test_protocol_transcript_unchanged_by_batching(self, mixed_circuit, monkeypatch):
        """The streamed session (on the batched path) must emit the
        byte-identical transcript the per-bit path produces: same
        messages, same per-stream byte accounting, same outputs."""
        garbler_bits = [1, 0] * 4
        evaluator_bits = [0, 1] * 4
        batched = run_two_party(mixed_circuit, garbler_bits, evaluator_bits, seed=12)

        # Re-run with the receiver forced onto the per-bit reference
        # path (its draws move to the reply to A, the only place the
        # per-bit choose can run); everything observable must be
        # identical.
        def points(self, public):
            self.sender_public = public
            chosen = [self.choose(choice) for choice in self.choices]
            self.secrets = [secret for _, secret in chosen]
            return [point for point, _ in chosen]

        monkeypatch.setattr(
            OtReceiver, "draw", lambda self, choices: setattr(self, "choices", choices)
        )
        monkeypatch.setattr(OtReceiver, "points", points)
        monkeypatch.setattr(OtReceiver, "derive_pads", lambda self: None)
        monkeypatch.setattr(
            OtReceiver,
            "open",
            lambda self, pairs: [
                self.decrypt(i, c, s, c0, c1)
                for i, (c, s, (c0, c1)) in enumerate(
                    zip(self.choices, self.secrets, pairs)
                )
            ],
        )
        per_bit = run_two_party(mixed_circuit, garbler_bits, evaluator_bits, seed=12)

        assert batched.output_bits == per_bit.output_bits
        assert batched.transcript_digest == per_bit.transcript_digest
        assert batched.traffic == per_bit.traffic
        assert batched.total_bytes == per_bit.total_bytes
        assert batched.output_bits == mixed_circuit.eval_plain(
            garbler_bits, evaluator_bits
        )


# Points the limb-count logic must tell apart: zero (no limb at all),
# one limb, a zero top limb, a zero middle limb, full width.
_kdf_points = st.one_of(
    st.just(0),
    st.integers(0, (1 << 128) - 1),
    st.integers(0, (1 << 640) - 1),
    st.integers(0, (1 << 128) - 1).map(lambda low: (1 << 767) | low),
    st.integers(1, GROUP_P - 1),
)

# Tweaks the chain must mask to 128 bits, and ones it need not.
_kdf_tweaks = st.one_of(
    st.integers(0, (1 << 128) - 1), st.integers(1 << 128, (1 << 200) - 1)
)

# The chain's edge rows: the all-zero point, one-limb points (the
# smallest, one with the key's low bit set, the widest), full 768-bit
# points, and tweaks at and above 2^128.
_KDF_EDGE_ROWS = [
    (0, 0),
    (0, (1 << 128) + 5),
    (1, 0),
    (1, 1 << 128),
    ((1 << 128) - 1, 3),
    ((1 << 768) - 1, 0),
    ((1 << 767) | 1, (1 << 140) - 1),
    (GROUP_P - 1, (1 << 129) | 7),
]

needs_libcrypto_aes = pytest.mark.skipif(
    ot._LIBCRYPTO_AES is None,
    reason="no libcrypto AES on this platform: the Python chain is the path",
)


def _scalar_chains(rows):
    return [_kdf(point, tweak) for point, tweak in rows]


class TestKdfKernel:
    """``_kdf_batch`` on the block AES kernel and on libcrypto's chains
    against the scalar chain."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(_kdf_points, st.integers(0, (1 << 140) - 1)),
            min_size=_KDF_BATCH_MIN,
            max_size=_KDF_BATCH_MIN + 8,
        )
    )
    def test_kernel_matches_scalar_chain(self, rows):
        points = [point for point, _ in rows]
        tweaks = [tweak for _, tweak in rows]
        expected = [_kdf(point, tweak) for point, tweak in rows]
        assert _kdf_batch(points, tweaks, resolve_backend("numpy")) == expected
        assert _kdf_batch(points, tweaks, None) == expected

    def test_python_chain_leaves_the_key_cache_alone(self):
        """Each limb's key is a fresh digest: a per-bit OT round and a
        backend-less batch expand their keys without caching them, and
        the pads are the cached encrypt_block chain's."""
        from repro.gc.aes import encrypt_block, expand_key

        sender = OtSender(LabelPrg(1))
        receiver = OtReceiver(LabelPrg(2), sender.public)
        receiver.choose(0)  # both PRG keys are in the cache from here
        before = expand_key.cache_info().currsize
        point, secret = receiver.choose(1)
        c0, c1 = sender.encrypt(0, point, 123, 456)
        assert receiver.decrypt(0, 1, secret, c0, c1) == 456
        assert expand_key.cache_info().currsize == before
        points = [point for point, _ in _KDF_EDGE_ROWS]
        tweaks = [tweak for _, tweak in _KDF_EDGE_ROWS]
        pads = _kdf_batch(points, tweaks, None)
        assert expand_key.cache_info().currsize == before

        def cached_chain(point, tweak):
            digest = tweak & ot.MASK_128
            while point:
                block = point & ot.MASK_128
                digest = encrypt_block(block ^ digest, digest | 1) ^ block
                point >>= 128
            return digest

        assert pads == [cached_chain(p, t) for p, t in _KDF_EDGE_ROWS]

    def test_all_zero_points_keep_their_tweaks(self):
        tweaks = list(range(_KDF_BATCH_MIN))
        zeros = [0] * _KDF_BATCH_MIN
        assert _kdf_batch(zeros, tweaks, resolve_backend("numpy")) == tweaks

    @needs_libcrypto_aes
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    _kdf_points,
                    st.integers(1 << 767, (1 << 768) - 1),
                    st.sampled_from([0, 1, (1 << 128) - 1, (1 << 768) - 1]),
                ),
                _kdf_tweaks,
            ),
            max_size=_KDF_BATCH_MIN - 1,
        )
    )
    def test_libcrypto_chains_match_scalar_chain(self, rows):
        """Every batch below the crossover, the empty one included."""
        points = [point for point, _ in rows]
        tweaks = [tweak for _, tweak in rows]
        expected = _scalar_chains(rows)
        assert ot._kdf_chains(points, tweaks, ot._LIBCRYPTO_AES) == expected
        assert _kdf_batch(points, tweaks, resolve_backend("numpy")) == expected

    @needs_libcrypto_aes
    def test_libcrypto_chains_at_the_edges(self, monkeypatch):
        """The edge rows, with the Python chain refused: a small batch
        given a backend runs none of it."""

        def refused(point, tweak):
            raise AssertionError("the Python chain ran with libcrypto AES loaded")

        points = [point for point, _ in _KDF_EDGE_ROWS]
        tweaks = [tweak for _, tweak in _KDF_EDGE_ROWS]
        expected = _scalar_chains(_KDF_EDGE_ROWS)
        assert expected[:2] == [0, 5]  # no limb: the masked tweak
        monkeypatch.setattr(ot, "_kdf", refused)
        assert ot._kdf_chains(points, tweaks, ot._LIBCRYPTO_AES) == expected
        assert _kdf_batch(points, tweaks, resolve_backend("numpy")) == expected

    def test_refused_key_raises(self):
        """A nonzero ``AES_set_encrypt_key`` status is an error, not a
        pad from a stale schedule."""

        class Refusing:
            AES_set_encrypt_key = staticmethod(lambda *args: -1)
            AES_encrypt = staticmethod(lambda *args: None)

        with pytest.raises(RuntimeError):
            ot._kdf_chains([1], [0], Refusing())
        assert ot._kdf_chains([0], [7], Refusing()) == [7]  # no limb, no call

    def test_small_batches_without_libcrypto_aes_take_the_python_chain(
        self, monkeypatch
    ):
        calls = []

        def counted(point, tweak):
            calls.append(point)
            return _kdf(point, tweak)

        points = [point for point, _ in _KDF_EDGE_ROWS]
        tweaks = [tweak for _, tweak in _KDF_EDGE_ROWS]
        expected = _scalar_chains(_KDF_EDGE_ROWS)
        monkeypatch.setattr(ot, "_LIBCRYPTO_AES", None)
        monkeypatch.setattr(ot, "_kdf", counted)
        assert _kdf_batch(points, tweaks, resolve_backend("numpy")) == expected
        assert calls == points

    def test_concurrent_batches_are_independent(self):
        """Four threads, more than a 2-core machine has, each running
        small batches (libcrypto's chains where loaded, each call with
        its own key schedule and output buffer) and one at the
        crossover while the others do."""
        rng = random.Random(50)
        workers = 4
        sizes = [1, 7, _KDF_BATCH_MIN - 1, _KDF_BATCH_MIN]
        batches = [
            [
                [(rng.randrange(GROUP_P), rng.getrandbits(130)) for _ in range(n)]
                for n in sizes
            ]
            for _ in range(workers)
        ]
        backend = resolve_backend("numpy")
        results = {}
        barrier = threading.Barrier(workers)

        def worker(k):
            barrier.wait()
            results[k] = [
                _kdf_batch([p for p, _ in rows], [t for _, t in rows], backend)
                for rows in batches[k]
            ]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the chains' Python parts too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(workers)), "a worker raised"
        for k in range(workers):
            assert results[k] == [_scalar_chains(rows) for rows in batches[k]]


# The edge exponents: 0, 1, the largest secret (q - 1) and the largest
# exponent below p - 1; the edge bases: 1, 2 (the generator) and p - 1.
_EDGE_EXPONENTS = [0, 1, ot._GROUP_Q - 1, GROUP_P - 2]
_EDGE_BASES = [1, GROUP_G, GROUP_P - 1]


@pytest.fixture(params=["libcrypto", "builtin"])
def powmod_path(request, monkeypatch):
    """Each ``_powmod`` test on the platform's path and on the fallback
    (the libcrypto handle forced to ``None``)."""
    if request.param == "builtin":
        monkeypatch.setattr(ot, "_LIBCRYPTO", None)
    return request.param


def _reference(pairs):
    return [pow(base, exponent, GROUP_P) for base, exponent in pairs]


def _load_without_aes(monkeypatch):
    """Reload the handles from a libcrypto whose ``AES_*`` symbols are
    hidden, as in a ``no-deprecated`` build, and install them: the
    bignum table loads, the AES table is ``None``.  Skips where this
    platform has no libcrypto at all."""
    if ot._LIBCRYPTO is None:
        pytest.skip("no libcrypto on this platform: the fallback is the path")
    real_cdll = ot.ctypes.CDLL

    class WithoutAes:
        def __init__(self, soname):
            self._lib = real_cdll(soname)

        def __getattr__(self, name):
            if name.startswith("AES_"):
                raise AttributeError(name)
            return getattr(self._lib, name)

    with monkeypatch.context() as patch:
        patch.setattr(ot.ctypes, "CDLL", WithoutAes)
        bignum, aes = ot._load_libcrypto(), ot._load_libcrypto_aes()
    assert bignum is not None and aes is None
    monkeypatch.setattr(ot, "_LIBCRYPTO", bignum)
    monkeypatch.setattr(ot, "_LIBCRYPTO_AES", aes)


class _FakeLibcrypto:
    """Stands in for libcrypto: hands out fresh handles, makes the call
    named ``failing`` fail (``NULL`` or 0), records every handle freed."""

    def __init__(self, failing) -> None:
        self.failing = failing
        self.allocated, self.freed = [], []

    def __getattr__(self, name):
        if name.endswith("_free"):
            return self.freed.append
        if name.endswith("_new"):
            def new():
                if name == self.failing:
                    return None
                self.allocated.append(object())
                return self.allocated[-1]
            return new
        success = ot._GROUP_BYTES if name == "BN_bn2binpad" else 1
        return lambda *args: 0 if name == self.failing else success


class TestPowmod:
    """``_powmod`` is ``[pow(b, e, GROUP_P) ...]`` on either path."""

    def test_edge_values(self, powmod_path):
        rng = random.Random(48)
        # Bases outside [0, p) reduce first, as builtin ``pow`` does.
        out_of_range = [0, GROUP_P, GROUP_P + 5, -3]
        bases = _EDGE_BASES + out_of_range + [rng.randrange(GROUP_P) for _ in range(3)]
        exponents = _EDGE_EXPONENTS + [
            rng.getrandbits(bits) for bits in (256, 256, 768, 768)
        ]
        pairs = [(base, exponent) for base in bases for exponent in exponents]
        assert _powmod(pairs) == _reference(pairs)

    # The fixture only picks the path: every example may share it.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, GROUP_P - 1),
                st.one_of(
                    st.sampled_from(_EDGE_EXPONENTS),
                    st.integers(0, (1 << 256) - 1),
                    st.integers(0, (1 << 768) - 1),
                ),
            ),
            max_size=12,
        )
    )
    def test_random_pairs(self, powmod_path, pairs):
        assert _powmod(pairs) == _reference(pairs)

    def test_empty_batch(self, powmod_path):
        assert _powmod([]) == []

    @pytest.mark.parametrize("bits", [1, 2, 8, 20, 60, 128, 512, 2000])
    def test_exponent_widths(self, powmod_path, bits):
        """Exponents of exactly ``bits`` bits, all ones and a random one
        with the top bit set: short byte strings, ones that do not fill
        their last byte, and ones wider than the group."""
        rng = random.Random(bits)
        exponents = [(1 << bits) - 1, (1 << (bits - 1)) | rng.getrandbits(bits - 1)]
        bases = _EDGE_BASES + [rng.randrange(2, GROUP_P)]
        pairs = [(base, exponent) for base in bases for exponent in exponents]
        assert all(exponent.bit_length() == bits for _, exponent in pairs)
        assert _powmod(pairs) == _reference(pairs)

    def test_negative_exponent_rejected(self, powmod_path):
        """Builtin ``pow`` would return an inverse power; both paths refuse."""
        with pytest.raises(ValueError):
            _powmod([(GROUP_G, 3), (GROUP_G, -1)])

    def test_libcrypto_path_runs_no_builtin_pow(self, monkeypatch):
        if ot._LIBCRYPTO is None:
            pytest.skip("no libcrypto on this platform: the fallback is the path")
        pairs = [(GROUP_G, 12345), (GROUP_P - 1, 3)]
        expected = _reference(pairs)

        def refused(*args):
            raise AssertionError("builtin pow ran on the libcrypto path")

        # ot.py looks ``pow`` up in its module globals before builtins.
        monkeypatch.setattr(ot, "pow", refused, raising=False)
        assert _powmod(pairs) == expected

    @pytest.mark.parametrize(
        "failing", [None, "BN_new", "BN_MONT_CTX_set", "BN_mod_exp_mont_consttime"]
    )
    def test_batch_frees_what_it_allocated(self, failing, monkeypatch):
        """Every context and bignum the batch allocates is freed exactly
        once, whether the batch completes or a call fails (``MemoryError``)."""
        fake = _FakeLibcrypto(failing)
        monkeypatch.setattr(ot, "_LIBCRYPTO", fake)
        if failing is None:
            assert _powmod([(GROUP_G, 3), (5, 7)]) == [0, 0]  # the fake's zeros
        else:
            with pytest.raises(MemoryError):
                _powmod([(GROUP_G, 3), (5, 7)])
        assert fake.allocated and sorted(map(id, fake.allocated)) == sorted(
            id(handle) for handle in fake.freed if handle is not None
        )

    @pytest.mark.parametrize("soname", ["libno-such-library.so.0", "libc.so.6"])
    def test_platform_without_libcrypto_falls_back(self, soname, monkeypatch):
        """No loadable library, or one without the bignum symbols, leaves
        the handle ``None``: builtin ``pow``."""
        monkeypatch.setattr(ot, "_LIBCRYPTO_SONAMES", (soname,))
        assert ot._load_libcrypto() is None
        assert ot._load_libcrypto_aes() is None
        monkeypatch.setattr(ot, "ctypes", None)
        monkeypatch.setattr(ot, "_LIBCRYPTO_SONAMES", ("libcrypto.so.3",))
        assert ot._load_libcrypto() is None
        assert ot._load_libcrypto_aes() is None

    def test_libcrypto_without_aes_keeps_powmod_on_libcrypto(self, monkeypatch):
        """A libcrypto built without the deprecated low-level AES calls
        (``no-deprecated``): the bignum table still loads, so ``_powmod``
        stays on libcrypto, and the pad KDF takes the Python chain."""
        _load_without_aes(monkeypatch)
        rng = random.Random(49)
        pairs = [(rng.randrange(1, GROUP_P), rng.getrandbits(256)) for _ in range(8)]
        expected = _reference(pairs)

        def refused(*args):
            raise AssertionError("builtin pow ran on the libcrypto path")

        monkeypatch.setattr(ot, "pow", refused, raising=False)
        assert _powmod(pairs) == expected
        monkeypatch.delattr(ot, "pow")

        rows = [(rng.randrange(GROUP_P), rng.getrandbits(130)) for _ in range(16)]
        points = [point for point, _ in rows]
        tweaks = [tweak for _, tweak in rows]
        assert _kdf_batch(points, tweaks, resolve_backend("numpy")) == [
            _kdf(point, tweak) for point, tweak in rows
        ]

    def test_concurrent_batches_are_independent(self):
        """Four threads, more than a 2-core machine has, each running
        batches while the others do: ``ctypes`` drops the GIL inside
        every libcrypto call, so the batches truly overlap."""
        rng = random.Random(36)
        workers = 4
        batches = [
            [(rng.randrange(1, GROUP_P), rng.getrandbits(256)) for _ in range(48)]
            for _ in range(workers)
        ]
        results = {}
        barrier = threading.Barrier(workers)

        def worker(k):
            barrier.wait()
            results[k] = [_powmod(batches[k][i::4]) for i in range(4)]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the batches' Python parts too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(workers)), "a worker raised"
        for k in range(workers):
            assert results[k] == [_reference(batches[k][i::4]) for i in range(4)]


# Either side of the KDF crossover for the sender's ``2n`` chains
# (``_KDF_BATCH_MIN // 2 - 1`` and ``// 2``) and the receiver's ``n``.
@pytest.mark.parametrize("backend", ["auto", None])
@pytest.mark.parametrize(
    "n",
    [
        0,
        1,
        _KDF_BATCH_MIN // 2 - 1,
        _KDF_BATCH_MIN // 2,
        _KDF_BATCH_MIN - 1,
        _KDF_BATCH_MIN,
        513,
    ],
)
def test_batched_paths_match_per_bit(n, backend):
    """The batched receiver's steps and ``encrypt_batch`` are
    element for element the per-bit sequence, on either side of the KDF
    selection and at a non-zero ``start_index``; with no backend (what
    the session oracle hands them) every batch takes the scalar KDF."""
    rng = random.Random(n)
    start = 5
    choices = [rng.randint(0, 1) for _ in range(n)]
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(n)]
    resolved = backend and resolve_backend(backend)
    sender = OtSender(LabelPrg(21), resolved)
    per_bit = OtReceiver(LabelPrg(22), sender.public)
    batched = OtReceiver(LabelPrg(22), backend=resolved)

    chosen = [per_bit.choose(choice) for choice in choices]
    assert _chosen(batched, sender.public, choices) == chosen
    points = [point for point, _ in chosen]
    secrets = [secret for _, secret in chosen]

    ciphers = [
        sender.encrypt(start + i, point, m0, m1)
        for i, (point, (m0, m1)) in enumerate(zip(points, pairs))
    ]
    assert sender.encrypt_batch(points, pairs, start_index=start) == ciphers

    messages = [
        per_bit.decrypt(start + i, choice, secret, c0, c1)
        for i, (choice, secret, (c0, c1)) in enumerate(
            zip(choices, secrets, ciphers)
        )
    ]
    assert _opened(batched, ciphers, start) == messages
    assert messages == [pair[choice] for pair, choice in zip(pairs, choices)]


@pytest.mark.parametrize("n", [1, _KDF_BATCH_MIN])
def test_batched_paths_match_per_bit_on_the_fallback(n, monkeypatch):
    """The same equivalence with ``_powmod`` on builtin ``pow``."""
    monkeypatch.setattr(ot, "_LIBCRYPTO", None)
    test_batched_paths_match_per_bit(n, "auto")


@pytest.mark.parametrize("name, seed", [("mixed8", 3), ("hamm64", 3)])
def test_sessions_on_libcrypto_without_aes_match_the_goldens(
    circuits, name, seed, monkeypatch
):
    """Where libcrypto lacks the raw AES calls, every gate-hash batch
    takes the array kernel and every small pad batch the Python chain,
    and the sessions are still the pinned ones."""
    _load_without_aes(monkeypatch)

    def refused(*args):
        raise AssertionError("libcrypto's AES ran without its handle")

    monkeypatch.setattr(ot, "_encrypt_under_tweaks", refused)
    monkeypatch.setattr(ot, "_kdf_chains", refused)
    golden.test_session_transcript_is_pinned(circuits, name, seed, "numpy")


def _ot_inputs(m, seed):
    rng = random.Random(seed)
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(m)]
    return pairs, [rng.randint(0, 1) for _ in range(m)]


def _extension_pair(choices, seed, backend):
    """Both extension parties, each past its own-state opening steps."""
    receiver = OtExtReceiver(LabelPrg(seed + 1), choices, backend)
    receiver.prepare()
    return receiver, OtExtSender(LabelPrg(seed), backend)


def _run_extension(pairs, choices, seed, backend):
    """Both extension parties in one process, seeded like ``run_ot_batch``;
    returns ``(chosen messages, every payload in wire order, receiver)``."""
    backend = resolve_backend(backend)
    receiver, sender = _extension_pair(choices, seed, backend)
    points = sender.points(receiver.public)
    sender.derive_pads()
    seed_ciphers, matrix = receiver.respond(points), receiver.matrix
    receiver.derive_pads()
    ciphers = sender.encrypt(seed_ciphers, matrix, pairs)
    transcript = (
        receiver.public.to_bytes(_POINT_BYTES, "big"),
        ints_to_bytes(points, _POINT_BYTES),
        ints_to_bytes(seed_ciphers),
        matrix,
        ints_to_bytes(ciphers),
    )
    return receiver.decrypt(ciphers), transcript, receiver


class TestOtExtension:
    """The extension against its oracle: direct OT on the same inputs."""

    @pytest.mark.parametrize("m", [205, 206, 211, 256, 512, 1000])
    def test_equals_direct_ot(self, m):
        pairs, choices = _ot_inputs(m, seed=m)
        expected = [pair[choice] for pair, choice in zip(pairs, choices)]
        assert run_ot_batch(pairs, choices, seed=m) == expected
        numpy_out, numpy_wire, _ = _run_extension(pairs, choices, m, "numpy")
        assert numpy_out == expected
        # The rule's byte count is the payload the parties really produce.
        assert sum(map(len, numpy_wire)) == ot_handshake_bytes(m, True)

    def test_receiver_cannot_get_other_message(self):
        """The pad that opens the chosen ciphertext yields garbage, not
        the other message, on the unchosen one."""
        pairs, choices = _ot_inputs(205, seed=3)
        chosen, wire, receiver = _run_extension(pairs, choices, 3, "numpy")
        assert chosen == [pair[choice] for pair, choice in zip(pairs, choices)]
        receiver.choices = [1 - choice for choice in choices]
        others = receiver.decrypt(bytes_to_ints(wire[-1]))
        for other, pair in zip(others, pairs):
            assert other not in pair

    def test_selection_rule_from_its_constants(self):
        for m in (0, 1, 204, 205, 512, 4096):
            assert ot_handshake_bytes(m, False) == (
                (1 + m) * _POINT_BYTES + 2 * _LABEL_BYTES * m
            )
            assert ot_handshake_bytes(m, True) == (
                (1 + OT_KAPPA) * _POINT_BYTES
                + 2 * _LABEL_BYTES * OT_KAPPA
                + OT_KAPPA * m // 8
                + 2 * _LABEL_BYTES * m
            )
        extends = [
            ot_handshake_bytes(m, True) < ot_handshake_bytes(m, False)
            for m in range(2048)
        ]
        assert extends == [m >= 205 for m in range(2048)]

    def test_roles_switch_at_the_threshold(self):
        from repro.workloads import get_workload

        direct = {"ot_public", "ot_points", "ot_ciphers"}
        extended = {
            "otx_public", "otx_points", "otx_seeds", "otx_matrix", "otx_ciphers",
        }
        for n_bits, expected in ((204, direct), (205, extended)):
            circuit = get_workload("Hamm").build(n_bits=n_bits).circuit
            assert circuit.n_evaluator_inputs == n_bits
            bits = [index & 1 for index in range(n_bits)]
            result = run_two_party(circuit, bits, bits[::-1], backend="auto")
            # The oracle stays on the direct handshake at any width.
            oracle = run_oracle_session(circuit, bits, bits[::-1])
            assert result.output_bits == oracle.output_bits
            assert result.output_bits == circuit.eval_plain(bits, bits[::-1])
            kinds = {key.split(":")[1] for key in result.traffic}
            assert kinds & (direct | extended) == expected

    def test_sizes_are_checked(self):
        pairs, choices = _ot_inputs(8, seed=1)
        backend = resolve_backend("numpy")
        receiver, sender = _extension_pair(choices, 1, backend)
        seed_ciphers = receiver.respond(sender.points(receiver.public))
        matrix = receiver.matrix
        sender.derive_pads()
        receiver.derive_pads()
        with pytest.raises(ValueError):
            sender.encrypt(seed_ciphers[:-1], matrix, pairs)
        with pytest.raises(ValueError):
            sender.encrypt(seed_ciphers, matrix + b"\0", pairs)
        with pytest.raises(ValueError):
            receiver.decrypt([0] * 15)
        with pytest.raises(ValueError):
            OtExtReceiver(LabelPrg(2), [0, 2], backend)

    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_random_batches(self, data):
        m = data.draw(st.integers(205, 600))
        choices = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        pairs, _ = _ot_inputs(m, seed=m)
        chosen, _, _ = _run_extension(pairs, choices, m, "numpy")
        assert chosen == [pair[choice] for pair, choice in zip(pairs, choices)]


class TestTwoPartySession:
    def _millionaires(self, width=8):
        builder = CircuitBuilder()
        alice = builder.add_garbler_inputs(width)
        bob = builder.add_evaluator_inputs(width)
        builder.mark_outputs([less_than(builder, bob, alice)])
        return builder.build("millionaires")

    def test_millionaires_problem(self):
        circuit = self._millionaires()
        for alice_wealth, bob_wealth in [(5, 3), (3, 5), (7, 7), (255, 0)]:
            a_bits = [(alice_wealth >> i) & 1 for i in range(8)]
            b_bits = [(bob_wealth >> i) & 1 for i in range(8)]
            result = run_two_party(circuit, a_bits, b_bits, seed=3)
            assert result.output_bits == [int(bob_wealth < alice_wealth)]

    def test_matches_plain_eval(self, mixed_circuit, rng):
        garbler_bits = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        evaluator_bits = [
            rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)
        ]
        result = run_two_party(mixed_circuit, garbler_bits, evaluator_bits, seed=4)
        assert result.output_bits == mixed_circuit.eval_plain(
            garbler_bits, evaluator_bits
        )

    def test_traffic_includes_tables(self, mixed_circuit):
        """Framed accounting: 32 B per AND table, plus one frame (its
        header, CRC and kind) per AND level's block."""
        result = run_two_party(
            mixed_circuit,
            [0] * mixed_circuit.n_garbler_inputs,
            [0] * mixed_circuit.n_evaluator_inputs,
            seed=4,
        )
        per_frame = FRAME_OVERHEAD + len("tables")
        assert result.traffic["garbler->evaluator:tables"] == (
            32 * result.and_gates + per_frame * result.streamed_levels
        )
        assert result.total_bytes > 32 * result.and_gates

    @needs_libcrypto_aes
    def test_session_runs_no_python_kdf_chain(self, mixed_circuit, monkeypatch):
        """A backend-given mixed8 session (8 choices: 16 sender chains,
        8 receiver chains) pads every chain on libcrypto's AES."""
        calls = []

        def counted(point, tweak):
            calls.append(point)
            return _kdf(point, tweak)

        monkeypatch.setattr(ot, "_kdf", counted)
        garbler_bits = [1, 0] * (mixed_circuit.n_garbler_inputs // 2)
        evaluator_bits = [0, 1] * (mixed_circuit.n_evaluator_inputs // 2)
        result = TwoPartySession(mixed_circuit, seed=3, backend="numpy").run_streamed(
            garbler_bits, evaluator_bits
        )
        assert result.output_bits == mixed_circuit.eval_plain(
            garbler_bits, evaluator_bits
        )
        assert calls == []

    def test_wrong_input_count(self, tiny_circuit):
        with pytest.raises(ValueError):
            run_two_party(tiny_circuit, [0, 1], [0], seed=0)
