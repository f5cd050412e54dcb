"""Oblivious transfer and the end-to-end two-party protocol."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import less_than
from repro.gc.backends import resolve_backend
from repro.gc import ot
from repro.gc.channel import Channel, make_channel_pair
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
    _FixedBaseTable,
    _kdf,
    _kdf_batch,
    run_ot,
    run_ot_batch,
)
from repro.gc.protocol import run_two_party
from repro.gc.rng import LabelPrg
from repro.gc.roles import _LABEL_BYTES, _POINT_BYTES, ot_handshake_bytes


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
        """The two-party session (now on the batched path) must emit the
        byte-identical transcript the per-bit path produced: same
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


class TestKdfKernel:
    """``_kdf_batch`` on the block AES kernel against the scalar chain."""

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

    def test_all_zero_points_keep_their_tweaks(self):
        tweaks = list(range(_KDF_BATCH_MIN))
        zeros = [0] * _KDF_BATCH_MIN
        assert _kdf_batch(zeros, tweaks, resolve_backend("numpy")) == tweaks


# One batch size per window width the selector can return, narrowest first.
_BATCH_PER_WIDTH = [1, 2, 8, 20, 60, 128, 512, 2000]


class TestFixedBaseTable:
    """One table class, every width the selector can return."""

    def test_widths_follow_the_cost_model(self):
        widths = [_FixedBaseTable.width_for(n) for n in _BATCH_PER_WIDTH]
        assert widths == list(_FixedBaseTable._WIDTHS)
        assert _FixedBaseTable.width_for(0) == 1
        assert _FixedBaseTable.width_for(10**9) == _FixedBaseTable._WIDTHS[-1]

    @pytest.mark.parametrize("batch", _BATCH_PER_WIDTH)
    @settings(max_examples=10, deadline=None)
    @given(
        base=st.integers(2, GROUP_P - 1),
        exponent=st.one_of(
            st.sampled_from([0, 1, (1 << 256) - 1, 1 << 256, (1 << 300) + 5]),
            st.integers(0, (1 << 256) - 1),
            st.integers(1 << 256, (1 << 400) - 1),
        ),
    )
    def test_pow_matches_builtin(self, batch, base, exponent):
        table = _FixedBaseTable(base, GROUP_P, batch)
        assert table.pow(exponent) == pow(base, exponent, GROUP_P)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            _FixedBaseTable(3, GROUP_P, 512).pow(-1)

    def test_generator_table_is_built_once_per_width(self, monkeypatch):
        built = []

        class Counting(_FixedBaseTable):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ot, "_FixedBaseTable", Counting)
        monkeypatch.setattr(ot, "_GENERATOR_TABLES", {})
        sender = OtSender(LabelPrg(1))
        shared = None
        for seed in (2, 3, 4):
            per_bit = OtReceiver(LabelPrg(seed), sender.public)
            assert _chosen(OtReceiver(LabelPrg(seed)), sender.public, [0, 1] * 4) == [
                per_bit.choose(choice) for choice in [0, 1] * 4
            ]
            shared = shared or ot._generator_table(8)
            assert ot._generator_table(8) is shared
        assert len(built) == 1
        OtReceiver(LabelPrg(5)).draw([1] * 128)
        assert len(built) == 2
        assert sorted(ot._GENERATOR_TABLES) == sorted(
            {_FixedBaseTable.width_for(8), _FixedBaseTable.width_for(128)}
        )

    @pytest.mark.parametrize("batch", _BATCH_PER_WIDTH)
    def test_generator_table_pow(self, batch, monkeypatch):
        monkeypatch.setattr(ot, "_GENERATOR_TABLES", {})  # 300 bits extend it
        table = ot._generator_table(batch)
        for exponent in (0, 1, (1 << 256) - 1, 1 << 256, (1 << 300) + 5, 12345):
            assert table.pow(exponent) == pow(GROUP_G, exponent, GROUP_P)

    @staticmethod
    def _assert_rows_consistent(table):
        """Every row complete, and each one the successor of the last."""
        base = GROUP_G
        for row in table.rows:
            assert len(row) == 1 << table.width
            assert row[:2] == [1, base]
            for d in range(2, len(row)):
                assert row[d] == row[d - 1] * base % GROUP_P
            base = row[-1] * base % GROUP_P

    def test_shared_table_is_never_seen_half_extended(self):
        table = _FixedBaseTable(GROUP_G, GROUP_P, 60)
        rng = random.Random(36)
        exponents = [rng.getrandbits(256 + 24 * i) for i in range(1, 25)]
        results = {}
        barrier = threading.Barrier(4)

        def worker(k):
            barrier.wait()
            results[k] = [table.pow(exponent) for exponent in exponents[k::4]]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-growth
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3], "a worker raised"
        for k in range(4):
            assert results[k] == [
                pow(GROUP_G, exponent, GROUP_P) for exponent in exponents[k::4]
            ]
        self._assert_rows_consistent(table)


@pytest.mark.parametrize("backend", ["auto", None])
@pytest.mark.parametrize("n", [0, 1, _KDF_BATCH_MIN - 1, _KDF_BATCH_MIN, 513])
def test_batched_paths_match_per_bit(n, backend):
    """The batched receiver's steps and ``encrypt_batch`` are
    element for element the per-bit sequence, on either side of the KDF
    selection and at a non-zero ``start_index``; with no backend (what
    ``TwoPartySession.run`` hands them) every batch takes the scalar
    KDF."""
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
            result = run_two_party(
                circuit, bits, bits[::-1], streamed=True, backend="auto"
            )
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


class TestChannel:
    def test_fifo_and_accounting(self):
        channel = Channel("test")
        channel.send("tables", [1, 2], 64)
        channel.send("labels", [3], 16)
        assert channel.total_bytes == 80
        assert channel.recv("tables") == [1, 2]
        assert channel.recv("labels") == [3]

    def test_kind_mismatch(self):
        channel = Channel("test")
        channel.send("tables", [], 0)
        with pytest.raises(RuntimeError):
            channel.recv("labels")

    def test_empty_recv(self):
        with pytest.raises(RuntimeError):
            Channel("test").recv("anything")

    def test_pair_report(self):
        pair = make_channel_pair()
        pair.to_evaluator.send("tables", [], 320)
        pair.to_garbler.send("outputs", [], 4)
        report = pair.traffic_report()
        assert report["garbler->evaluator:tables"] == 320
        assert report["evaluator->garbler:outputs"] == 4
        assert pair.total_bytes == 324


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
        result = run_two_party(
            mixed_circuit,
            [0] * mixed_circuit.n_garbler_inputs,
            [0] * mixed_circuit.n_evaluator_inputs,
            seed=4,
        )
        assert result.traffic["garbler->evaluator:tables"] == 32 * result.and_gates
        assert result.total_bytes > 32 * result.and_gates

    def test_wrong_input_count(self, tiny_circuit):
        with pytest.raises(ValueError):
            run_two_party(tiny_circuit, [0, 1], [0], seed=0)
