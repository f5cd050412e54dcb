"""Backend layer: resolution, the array AES, batched garbling parity.

The contract under test: both schedulers (the per-gate reference, the
oracle, vs. the level-batched block engine) produce *bitwise-identical*
garbled tables, wire labels, decode bits and hash accounting, across
every stdlib circuit family.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib import fixed, integer, logic
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.circuits.stdlib.float import FloatFormat, fp_add
from repro.gc import aes, ot
from repro.circuits.netlist import OP_AND, Circuit
from repro.core.compiler import OptLevel
from repro.gc.backends import (
    BackendUnavailable,
    NumpyLabelHashBackend,
    resolve_backend,
)
from repro.gc.evaluate import BlockEvaluatorStore, evaluate_circuit_batched
from repro.gc.garble import BlockGarblerStore, and_tweaks, garble_circuit_batched
from repro.gc.halfgate import tables_to_bytes
from repro.gc.hashing import GateHasher, rekeyed_hash
from repro.gc.labels import ints_to_bytes
from repro.gc.protocol import StreamedDriver, TwoPartySession, run_two_party
from repro.sim.config import HaacConfig
from tests.conftest import circuit_from_gates
from tests.gc.oracles import evaluate_circuit, fixed_key_hash, garble_circuit
from tests.gc.session_oracle import run_oracle_session


def _logic8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(logic.popcount(b, logic.bitwise_and(b, xs, ys)))
    b.mark_outputs([logic.equals(b, xs, ys), logic.parity(b, xs)])
    b.mark_outputs(logic.mux(b, logic.any_bit(b, ys), xs, ys))
    return b.build("logic8")


def _adder8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(integer.add(b, xs, ys))
    return b.build("adder8")


def _integer8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(integer.sub(b, xs, ys))
    b.mark_outputs(integer.mul(b, xs, ys))
    b.mark_outputs([integer.less_than(b, xs, ys)])
    return b.build("integer8")


def _fixed8():
    b = CircuitBuilder()
    fmt = fixed.FixedFormat(width=8, fraction_bits=3)
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(fixed.fx_mul(b, fmt, xs, ys))
    return b.build("fixed8")


def _float8():
    b = CircuitBuilder()
    fmt = FloatFormat(exponent_bits=4, mantissa_bits=3)
    xs = b.add_garbler_inputs(fmt.width)
    ys = b.add_evaluator_inputs(fmt.width)
    b.mark_outputs(fp_add(b, fmt, xs, ys))
    return b.build("float8")


STDLIB_CIRCUITS = {
    "logic8": _logic8,
    "adder8": _adder8,
    "integer8": _integer8,
    "fixed8": _fixed8,
    "float8": _float8,
}


def _random_circuit(rng, n_inputs=10, n_gates=120):
    """Random well-formed circuit (mirrors the conftest helper)."""
    from repro.circuits.netlist import Gate, GateOp

    gates = []
    n_wires = n_inputs
    for _ in range(n_gates):
        roll = rng.random()
        a = rng.randrange(n_wires)
        if roll < 0.1:
            gates.append(Gate(GateOp.INV, a, -1, n_wires))
        else:
            b = rng.randrange(n_wires)
            op = GateOp.AND if roll < 0.5 else GateOp.XOR
            gates.append(Gate(op, a, b, n_wires))
        n_wires += 1
    outputs = [n_wires - 1 - i for i in range(max(1, n_gates // 8))]
    half = n_inputs // 2
    return circuit_from_gates(half, n_inputs - half, gates, outputs, "random")


def _ragged_circuit(widths):
    """One AND level per entry of ``widths``, that many gates wide, each
    level's outputs folded into the garbler inputs by free XORs."""
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(max(widths))
    ys = b.add_evaluator_inputs(max(widths))
    carry = xs
    for width in widths:
        ands = [b.AND(carry[i % len(carry)], ys[i]) for i in range(width)]
        b.mark_outputs(ands)
        carry = [b.XOR(wire, x) for wire, x in zip(ands, xs)]
    b.mark_outputs(carry)
    return b.build("ragged")


def _inv_heavy():
    """INV through the sentinel row: an INV of an input wire, INV chains
    before and after AND levels, ``a == b`` XORs (zero labels on both
    sides) feeding ANDs and INVs, and INVs among the outputs."""
    from repro.circuits.netlist import Gate, GateOp

    inv, xor, and_ = GateOp.INV, GateOp.XOR, GateOp.AND
    gates = [
        (inv, 0, -1), (inv, 5, -1), (inv, 6, -1),  # 5-7: a chain off input 0
        (xor, 1, 1),                               # 8: a == b
        (and_, 7, 3), (and_, 8, 4),                # 9, 10
        (inv, 9, -1), (xor, 10, 10), (inv, 12, -1),  # 11-13
        (xor, 11, 11), (and_, 13, 2), (and_, 11, 14),  # 14-16
        (inv, 15, -1), (inv, 17, -1), (xor, 18, 16),  # 17-19
        (inv, 4, -1), (inv, 20, -1),               # 20, 21: a chain off input 4
    ]
    gates = [Gate(op, a, b, 5 + p) for p, (op, a, b) in enumerate(gates)]
    return circuit_from_gates(3, 2, gates, [11, 17, 19, 21, 7, 0], "inv_heavy")


def _crossover_widths(runs):
    """The AND counts whose ``2 * runs`` labels a gate sit just below
    and at the gate hash's crossover (``_KDF_BATCH_MIN`` labels)."""
    at = ot._KDF_BATCH_MIN // (2 * runs)
    return [at - 1, at]


#: The stdlib families, an INV-heavy netlist, ragged level widths: 5,
#: 1, 40, 2 ANDs, and levels on both sides of the crossover for both
#: parties (the Garbler hashes 4 labels a gate, the Evaluator 2).
LEVEL_CIRCUITS = {
    **STDLIB_CIRCUITS,
    "inv_heavy": _inv_heavy,
    "ragged": lambda: _ragged_circuit([5, 1, 40, 2]),
    "ragged_crossover": lambda: _ragged_circuit(
        _crossover_widths(2) + _crossover_widths(1)
    ),
}


@pytest.fixture(params=["libcrypto", "kernel"])
def gate_hash_path(request, monkeypatch):
    """Run the block stores' gate hash with libcrypto's AES as loaded,
    or with it forced off (every batch on the array kernel)."""
    if request.param == "kernel":
        monkeypatch.setattr(ot, "_LIBCRYPTO_AES", None)
    return request.param


def _assert_batched_matches_reference(circuit, seed=11):
    reference = garble_circuit(circuit, seed=seed)
    batched = garble_circuit_batched(circuit, seed=seed)
    assert batched.r == reference.r
    assert batched.zero_labels == reference.zero_labels
    assert batched.garbled.tables == reference.garbled.tables
    assert batched.garbled.decode_bits == reference.garbled.decode_bits
    assert batched.hasher.calls == reference.hasher.calls

    rng = random.Random(seed)
    garbler_bits = [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)]
    evaluator_bits = [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)]
    inputs = [
        reference.input_label(wire, bit)
        for wire, bit in enumerate(garbler_bits + evaluator_bits)
    ]
    want = evaluate_circuit(circuit, reference.garbled, inputs)
    got = evaluate_circuit_batched(circuit, batched.garbled, inputs)
    assert got.output_labels == want.output_labels
    assert got.output_bits == want.output_bits
    assert got.output_bits == circuit.eval_plain(garbler_bits, evaluator_bits)
    assert got.hash_calls == want.hash_calls


class TestResolveBackend:
    @pytest.mark.parametrize("choice", [None, "auto", "numpy"])
    def test_every_default_name_is_numpy(self, choice):
        assert isinstance(resolve_backend(choice), NumpyLabelHashBackend)

    @pytest.mark.parametrize(
        "choice",
        ["cuda", "scalar", "parallel", "parallel:4", "numpy:2", "scalar:4",
         "auto:2", "", "NUMPY", "Auto", " numpy", "numpy "],
    )
    def test_other_names_raise(self, choice):
        with pytest.raises(BackendUnavailable, match="unknown gc backend"):
            resolve_backend(choice)

    def test_resolve_accepts_instances(self):
        backend = NumpyLabelHashBackend()
        assert resolve_backend(backend) is backend

    def test_environment_selects_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_GC_BACKEND", "scalar")
        assert isinstance(resolve_backend("auto"), NumpyLabelHashBackend)


class TestHashParity:
    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_backends_match_scalar_hash(self, rekeyed):
        rng = random.Random(0xBEEF)
        labels = [rng.getrandbits(128) for _ in range(257)]
        tweaks = [rng.getrandbits(64) for _ in range(257)]
        scalar_fn = rekeyed_hash if rekeyed else fixed_key_hash
        want = [scalar_fn(label, tweak) for label, tweak in zip(labels, tweaks)]
        assert resolve_backend().hash_labels(labels, tweaks, rekeyed) == want

    @pytest.mark.parametrize("tweak", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_edge_tweaks_match_scalar_hash(self, tweak, rekeyed):
        """Tweaks on either side of the key's 64-bit word split, and the
        widest one, against the scalar hash."""
        labels = [0, (1 << 128) - 1, 0x0123456789ABCDEF << 64]
        scalar_fn = rekeyed_hash if rekeyed else fixed_key_hash
        want = [scalar_fn(label, tweak) for label in labels]
        assert resolve_backend().hash_labels(labels, [tweak] * 3, rekeyed) == want

    def test_empty_batch(self):
        assert resolve_backend().hash_labels([], [], True) == []

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            resolve_backend().hash_labels([1, 2], [0], True)


# FIPS-197: Appendix A.1 (key expansion), B (cipher example), C.1.
_FIPS_KEY = 0x2B7E151628AED2A6ABF7158809CF4F3C
_FIPS_A1_WORDS = {
    4: 0xA0FAFE17, 5: 0x88542CB1, 8: 0xF2C295F2, 20: 0xD4D1C6F8,
    36: 0xAC7766F3, 40: 0xD014F9A8, 41: 0xC9EE2589, 43: 0xB6630CA6,
}
_FIPS_VECTORS = [
    (_FIPS_KEY, 0x3243F6A8885A308D313198A2E0370734,
     0x3925841D02DC09FBDC118597196A0B32),
    (0x000102030405060708090A0B0C0D0E0F, 0x00112233445566778899AABBCCDDEEFF,
     0x69C4E0D86A7B0430D8CDB78070B4C55A),
]


def _random_blocks(backend, rng, n):
    values = [rng.getrandbits(128) for _ in range(n)]
    return values, backend.ints_to_blocks(values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestArrayKernel:
    """The word-plane AES kernel itself, against scalar :mod:`repro.gc.aes`.

    Any RuntimeWarning (a rotate or an rcon shift overflowing silently)
    is a failure.
    """

    @pytest.fixture(scope="class")
    def backend(self):
        return NumpyLabelHashBackend()

    def test_fips197_key_expansion(self, backend):
        schedules = backend.expand_keys(backend.ints_to_blocks([_FIPS_KEY]))
        assert tuple(schedules[0].tolist()) == aes.expand_key(_FIPS_KEY)
        for index, word in _FIPS_A1_WORDS.items():
            assert int(schedules[0, index]) == word

    def test_fips197_known_answers(self, backend):
        keys = backend.ints_to_blocks([key for key, _, _ in _FIPS_VECTORS])
        blocks = backend.ints_to_blocks([block for _, block, _ in _FIPS_VECTORS])
        out = backend.encrypt_blocks(blocks, backend.expand_keys(keys))
        assert backend.blocks_to_ints(out) == [c for _, _, c in _FIPS_VECTORS]

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 4097])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_matches_scalar_aes(self, backend, n, seed):
        rng = random.Random(seed)
        keys, key_blocks = _random_blocks(backend, rng, n)
        values, blocks = _random_blocks(backend, rng, n)
        schedules = backend.expand_keys(key_blocks)
        assert (schedules.shape, schedules.dtype) == ((n, 44), np.uint32)
        assert [tuple(row) for row in schedules.tolist()] == [
            aes.expand_key(key) for key in keys
        ]
        encrypted = backend.encrypt_blocks(blocks, schedules)
        for out in (
            encrypted,
            backend.hash_with_schedules(blocks, schedules),
            backend.hash_fixed_key_blocks(blocks, key_blocks),
        ):
            assert (out.shape, out.dtype) == ((n, 4), np.uint32)
        assert backend.blocks_to_ints(encrypted) == [
            aes.encrypt_block(value, key) for value, key in zip(values, keys)
        ]

    def test_any_input_layout(self, backend, rng):
        """C- or F-ordered, sliced, byte-swapped and broadcast inputs all
        mean what their values say."""
        keys, key_blocks = _random_blocks(backend, rng, 64)
        values, blocks = _random_blocks(backend, rng, 64)
        schedules = np.ascontiguousarray(backend.expand_keys(key_blocks))
        want = backend.encrypt_blocks(blocks, schedules).tolist()
        want_hash = backend.hash_with_schedules(blocks, schedules).tolist()
        variants = [
            (np.asfortranarray(blocks), np.asfortranarray(schedules)),
            (blocks.astype(">u4"), schedules.astype(">u4")),
            (np.repeat(blocks, 2, axis=0)[::2], np.repeat(schedules, 2, axis=0)[::2]),
        ]
        for block_variant, schedule_variant in variants:
            got = backend.encrypt_blocks(block_variant, schedule_variant)
            assert got.tolist() == want
            got = backend.hash_with_schedules(block_variant, schedule_variant)
            assert got.tolist() == want_hash
            assert backend.expand_keys(
                block_variant
            ).tolist() == backend.expand_keys(blocks).tolist()
        assert backend.encrypt_blocks(blocks[::2], schedules[::2]).tolist() == want[::2]
        # One (44,) schedule broadcasts over the batch (the single-key users).
        single = backend.encrypt_blocks(blocks, schedules[5])
        assert backend.blocks_to_ints(single) == [
            aes.encrypt_block(value, keys[5]) for value in values
        ]

    def test_inputs_untouched_and_results_independent(self, backend, rng):
        """No kernel writes through an input -- not even one that is a
        transposed view of an earlier result -- and no result is a buffer
        a later call reuses."""
        _, key_blocks = _random_blocks(backend, rng, 300)
        _, blocks = _random_blocks(backend, rng, 300)
        schedules = backend.expand_keys(key_blocks)
        first = backend.hash_with_schedules(blocks, schedules)
        inputs = [key_blocks, blocks, schedules, first]
        before = [array.copy() for array in inputs]
        # `first` (a view of plane storage) goes back in as blocks.
        results = [
            backend.expand_keys(first),
            backend.encrypt_blocks(first, schedules),
            backend.hash_with_schedules(first, schedules),
            backend.hash_fixed_key_blocks(first, key_blocks),
            backend.sigma_blocks(first),
        ]
        for array, snapshot in zip(inputs, before):
            assert np.array_equal(array, snapshot)
        snapshots = [array.copy() for array in results]
        backend.hash_with_schedules(blocks[::-1], backend.expand_keys(blocks))
        backend.encrypt_blocks(key_blocks, schedules[7])
        for array, snapshot in zip(results, snapshots):
            assert np.array_equal(array, snapshot)
            assert not any(np.shares_memory(array, other) for other in inputs)

    def test_interleaved_sessions_share_one_backend(self, backend):
        """Two streamed sessions stepped alternately on one backend
        instance keep the digests they have when run alone."""
        def driver(circuit, seed):
            garbler_bits = [i & 1 for i in range(circuit.n_garbler_inputs)]
            evaluator_bits = [(i >> 1) & 1 for i in range(circuit.n_evaluator_inputs)]
            session = TwoPartySession(circuit, seed=seed, backend=backend)
            return StreamedDriver(session, garbler_bits, evaluator_bits)

        def run(*drivers):
            while not all(d.done for d in drivers):
                for d in drivers:
                    if not d.done:
                        d.step()
            return [(d.result.transcript_digest, d.result.output_bits) for d in drivers]

        jobs = [(_integer8(), 3), (_logic8(), 4)]
        alone = [run(driver(circuit, seed))[0] for circuit, seed in jobs]
        assert run(*(driver(circuit, seed) for circuit, seed in jobs)) == alone


class TestBlockStoreHash:
    """The block stores' per-batch hash layout, against the scalar hash:
    ``runs`` runs of ``2m`` labels, each the ``m`` ``a`` labels under
    tweak ``2p`` then the ``m`` ``b`` labels under ``2p + 1``."""

    @pytest.mark.parametrize(
        "runs, m", [(runs, m) for runs in (1, 2) for m in [1, 37] + _crossover_widths(runs)]
    )
    def test_runs_hash_under_batch_keys(
        self, adder_circuit, rng, m, runs, gate_hash_path, monkeypatch
    ):
        """Both paths equal the scalar hash, and a batch takes libcrypto
        exactly when it is loaded and the batch is below the crossover."""
        backend = NumpyLabelHashBackend()
        hasher = GateHasher()
        store = BlockEvaluatorStore(
            adder_circuit, ints_to_bytes([0] * adder_circuit.n_inputs), backend, hasher
        )

        def refused(*args):
            raise AssertionError("the gate hash took the other path")

        if ot._LIBCRYPTO_AES is not None and 2 * m * runs < ot._KDF_BATCH_MIN:
            monkeypatch.setattr(backend, "hash_with_schedules", refused)
        else:
            monkeypatch.setattr(ot, "_encrypt_under_tweaks", refused)
        positions = np.asarray(rng.sample(range(10_000), m), dtype=np.int64)
        values, blocks = _random_blocks(backend, rng, 2 * m * runs)
        got = backend.blocks_to_ints(store._hash(positions, blocks, runs))
        tweaks = [2 * int(p) for p in positions] + [2 * int(p) + 1 for p in positions]
        assert got == [
            rekeyed_hash(value, tweak)
            for value, tweak in zip(values, tweaks * runs)
        ]
        assert hasher.calls == 2 * m * runs

    @pytest.mark.parametrize("circuit_name", sorted(LEVEL_CIRCUITS))
    def test_garbler_levels_match_per_gate(self, rng, circuit_name, gate_hash_path):
        """Level by level, the block Garbler emits per-gate
        ``garble_circuit``'s tables at that level's AND positions, and
        ends on its zero-labels."""
        circuit = LEVEL_CIRCUITS[circuit_name]()
        reference = garble_circuit(circuit, seed=rng.getrandbits(32))
        table_of = _tables_by_position(circuit, reference.garbled.tables)
        hasher = GateHasher()
        store = BlockGarblerStore(
            circuit, reference.zero_labels[: circuit.n_inputs], reference.r,
            NumpyLabelHashBackend(), hasher,
        )
        for index, (and_positions, _) in enumerate(circuit.and_level_schedule()):
            want = tables_to_bytes([table_of[p] for p in and_positions])
            assert store.garble_level(index) == want, f"level {index} diverges"
        # Every wire's label in wire order; the sentinel row (R) is not one.
        assert len(store.labels()) == circuit.n_wires
        assert store.labels() == reference.zero_labels
        assert store.permute_bits(circuit.outputs) == reference.garbled.decode_bits
        assert hasher.calls == reference.hasher.calls == 4 * circuit.op.count(OP_AND)

    @pytest.mark.parametrize("circuit_name", sorted(LEVEL_CIRCUITS))
    def test_evaluator_levels_match_per_gate(self, rng, circuit_name, gate_hash_path):
        """Level by level, the block Evaluator reaches the labels per-gate
        ``evaluate_circuit`` does, fed that level's tables."""
        named = LEVEL_CIRCUITS[circuit_name]()
        # The same gates with every wire an output: the oracle then
        # returns every label it computed.
        circuit = Circuit.from_columns(
            named.n_garbler_inputs, named.n_evaluator_inputs,
            list(range(named.n_wires)), named.op, named.a, named.b, named.out,
        )
        garbler = garble_circuit(circuit, seed=rng.getrandbits(32))
        inputs = [
            garbler.input_label(wire, rng.getrandbits(1))
            for wire in range(circuit.n_inputs)
        ]
        want = evaluate_circuit(circuit, garbler.garbled, inputs)
        table_of = _tables_by_position(circuit, garbler.garbled.tables)
        hasher = GateHasher()
        store = BlockEvaluatorStore(
            circuit, ints_to_bytes(inputs), NumpyLabelHashBackend(), hasher
        )
        for index, (and_positions, _) in enumerate(circuit.and_level_schedule()):
            store.evaluate_level(
                index, tables_to_bytes([table_of[p] for p in and_positions])
            )
            outs = [circuit.out[p] for p in and_positions]
            got = store.labels(outs)
            assert got == [want.output_labels[w] for w in outs], f"level {index}"
        assert len(store.labels()) == circuit.n_wires
        assert store.labels() == want.output_labels
        assert store.permute_bits(circuit.outputs) == [
            label & 1 for label in want.output_labels
        ]
        assert hasher.calls == want.hash_calls == 2 * circuit.op.count(OP_AND)


class TestAndTweaks:
    """The AND-level plan keeps AND positions narrow (int32); the tweaks
    ``2p`` / ``2p + 1`` are derived in int64, so positions from 2**30 up,
    whose doubles overflow int32, key exactly as int64 positions do."""

    WIDE = [0, 1, 2**30, 2**30 + 7, 2**31 - 1]

    def test_narrow_positions_give_the_int64_keys(self):
        wide = np.asarray(self.WIDE, dtype=np.int64)
        tweaks = and_tweaks(wide.astype(np.int32))
        assert tweaks.dtype == np.int64
        assert tweaks.tolist() == [2 * p for p in self.WIDE] + [
            2 * p + 1 for p in self.WIDE
        ]
        backend = NumpyLabelHashBackend()
        assert np.array_equal(
            backend.tweaks_to_keys(tweaks), backend.tweaks_to_keys(and_tweaks(wide))
        )

    def test_store_hashes_narrow_positions_like_the_scalar_hash(
        self, adder_circuit, rng
    ):
        backend = NumpyLabelHashBackend()
        store = BlockEvaluatorStore(
            adder_circuit, ints_to_bytes([0] * adder_circuit.n_inputs),
            backend, GateHasher(),
        )
        m = len(self.WIDE)
        values, blocks = _random_blocks(backend, rng, 2 * m)
        positions = np.asarray(self.WIDE, dtype=np.int32)
        got = backend.blocks_to_ints(store._hash(positions, blocks, 1))
        tweaks = [2 * p for p in self.WIDE] + [2 * p + 1 for p in self.WIDE]
        assert got == [rekeyed_hash(v, t) for v, t in zip(values, tweaks)]


class TestBlockGarblerSelect:
    @pytest.mark.parametrize("circuit_name", sorted(STDLIB_CIRCUITS))
    def test_select_is_the_per_gate_input_label(self, rng, circuit_name):
        """The wire format of the labels a Garbler sends for its bits is
        per-gate ``Garbler.input_label``, 16 big-endian bytes each."""
        circuit = STDLIB_CIRCUITS[circuit_name]()
        reference = garble_circuit(circuit, seed=5)
        store = BlockGarblerStore(
            circuit, reference.zero_labels[: circuit.n_inputs], reference.r,
            NumpyLabelHashBackend(), GateHasher(),
        )
        wires = list(range(circuit.n_inputs))
        bits = [rng.getrandbits(1) for _ in wires]
        assert store.select(wires, bits) == ints_to_bytes(
            reference.input_labels_for(wires, bits)
        )


def _tables_by_position(circuit, tables):
    """Netlist position of each AND gate -> its table (netlist order)."""
    positions = [p for p, op in enumerate(circuit.op) if op == OP_AND]
    return dict(zip(positions, tables))


class TestBatchedGarbling:
    @pytest.mark.parametrize("circuit_name", sorted(STDLIB_CIRCUITS))
    def test_batched_matches_reference_on_stdlib(self, circuit_name):
        _assert_batched_matches_reference(STDLIB_CIRCUITS[circuit_name]())

    def test_random_circuits_match(self, rng):
        for trial in range(3):
            circuit = _random_circuit(rng, n_inputs=10, n_gates=120)
            _assert_batched_matches_reference(circuit, seed=trial)

    @pytest.mark.parametrize("width", [1, 2, 3, 17, 64, 129])
    def test_one_level_of_any_width(self, width):
        """A single AND batch of ``width`` gates: the Garbler's four
        hash quarters and the Evaluator's two halves split at ``m``."""
        circuit = _ragged_circuit([width])
        _assert_batched_matches_reference(circuit)
        batched = garble_circuit_batched(circuit, seed=4)
        assert batched.hasher.calls == 4 * width

    @pytest.mark.parametrize(
        "widths", [[5, 1, 40, 2], [1, 1, 1, 1, 1], [33, 32, 31]]
    )
    def test_ragged_level_widths(self, widths):
        """Per-level schedules carry nothing from one batch to the next."""
        circuit = _ragged_circuit(widths)
        assert [len(batch) for batch, _ in circuit.and_level_schedule()
                if batch] == widths
        _assert_batched_matches_reference(circuit)

    @pytest.mark.slow
    def test_batched_matches_reference_on_aes128(self):
        # The paper's flagship garbling benchmark, against the oracle.
        _assert_batched_matches_reference(build_aes128_circuit())


class TestIntegration:
    @pytest.mark.parametrize("name", [None, "numpy", "auto"])
    def test_streamed_session_matches_reference_path(self, name):
        """Every accepted backend name streams the same transcript, with
        the per-gate oracle's outputs and hash count."""
        circuit = _integer8()
        garbler_bits = [1, 0, 1, 1, 0, 0, 1, 0]
        evaluator_bits = [0, 1, 1, 0, 1, 0, 0, 1]
        want = run_oracle_session(circuit, garbler_bits, evaluator_bits, seed=9)
        default = run_two_party(circuit, garbler_bits, evaluator_bits, seed=9)
        got = run_two_party(
            circuit, garbler_bits, evaluator_bits, seed=9, backend=name
        )
        assert got.output_bits == want.output_bits
        assert got.hash_calls_evaluator == want.hash_calls_evaluator
        assert got.transcript_digest == default.transcript_digest
        assert got.total_bytes == default.total_bytes

    def test_unknown_backend_fails_at_every_entry_point(self, mixed_circuit):
        with pytest.raises(BackendUnavailable):
            TwoPartySession(mixed_circuit, backend="scalar")
        with pytest.raises(BackendUnavailable):
            run_two_party(mixed_circuit, [0] * 8, [0] * 8, backend="cuda")

    def test_batched_entry_points_reject_unknown_backend(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=1)
        labels = [garbler.input_label(w, 0) for w in range(mixed_circuit.n_inputs)]
        with pytest.raises(BackendUnavailable):
            garble_circuit_batched(mixed_circuit, backend="scalar")
        with pytest.raises(BackendUnavailable):
            evaluate_circuit_batched(
                mixed_circuit, garbler.garbled, labels, backend="scalar"
            )

    @pytest.mark.parametrize("opt", list(OptLevel))
    def test_functional_machine_matches_per_gate_garbler(self, opt):
        """The machine's default (block) garbling and a per-gate garbler
        handed in give the same labels."""
        from repro.core.compiler import compile_circuit
        from repro.sim.functional import run_functional

        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        result = compile_circuit(
            _adder8(), config.window, config.n_ges,
            opt=opt, params=config.schedule_params(),
        )
        g2, e2 = result.lowered.adapt_inputs(
            [1, 1, 0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 1, 1, 0, 0]
        )
        streams = result.streams
        want = run_functional(
            streams, g2, e2,
            garbler=garble_circuit(streams.program.netlist, seed=3),
        )
        got = run_functional(streams, g2, e2, seed=3)
        assert got.output_bits == want.output_bits
        assert got.output_labels == want.output_labels
