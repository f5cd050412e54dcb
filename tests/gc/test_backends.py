"""Backend layer: registry, vectorized AES, batched garbling parity.

The contract under test: every backend and both schedulers (per-gate
reference vs. level-batched) produce *bitwise-identical* garbled tables,
wire labels, decode bits and hash accounting, across every stdlib
circuit family.
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
from repro.gc import aes
from repro.gc.backends import (
    BACKEND_ENV_VAR,
    BackendUnavailable,
    available_backends,
    get_backend,
    registered_backends,
    resolve_backend,
)
from repro.gc.evaluate import (
    BlockEvaluatorStore,
    evaluate_circuit,
    evaluate_circuit_batched,
)
from repro.gc.garble import (
    BlockGarblerStore,
    IntGarblerStore,
    garble_circuit,
    garble_circuit_batched,
)
from repro.gc.hashing import GateHasher, fixed_key_hash, rekeyed_hash
from repro.gc.labels import ints_to_bytes
from repro.gc.protocol import StreamedDriver, TwoPartySession, run_two_party
from repro.sim.config import HaacConfig


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
    from repro.circuits.netlist import Circuit, Gate, GateOp

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
    return Circuit.from_gates(half, n_inputs - half, gates, outputs, "random")


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


def _assert_batched_matches_reference(circuit, backend, rekeyed=True, seed=11):
    reference = garble_circuit(circuit, seed=seed, rekeyed=rekeyed)
    batched = garble_circuit_batched(
        circuit, seed=seed, rekeyed=rekeyed, backend=backend
    )
    assert batched.r == reference.r
    assert batched.zero_labels == reference.zero_labels
    assert batched.garbled.tables == reference.garbled.tables
    assert batched.garbled.decode_bits == reference.garbled.decode_bits
    assert batched.hasher.calls == reference.hasher.calls
    assert batched.hasher.key_expansions == reference.hasher.key_expansions

    rng = random.Random(seed)
    garbler_bits = [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)]
    evaluator_bits = [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)]
    inputs = [
        reference.input_label(wire, bit)
        for wire, bit in enumerate(garbler_bits + evaluator_bits)
    ]
    want = evaluate_circuit(circuit, reference.garbled, inputs, rekeyed=rekeyed)
    got = evaluate_circuit_batched(
        circuit, batched.garbled, inputs, rekeyed=rekeyed, backend=backend
    )
    assert got.output_labels == want.output_labels
    assert got.output_bits == want.output_bits
    assert got.output_bits == circuit.eval_plain(garbler_bits, evaluator_bits)
    assert got.hash_calls == want.hash_calls
    assert got.key_expansions == want.key_expansions


class TestRegistry:
    def test_scalar_always_registered_and_available(self):
        assert "scalar" in registered_backends()
        assert "scalar" in available_backends()
        assert get_backend("scalar").name == "scalar"

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendUnavailable, match="unknown"):
            get_backend("cuda")

    @pytest.mark.parametrize(
        "choice, env",
        [("parallel", None), ("parallel:4", None), ("numpy:2", None),
         (None, "parallel:4")],
    )
    def test_removed_names_rejected(self, monkeypatch, choice, env):
        if env is None:
            monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(BACKEND_ENV_VAR, env)
        with pytest.raises(BackendUnavailable) as info:
            resolve_backend(choice)
        assert "registered: ['numpy', 'scalar']" in str(info.value)

    @pytest.mark.parametrize("spec", ["scalar:4", "auto:2"])
    def test_names_take_no_options(self, monkeypatch, spec):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(BackendUnavailable, match="unknown gc backend"):
            resolve_backend(spec)

    def test_resolve_accepts_instances(self):
        backend = get_backend("scalar")
        assert resolve_backend(backend) is backend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
        assert resolve_backend(None).name == "scalar"

    def test_env_var_overrides_explicit_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scalar")
        assert resolve_backend("auto").name == "scalar"

    @pytest.mark.parametrize("name", registered_backends())
    def test_env_var_selects_each_registered_backend(self, monkeypatch, name):
        monkeypatch.setenv(BACKEND_ENV_VAR, name)
        assert resolve_backend(None).name == name
        assert resolve_backend("auto").name == name
        # An explicit name still wins over the environment.
        other = next(n for n in registered_backends() if n != name)
        assert resolve_backend(other).name == other

    def test_auto_resolution_returns_something(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name in available_backends()


class TestHashParity:
    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_backends_match_scalar_hash(self, rekeyed):
        rng = random.Random(0xBEEF)
        labels = [rng.getrandbits(128) for _ in range(257)]
        tweaks = [rng.getrandbits(64) for _ in range(257)]
        scalar_fn = rekeyed_hash if rekeyed else fixed_key_hash
        want = [scalar_fn(label, tweak) for label, tweak in zip(labels, tweaks)]
        for name in available_backends():
            got = get_backend(name).hash_labels(labels, tweaks, rekeyed)
            assert got == want, f"backend {name} diverges from scalar hash"

    def test_empty_batch(self):
        for name in available_backends():
            assert get_backend(name).hash_labels([], [], True) == []

    def test_mismatched_lengths_raise(self):
        for name in available_backends():
            with pytest.raises(ValueError):
                get_backend(name).hash_labels([1, 2], [0], True)


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

    Names the ``numpy`` backend outright, so the class also runs in the
    ``REPRO_GC_BACKEND=scalar`` lane; any RuntimeWarning (a rotate or an
    rcon shift overflowing silently) is a failure.
    """

    @pytest.fixture(scope="class")
    def backend(self):
        return get_backend("numpy")

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
        # One (44,) schedule broadcasts over the batch (fixed-key mode).
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

    @pytest.mark.parametrize("m", [1, 37])
    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_runs_hash_under_batch_keys(self, adder_circuit, rng, m, runs, rekeyed):
        backend = get_backend("numpy")
        hasher = GateHasher(rekeyed=rekeyed)
        store = BlockEvaluatorStore(
            adder_circuit,
            ints_to_bytes([0] * adder_circuit.n_inputs),
            rekeyed, backend, hasher,
        )
        positions = np.asarray(rng.sample(range(10_000), m), dtype=np.int64)
        values, blocks = _random_blocks(backend, rng, 2 * m * runs)
        got = backend.blocks_to_ints(store._hash(positions, blocks, runs))
        tweaks = [2 * int(p) for p in positions] + [2 * int(p) + 1 for p in positions]
        scalar_fn = rekeyed_hash if rekeyed else fixed_key_hash
        assert got == [
            scalar_fn(value, tweak)
            for value, tweak in zip(values, tweaks * runs)
        ]
        assert hasher.calls == 2 * m * runs

    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_garbler_levels_match_int_store(self, rng, rekeyed):
        """Level by level, the block Garbler emits the oracle store's
        tables and leaves its labels."""
        circuit = _ragged_circuit([5, 1, 40, 2])
        labels = [rng.getrandbits(128) for _ in range(circuit.n_inputs)]
        r = rng.getrandbits(128) | 1
        stores = [
            make(circuit, labels, r, rekeyed, get_backend(name),
                 GateHasher(rekeyed=rekeyed))
            for make, name in ((IntGarblerStore, "scalar"),
                               (BlockGarblerStore, "numpy"))
        ]
        for index in range(len(circuit.and_level_schedule())):
            want, got = (store.garble_level(index) for store in stores)
            assert got == want, f"level {index} diverges"
        assert stores[1].labels() == stores[0].labels()
        assert stores[1].hasher.calls == stores[0].hasher.calls == 4 * 48


class TestBatchedGarbling:
    @pytest.mark.parametrize("circuit_name", sorted(STDLIB_CIRCUITS))
    def test_batched_matches_reference_on_stdlib(self, circuit_name):
        circuit = STDLIB_CIRCUITS[circuit_name]()
        for backend in available_backends():
            _assert_batched_matches_reference(circuit, backend)

    def test_fixed_key_mode_matches(self):
        circuit = _integer8()
        for backend in available_backends():
            _assert_batched_matches_reference(circuit, backend, rekeyed=False)

    def test_random_circuits_match(self, rng):
        for trial in range(3):
            circuit = _random_circuit(rng, n_inputs=10, n_gates=120)
            for backend in available_backends():
                _assert_batched_matches_reference(circuit, backend, seed=trial)

    @pytest.mark.parametrize("width", [1, 2, 3, 17, 64, 129])
    @pytest.mark.parametrize("rekeyed", [True, False])
    def test_one_level_of_any_width(self, width, rekeyed):
        """A single AND batch of ``width`` gates: the Garbler's four
        hash quarters and the Evaluator's two halves split at ``m``."""
        circuit = _ragged_circuit([width])
        for backend in available_backends():
            _assert_batched_matches_reference(circuit, backend, rekeyed=rekeyed)
            batched = garble_circuit_batched(circuit, seed=4, rekeyed=rekeyed,
                                             backend=backend)
            assert batched.hasher.calls == 4 * width

    @pytest.mark.parametrize(
        "widths", [[5, 1, 40, 2], [1, 1, 1, 1, 1], [33, 32, 31]]
    )
    def test_ragged_level_widths(self, widths):
        """Per-level schedules carry nothing from one batch to the next."""
        circuit = _ragged_circuit(widths)
        assert [len(batch) for batch, _ in circuit.and_level_schedule()
                if batch] == widths
        for backend in available_backends():
            _assert_batched_matches_reference(circuit, backend)

    @pytest.mark.slow
    def test_batched_matches_reference_on_aes128(self):
        circuit = build_aes128_circuit()
        backends = available_backends()
        # Cross-check the fastest available backend against the scalar
        # reference on the paper's flagship garbling benchmark.
        backend = "numpy" if "numpy" in backends else "scalar"
        _assert_batched_matches_reference(circuit, backend)


class TestIntegration:
    def test_two_party_session_matches_reference_path(self):
        circuit = _integer8()
        garbler_bits = [1, 0, 1, 1, 0, 0, 1, 0]
        evaluator_bits = [0, 1, 1, 0, 1, 0, 0, 1]
        want = run_two_party(circuit, garbler_bits, evaluator_bits, seed=9)
        for backend in available_backends() + ["auto"]:
            got = run_two_party(
                circuit, garbler_bits, evaluator_bits, seed=9, backend=backend
            )
            assert got.output_bits == want.output_bits
            assert got.traffic == want.traffic
            assert got.total_bytes == want.total_bytes
            assert got.hash_calls_evaluator == want.hash_calls_evaluator

    @pytest.mark.parametrize("name", ["scalar", "numpy", "auto"])
    def test_streamed_session_reads_config_backend(self, mixed_circuit, name):
        """``HaacConfig.gc_backend`` reaches the streamed session, and
        every backend yields the reference transcript byte for byte."""
        garbler_bits = [1, 0, 1, 1, 0, 0, 1, 0]
        evaluator_bits = [0, 1, 1, 0, 1, 0, 0, 1]
        want = run_two_party(
            mixed_circuit, garbler_bits, evaluator_bits, seed=13, streamed=True
        )
        session = TwoPartySession(
            mixed_circuit, seed=13, config=HaacConfig().with_gc_backend(name)
        )
        assert session.backend == name
        got = session.run_streamed(garbler_bits, evaluator_bits)
        assert got.output_bits == want.output_bits
        assert got.transcript_digest == want.transcript_digest
        assert got.hash_calls_evaluator == want.hash_calls_evaluator

    @staticmethod
    def _adder_streams():
        from repro.core.compiler import OptLevel, compile_circuit

        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        result = compile_circuit(
            _adder8(), config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        bits_g = [1, 1, 0, 0, 1, 0, 1, 0]
        bits_e = [0, 1, 0, 1, 1, 1, 0, 0]
        g2, e2 = result.lowered.adapt_inputs(bits_g, bits_e)
        return config, result.streams, g2, e2

    @pytest.mark.parametrize("name", ["scalar", "numpy", "auto"])
    def test_functional_machine_reads_config_backend(self, name):
        from repro.sim.functional import run_functional

        config, streams, g2, e2 = self._adder_streams()
        want = run_functional(streams, g2, e2, seed=6)
        got = run_functional(
            streams, g2, e2, seed=6, config=config.with_gc_backend(name)
        )
        assert got.output_bits == want.output_bits
        assert got.output_labels == want.output_labels

    def test_functional_machine_accepts_gc_backend(self):
        from repro.sim.functional import run_functional

        config, streams, g2, e2 = self._adder_streams()
        want = run_functional(streams, g2, e2, seed=3)
        for backend in available_backends() + ["auto"]:
            got = run_functional(streams, g2, e2, seed=3, gc_backend=backend)
            assert got.output_bits == want.output_bits
            assert got.output_labels == want.output_labels
        # HaacConfig.gc_backend is honoured when the config is passed.
        via_config = run_functional(
            streams, g2, e2, seed=3,
            config=config.with_gc_backend("auto"),
        )
        assert via_config.output_labels == want.output_labels
