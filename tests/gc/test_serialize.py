"""Garbled-circuit serialization round trips."""

import random
import struct

import pytest

from repro.gc.garble import GarbledCircuit
from repro.gc.halfgate import GarbledTable
from repro.gc.serialize import (
    SerializationError,
    garbled_from_bytes,
    garbled_to_bytes,
)
from tests.gc.oracles import evaluate_circuit, garble_circuit


class TestGarbledRoundTrip:
    def test_tables_and_decode_preserved(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=5)
        data = garbled_to_bytes(garbler.garbled)
        restored = garbled_from_bytes(data)
        assert restored.tables == garbler.garbled.tables
        assert restored.decode_bits == garbler.garbled.decode_bits
        assert restored.n_and_gates == garbler.garbled.n_and_gates

    def test_restored_bundle_evaluates(self, mixed_circuit, rng):
        garbler = garble_circuit(mixed_circuit, seed=5)
        restored = garbled_from_bytes(garbled_to_bytes(garbler.garbled))
        g = [rng.randint(0, 1) for _ in range(mixed_circuit.n_garbler_inputs)]
        e = [rng.randint(0, 1) for _ in range(mixed_circuit.n_evaluator_inputs)]
        labels = [garbler.input_label(w, bit) for w, bit in enumerate(g + e)]
        result = evaluate_circuit(mixed_circuit, restored, labels)
        assert result.output_bits == mixed_circuit.eval_plain(g, e)

    def test_size_is_tables_plus_header(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=5)
        data = garbled_to_bytes(garbler.garbled)
        expected_tables = 32 * garbler.garbled.n_and_gates
        assert len(data) >= expected_tables
        assert len(data) <= expected_tables + 64  # header + packed bits

    def test_size_is_exact(self, mixed_circuit):
        """Magic (8) + two u32 counts (8) + 32 B per table + the decode
        bits packed eight to a byte."""
        garbled = garble_circuit(mixed_circuit, seed=5).garbled
        data = garbled_to_bytes(garbled)
        n_decode = len(garbled.decode_bits)
        assert len(data) == 16 + 32 * len(garbled.tables) + (n_decode + 7) // 8

    @pytest.mark.parametrize("n_decode", [0, 1, 7, 8, 9, 16, 17])
    def test_decode_bit_padding_round_trips(self, n_decode):
        rng = random.Random(n_decode)
        garbled = _synthetic_bundle(rng, n_tables=3, n_decode=n_decode)
        restored = garbled_from_bytes(garbled_to_bytes(garbled))
        assert restored.decode_bits == garbled.decode_bits
        assert restored.tables == garbled.tables

    def test_empty_bundle(self):
        empty = GarbledCircuit(tables=[], decode_bits=[], n_and_gates=0)
        data = garbled_to_bytes(empty)
        assert len(data) == 16
        restored = garbled_from_bytes(data)
        assert restored.tables == [] and restored.decode_bits == []
        assert restored.n_and_gates == 0

    def test_extreme_table_rows(self):
        """Each 128-bit row keeps its place (``T_G || T_E``) and its
        all-zero / all-one extremes."""
        ones = (1 << 128) - 1
        tables = [
            GarbledTable(0, ones), GarbledTable(ones, 0), GarbledTable(1, 1 << 127),
        ]
        garbled = GarbledCircuit(tables=tables, decode_bits=[1, 0], n_and_gates=3)
        assert garbled_from_bytes(garbled_to_bytes(garbled)).tables == tables

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            garbled_from_bytes(b"NOTMAGIC" + b"\x00" * 16)

    def test_truncated(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=5)
        data = garbled_to_bytes(garbler.garbled)
        with pytest.raises(SerializationError):
            garbled_from_bytes(data[: len(data) // 2])


class TestTrustBoundary:
    """Every short header, short body and trailing byte is a
    ``SerializationError`` -- never a bare ``struct.error``, never a
    silent parse."""

    def test_garbled_header_cut(self):
        for blob in (b"HAACGC01", b"HAACGC01\x01\x00"):
            with pytest.raises(SerializationError):
                garbled_from_bytes(blob)

    def test_every_proper_prefix_rejected(self):
        blob = garbled_to_bytes(
            _synthetic_bundle(random.Random(0), n_tables=2, n_decode=9)
        )
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                garbled_from_bytes(blob[:cut])

    @pytest.mark.parametrize("delta", [-33, -32, -1, 1, 32])
    def test_garbled_body_cut_or_extended(self, mixed_circuit, delta):
        blob = garbled_to_bytes(garble_circuit(mixed_circuit, seed=5).garbled)
        blob = blob[:delta] if delta < 0 else blob + bytes(delta)
        with pytest.raises(SerializationError):
            garbled_from_bytes(blob)

    @pytest.mark.parametrize("extra_tables, extra_decode", [(1, 0), (0, 8), (-1, 0)])
    def test_header_counts_disagree_with_body(self, extra_tables, extra_decode):
        blob = garbled_to_bytes(
            _synthetic_bundle(random.Random(1), n_tables=2, n_decode=9)
        )
        header = struct.pack("<II", 2 + extra_tables, 9 + extra_decode)
        with pytest.raises(SerializationError):
            garbled_from_bytes(blob[:8] + header + blob[16:])

    def test_garbled_trailing_bytes(self, mixed_circuit):
        blob = garbled_to_bytes(garble_circuit(mixed_circuit, seed=5).garbled)
        with pytest.raises(SerializationError):
            garbled_from_bytes(blob + b"junk")


def _synthetic_bundle(rng, n_tables, n_decode):
    tables = [
        GarbledTable(rng.getrandbits(128), rng.getrandbits(128))
        for _ in range(n_tables)
    ]
    decode_bits = [rng.randint(0, 1) for _ in range(n_decode)]
    return GarbledCircuit(tables=tables, decode_bits=decode_bits, n_and_gates=n_tables)
