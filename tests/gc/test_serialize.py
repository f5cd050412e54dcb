"""Garbled-circuit and program serialization round trips."""

import pytest

from repro.core.assembler import assemble
from repro.core.isa import InstructionEncoding
from repro.gc.evaluate import evaluate_circuit
from repro.gc.garble import garble_circuit
from repro.gc.serialize import (
    SerializationError,
    garbled_from_bytes,
    garbled_to_bytes,
    program_from_bytes,
    program_to_bytes,
)


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

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            garbled_from_bytes(b"NOTMAGIC" + b"\x00" * 16)

    def test_truncated(self, mixed_circuit):
        garbler = garble_circuit(mixed_circuit, seed=5)
        data = garbled_to_bytes(garbler.garbled)
        with pytest.raises(SerializationError):
            garbled_from_bytes(data[: len(data) // 2])


class TestProgramRoundTrip:
    def test_instructions_preserved(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        encoding = InstructionEncoding(addr_bits=20)
        data = program_to_bytes(program, encoding)
        instructions, n_inputs, outputs, name = program_from_bytes(data)
        assert n_inputs == program.n_inputs
        assert outputs == program.outputs
        assert name == program.name
        assert len(instructions) == len(program.instructions)
        for original, restored in zip(program.instructions, instructions):
            assert restored.op is original.op
            assert restored.wa == original.wa
            assert restored.wb == original.wb
            assert restored.live == original.live

    def test_density(self, mixed_circuit):
        """Dense packing: well under 8 bytes per instruction."""
        program, _ = assemble(mixed_circuit)
        encoding = InstructionEncoding(addr_bits=17)
        data = program_to_bytes(program, encoding)
        assert len(data) < 6 * len(program.instructions)

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            program_from_bytes(b"WRONG!!!" + b"\x00" * 32)

    def test_truncated_body(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        encoding = InstructionEncoding(addr_bits=20)
        data = program_to_bytes(program, encoding)
        with pytest.raises(SerializationError):
            program_from_bytes(data[: len(data) - 40])


class TestTrustBoundary:
    """Every short header, short body and trailing byte is a
    ``SerializationError`` -- never a bare ``struct.error``, never a
    silent parse."""

    def test_garbled_header_cut(self):
        for blob in (b"HAACGC01", b"HAACGC01\x01\x00"):
            with pytest.raises(SerializationError):
                garbled_from_bytes(blob)

    def test_garbled_trailing_bytes(self, mixed_circuit):
        blob = garbled_to_bytes(garble_circuit(mixed_circuit, seed=5).garbled)
        with pytest.raises(SerializationError):
            garbled_from_bytes(blob + b"junk")

    def test_program_header_cut(self):
        with pytest.raises(SerializationError):
            program_from_bytes(b"HAACPR01")

    def test_program_cut_inside_name_length(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        blob = program_to_bytes(program, InstructionEncoding(addr_bits=20))
        name_length_at = 8 + 14 + 4 * len(program.outputs)
        with pytest.raises(SerializationError):
            program_from_bytes(blob[:name_length_at])

    def test_program_body_cut_or_extended(self, mixed_circuit):
        program, _ = assemble(mixed_circuit)
        blob = program_to_bytes(program, InstructionEncoding(addr_bits=20))
        for bad in (blob[:-1], blob + b"\x00", blob[: len(blob) // 2]):
            with pytest.raises(SerializationError):
                program_from_bytes(bad)
