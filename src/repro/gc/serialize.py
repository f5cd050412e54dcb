"""Serialization of garbled circuits and HAAC programs.

GCs have an offline phase: the function is known before the inputs, so
the Garbler can generate tables ahead of time (paper section 2.1) and
the compiler can produce streams once per program.  This module gives
both artifacts stable byte formats so they can be stored or shipped:

* :func:`garbled_to_bytes` / :func:`garbled_from_bytes` -- the
  Evaluator-side bundle (table stream + decode bits), exactly the data
  HAAC's table queues consume;
* :func:`program_to_bytes` / :func:`program_from_bytes` -- a compiled
  HAAC program in its dense ISA encoding plus the minimal header the
  hardware controllers need (input count, output addresses).

Formats are versioned little-endian with explicit lengths; round trips
are exact (tested); corrupted magic, a short header or body and trailing
bytes all raise :class:`SerializationError`.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..core.isa import (
    Instruction,
    InstructionEncoding,
    decode_program_bytes,
    encode_fields,
    pack_words,
)
from ..core.program import HaacProgram
from .garble import GarbledCircuit
from .halfgate import tables_from_bytes, tables_to_bytes
from .labels import pack_bits, unpack_bits

__all__ = [
    "garbled_to_bytes",
    "garbled_from_bytes",
    "program_to_bytes",
    "program_from_bytes",
    "SerializationError",
]

_GARBLED_MAGIC = b"HAACGC01"
_PROGRAM_MAGIC = b"HAACPR01"
_TABLE_BYTES = 32


class SerializationError(ValueError):
    """Corrupt or incompatible serialized artifact."""


def _unpack_from(fmt: str, data: bytes, offset: int, what: str) -> tuple:
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error as error:
        raise SerializationError(f"truncated {what}: {error}") from error


def garbled_to_bytes(garbled: GarbledCircuit) -> bytes:
    """Serialize the Evaluator's bundle (tables + decode bits)."""
    return b"".join(
        (
            _GARBLED_MAGIC,
            struct.pack("<II", len(garbled.tables), len(garbled.decode_bits)),
            tables_to_bytes(garbled.tables),
            pack_bits(garbled.decode_bits),
        )
    )


def garbled_from_bytes(data: bytes) -> GarbledCircuit:
    """Inverse of :func:`garbled_to_bytes`."""
    if data[: len(_GARBLED_MAGIC)] != _GARBLED_MAGIC:
        raise SerializationError("bad magic for garbled-circuit bundle")
    offset = len(_GARBLED_MAGIC)
    n_tables, n_decode = _unpack_from("<II", data, offset, "bundle header")
    offset += 8
    decode_at = offset + _TABLE_BYTES * n_tables
    if len(data) != decode_at + (n_decode + 7) // 8:
        raise SerializationError(
            f"garbled-circuit bundle of {n_tables} tables and {n_decode} "
            f"decode bits must be {decode_at + (n_decode + 7) // 8} bytes, "
            f"got {len(data)}"
        )
    return GarbledCircuit(
        tables=tables_from_bytes(data[offset:decode_at]),
        decode_bits=unpack_bits(data[decode_at:], n_decode),
        n_and_gates=n_tables,
    )


def program_to_bytes(
    program: HaacProgram, encoding: InstructionEncoding
) -> bytes:
    """Serialize a compiled program in dense ISA form.

    Note: operand addresses are stored as the program's logical wire
    ids (pre stream-generation), so the artifact is GE-count agnostic;
    regenerate streams after loading.
    """
    program.validate()
    header = [_PROGRAM_MAGIC]
    header.append(
        struct.pack(
            "<IIHI",
            len(program.op),
            program.n_inputs,
            encoding.addr_bits,
            len(program.outputs),
        )
    )
    header.append(struct.pack(f"<{len(program.outputs)}I", *program.outputs))
    body = pack_words(
        (
            encode_fields(op, wa, wb, live, encoding)
            for op, wa, wb, live in zip(
                program.op, program.wa, program.wb, program.live
            )
        ),
        encoding.bits,
    )
    name_bytes = program.name.encode("utf-8")[:255]
    return (
        b"".join(header)
        + struct.pack("<B", len(name_bytes))
        + name_bytes
        + body
    )


def program_from_bytes(data: bytes) -> Tuple[List[Instruction], int, List[int], str]:
    """Inverse of :func:`program_to_bytes`.

    Returns ``(instructions, n_inputs, outputs, name)``; reconstructing
    a full :class:`HaacProgram` additionally needs the netlist (which is
    circuit-side state, not a hardware artifact).
    """
    if data[: len(_PROGRAM_MAGIC)] != _PROGRAM_MAGIC:
        raise SerializationError("bad magic for HAAC program")
    offset = len(_PROGRAM_MAGIC)
    n_instr, n_inputs, addr_bits, n_outputs = _unpack_from(
        "<IIHI", data, offset, "program header"
    )
    offset += struct.calcsize("<IIHI")
    outputs = list(_unpack_from(f"<{n_outputs}I", data, offset, "output list"))
    offset += 4 * n_outputs
    (name_length,) = _unpack_from("<B", data, offset, "program name")
    offset += 1
    encoding = InstructionEncoding(addr_bits=addr_bits)
    body_at = offset + name_length
    expected = body_at + (n_instr * encoding.bits + 7) // 8
    if len(data) != expected:
        raise SerializationError(
            f"program of {n_instr} instructions and a {name_length}-byte "
            f"name must be {expected} bytes, got {len(data)}"
        )
    try:
        name = data[offset:body_at].decode("utf-8")
        instructions = decode_program_bytes(data[body_at:], n_instr, encoding)
    except ValueError as error:
        raise SerializationError(str(error)) from error
    return instructions, n_inputs, outputs, name
