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
are exact (tested) and reject corrupted magic/version bytes.
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
from .halfgate import GarbledTable

__all__ = [
    "garbled_to_bytes",
    "garbled_from_bytes",
    "program_to_bytes",
    "program_from_bytes",
    "SerializationError",
]

_GARBLED_MAGIC = b"HAACGC01"
_PROGRAM_MAGIC = b"HAACPR01"


class SerializationError(ValueError):
    """Corrupt or incompatible serialized artifact."""


def garbled_to_bytes(garbled: GarbledCircuit) -> bytes:
    """Serialize the Evaluator's bundle (tables + decode bits)."""
    parts = [_GARBLED_MAGIC]
    parts.append(struct.pack("<II", len(garbled.tables), len(garbled.decode_bits)))
    for table in garbled.tables:
        parts.append(table.to_bytes())
    packed_bits = bytearray((len(garbled.decode_bits) + 7) // 8)
    for index, bit in enumerate(garbled.decode_bits):
        if bit:
            packed_bits[index // 8] |= 1 << (index % 8)
    parts.append(bytes(packed_bits))
    return b"".join(parts)


def garbled_from_bytes(data: bytes) -> GarbledCircuit:
    """Inverse of :func:`garbled_to_bytes`."""
    if data[: len(_GARBLED_MAGIC)] != _GARBLED_MAGIC:
        raise SerializationError("bad magic for garbled-circuit bundle")
    offset = len(_GARBLED_MAGIC)
    n_tables, n_decode = struct.unpack_from("<II", data, offset)
    offset += 8
    tables: List[GarbledTable] = []
    for _ in range(n_tables):
        if offset + 32 > len(data):
            raise SerializationError("truncated table stream")
        tables.append(GarbledTable.from_bytes(data[offset : offset + 32]))
        offset += 32
    n_bytes = (n_decode + 7) // 8
    if offset + n_bytes > len(data):
        raise SerializationError("truncated decode bits")
    decode_bits = [
        (data[offset + index // 8] >> (index % 8)) & 1 for index in range(n_decode)
    ]
    return GarbledCircuit(
        tables=tables, decode_bits=decode_bits, n_and_gates=n_tables
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
    n_instr, n_inputs, addr_bits, n_outputs = struct.unpack_from("<IIHI", data, offset)
    offset += struct.calcsize("<IIHI")
    outputs = list(struct.unpack_from(f"<{n_outputs}I", data, offset))
    offset += 4 * n_outputs
    (name_length,) = struct.unpack_from("<B", data, offset)
    offset += 1
    name = data[offset : offset + name_length].decode("utf-8")
    offset += name_length
    encoding = InstructionEncoding(addr_bits=addr_bits)
    try:
        instructions = decode_program_bytes(data[offset:], n_instr, encoding)
    except ValueError as error:
        raise SerializationError(str(error)) from error
    return instructions, n_inputs, outputs, name
