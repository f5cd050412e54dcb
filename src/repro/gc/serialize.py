"""Serialization of garbled circuits.

GCs have an offline phase: the function is known before the inputs, so
the Garbler can generate tables ahead of time (paper section 2.1).
:func:`garbled_to_bytes` / :func:`garbled_from_bytes` give the
Evaluator-side bundle (table stream + decode bits), exactly the data
HAAC's table queues consume, a stable byte format so it can be stored
or shipped.

The format is versioned little-endian with explicit lengths; round trips
are exact (tested); corrupted magic, a short header or body and trailing
bytes all raise :class:`SerializationError`.
"""

from __future__ import annotations

import struct

from .garble import GarbledCircuit
from .halfgate import tables_from_bytes, tables_to_bytes
from .labels import pack_bits, unpack_bits

__all__ = [
    "garbled_to_bytes",
    "garbled_from_bytes",
    "SerializationError",
]

_GARBLED_MAGIC = b"HAACGC01"
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

