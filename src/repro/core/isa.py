"""The HAAC instruction set (paper section 3.1.3).

Three operations -- AND, XOR, NOP -- with two input wire addresses and a
*live* bit.  Output wire addresses are **implicit**: the compiler's
renaming pass guarantees outputs are generated in sequential address
order, so the hardware computes ``out = base + program_position`` from
its program counter, saving encoding space.

Wire address 0 is reserved: it tells the GE to pop the head of its
out-of-range-wire (OoRW) queue instead of reading the SWW.  If both
operands are out of range, the first operand is popped first.

The paper's packing for a 2 MB SWW is 2 (op) + 17 + 17 (addresses) + 1
(live) = 37 bits; :func:`encode_instruction` implements that exact
packing for any SWW capacity, and :class:`InstructionEncoding` reports
densities for both the paper's packing and the byte-aligned 8 B form the
simulator's default traffic model charges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List

__all__ = [
    "HaacOp",
    "Instruction",
    "OOR_SENTINEL",
    "InstructionEncoding",
    "encode_fields",
    "encode_instruction",
    "decode_instruction",
    "pack_words",
    "encode_program_bytes",
    "decode_program_bytes",
]

# Wire address 0 means "read the OoRW queue" (paper section 3.1.4).
OOR_SENTINEL = 0


class HaacOp(enum.IntEnum):
    """HAAC's three instruction types (2-bit opcode field)."""

    NOP = 0
    XOR = 1
    AND = 2

    @property
    def is_gate(self) -> bool:
        return self is not HaacOp.NOP


@dataclass(frozen=True)
class Instruction:
    """One HAAC instruction.

    ``wa``/``wb`` are *physical* wire addresses (post-renaming); 0 is the
    OoR sentinel.  ``live`` marks the output for write-back to DRAM.
    ``source_gate`` tracks the producing netlist gate for validation and
    is not part of the hardware encoding.
    """

    op: HaacOp
    wa: int
    wb: int
    live: bool = True
    source_gate: int = -1

    def __post_init__(self) -> None:
        if self.op is not HaacOp.NOP and (self.wa < 0 or self.wb < 0):
            raise ValueError("gate instructions need non-negative wire addresses")

    @property
    def oor_operands(self) -> int:
        """Number of operands served by the OoRW queue."""
        if self.op is HaacOp.NOP:
            return 0
        return (self.wa == OOR_SENTINEL) + (self.wb == OOR_SENTINEL)


@dataclass(frozen=True)
class InstructionEncoding:
    """Field widths for binary instruction encoding.

    ``addr_bits`` must cover the SWW wire capacity (17 bits for a 2 MB
    SWW of 131072 16-byte wires, as in the paper).
    """

    addr_bits: int

    @property
    def bits(self) -> int:
        return 2 + 2 * self.addr_bits + 1

    @property
    def bytes_packed(self) -> int:
        """Byte cost at the paper's dense packing (rounded up per instr)."""
        return (self.bits + 7) // 8

    bytes_aligned: int = 8  # the simulator's default conservative charge

    @staticmethod
    def for_sww_wires(capacity_wires: int) -> "InstructionEncoding":
        if capacity_wires < 2:
            raise ValueError("SWW must hold at least two wires")
        return InstructionEncoding(addr_bits=max(1, (capacity_wires - 1).bit_length()))


def encode_fields(
    op: int, wa: int, wb: int, live: int, encoding: InstructionEncoding
) -> int:
    """Pack one instruction's fields into ``encoding.bits`` bits.

    Layout (msb to lsb): op (2) | wa | wb | live (1).
    """
    addr_bits = encoding.addr_bits
    if wa >> addr_bits or wb >> addr_bits:
        raise ValueError(f"wire address exceeds {addr_bits}-bit field")
    return (((op << addr_bits | wa) << addr_bits | wb) << 1) | live


def encode_instruction(instr: Instruction, encoding: InstructionEncoding) -> int:
    """:func:`encode_fields` of one :class:`Instruction`."""
    return encode_fields(
        int(instr.op), instr.wa, instr.wb, int(instr.live), encoding
    )


def decode_instruction(word: int, encoding: InstructionEncoding) -> Instruction:
    """Inverse of :func:`encode_instruction` (``source_gate`` is lost)."""
    live = bool(word & 1)
    word >>= 1
    mask = (1 << encoding.addr_bits) - 1
    wb = word & mask
    word >>= encoding.addr_bits
    wa = word & mask
    word >>= encoding.addr_bits
    op = HaacOp(word & 0b11)
    return Instruction(op=op, wa=wa, wb=wb, live=live)


def pack_words(words: Iterable[int], word_bits: int) -> bytes:
    """Densely bit-pack ``word_bits``-wide words, padding the tail to a
    byte boundary."""
    bits = 0
    acc = 0
    for word in words:
        acc = (acc << word_bits) | word
        bits += word_bits
    pad = (-bits) % 8
    acc <<= pad
    bits += pad
    return acc.to_bytes(bits // 8, "big") if bits else b""


def encode_program_bytes(
    instructions: List[Instruction], encoding: InstructionEncoding
) -> bytes:
    """Densely bit-pack a program (see :func:`pack_words`)."""
    return pack_words(
        (encode_instruction(instr, encoding) for instr in instructions),
        encoding.bits,
    )


def decode_program_bytes(
    data: bytes, count: int, encoding: InstructionEncoding
) -> List[Instruction]:
    """Unpack ``count`` instructions from a dense byte string."""
    total_bits = len(data) * 8
    need = count * encoding.bits
    if need > total_bits:
        raise ValueError("byte string too short for requested instruction count")
    acc = int.from_bytes(data, "big") >> (total_bits - need)
    out: List[Instruction] = []
    mask = (1 << encoding.bits) - 1
    for position in range(count):
        shift = (count - 1 - position) * encoding.bits
        out.append(decode_instruction((acc >> shift) & mask, encoding))
    return out
