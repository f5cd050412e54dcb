"""The HAAC instruction set (paper section 3.1.3).

Three operations -- AND, XOR, NOP -- with two input wire addresses and a
*live* bit.  Output wire addresses are **implicit**: the compiler's
renaming pass guarantees outputs are generated in sequential address
order, so the hardware computes ``out = base + program_position`` from
its program counter, saving encoding space.

Wire address 0 is reserved: it tells the GE to pop the head of its
out-of-range-wire (OoRW) queue instead of reading the SWW.  If both
operands are out of range, the first operand is popped first.

:func:`encode_fields` packs one instruction as 2 (op) + two address
fields + 1 (live) bits; its one caller is
:meth:`~repro.core.passes.streams.GeStreams.encode_machine_words`.  The
paper's packing for a 2 MB SWW (131072 wires) is 2 + 17 + 17 + 1 = 37
bits.  The stream words address the SWW sentinel-safely (``slot + 1``,
0 = OoR), which needs ``capacity + 1`` codes and so 18-bit addresses:
39 bits.  Both round to the 5 B per instruction that the simulator's
traffic model charges (``repro.sim.config.INSTR_BYTES``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "HaacOp",
    "Instruction",
    "OOR_SENTINEL",
    "InstructionEncoding",
    "encode_fields",
]

# Wire address 0 means "read the OoRW queue" (paper section 3.1.4).
OOR_SENTINEL = 0


class HaacOp(enum.IntEnum):
    """HAAC's three instruction types (2-bit opcode field)."""

    NOP = 0
    XOR = 1
    AND = 2


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
