"""The HAAC instruction set (paper section 3.1.3).

Three operations -- AND, XOR, NOP -- with two input wire addresses and a
*live* bit.  Output wire addresses are **implicit**: the compiler's
renaming pass guarantees outputs are generated in sequential address
order, so the hardware computes ``out = base + program_position`` from
its program counter, saving encoding space.

Wire address 0 is reserved: it tells the GE to pop the head of its
out-of-range-wire (OoRW) queue instead of reading the SWW.  If both
operands are out of range, the first operand is popped first.

An instruction packs as 2 (op) + two address fields + 1 (live) bits:
2 + 17 + 17 + 1 = 37 bits for the paper's 2 MB SWW (131072 wires), and
39 bits with the sentinel-safe addressing (``slot + 1``, 0 = OoR) that
needs ``capacity + 1`` codes.  Both round to the 5 B per instruction
that the simulator's traffic model charges
(``repro.sim.config.INSTR_BYTES``); nothing in the package emits the
bits themselves, so the encoder and its decoding oracle are the test
helpers of ``tests/core/scalar_isa.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "HaacOp",
    "Instruction",
]


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
