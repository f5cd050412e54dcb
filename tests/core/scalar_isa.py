"""The HAAC binary instruction encoding (paper section 3.1.3) and its
scalar inverse.

Nothing in the package emits instruction bits -- the timing model
charges ``repro.sim.config.INSTR_BYTES`` per instruction -- so the
encoder lives here: :func:`encode_fields` packs one instruction,
:func:`machine_words` a GE stream with physical (sentinel-safe)
addressing, and :func:`split_word` is the decoding oracle.  The compile
goldens run every stream through :func:`machine_words`.
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.passes.streams import GeStreams
from repro.core.sww import SlidingWindow

# Wire address 0 means "read the OoRW queue" (paper section 3.1.4).
OOR_SENTINEL = 0


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


def machine_words(
    ge: GeStreams, window: SlidingWindow, encoding: InstructionEncoding | None = None
) -> List[int]:
    """Binary instruction words with physical (sentinel-safe) addressing."""
    enc = encoding or InstructionEncoding.for_sww_wires(window.capacity + 1)
    capacity = window.capacity
    program = ge.program
    oor_a, oor_b = ge.oor_a_of, ge.oor_b_of
    return [
        encode_fields(
            program.op[p],
            OOR_SENTINEL if oor_a[p] else program.wa[p] % capacity + 1,
            OOR_SENTINEL if oor_b[p] else program.wb[p] % capacity + 1,
            program.live[p],
            enc,
        )
        for p in ge.positions
    ]


def split_word(word: int, addr_bits: int) -> Tuple[int, int, int, int]:
    """``(op, wa, wb, live)`` of one ``2 + 2 * addr_bits + 1``-bit word."""
    mask = (1 << addr_bits) - 1
    live, word = word & 1, word >> 1
    wb, word = word & mask, word >> addr_bits
    wa, op = word & mask, word >> addr_bits
    return op, wa, wb, live
