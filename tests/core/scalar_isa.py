"""The scalar inverse of :func:`repro.core.isa.encode_fields`, kept as
the test oracle for the one ISA encoder."""

from typing import Tuple


def split_word(word: int, addr_bits: int) -> Tuple[int, int, int, int]:
    """``(op, wa, wb, live)`` of one ``2 + 2 * addr_bits + 1``-bit word."""
    mask = (1 << addr_bits) - 1
    live, word = word & 1, word >> 1
    wb, word = word & mask, word >> addr_bits
    wa, op = word & mask, word >> addr_bits
    return op, wa, wb, live
