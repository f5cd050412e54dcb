"""Sliding Wire Window arithmetic (paper section 3.1.1).

The SWW is a scratchpad holding a *contiguous* range of wire addresses.
It is logically partitioned in half: the window starts at ``[0, n)`` and,
whenever the sequential output-wire frontier crosses its top, slides
forward by ``n/2`` -- so the window covering output address ``o`` is::

    half = n // 2
    w    = max(0, o // half - 1)
    window(o) = [w * half, w * half + n)

An input read below the window is **out of range** (OoR): the compiler
knows this statically, replaces the operand address with the OoR
sentinel 0, and streams the wire in through the OoRW queue.  A computed
wire is **live** if some later instruction reads it after the window has
slid past it; only live wires are written back to DRAM (the ESW pass).

This single module is shared by the ESW pass, stream generation, the
functional HAAC machine and the timing simulator -- compiler and
hardware can never disagree about residency (DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SlidingWindow", "WIRE_BYTES"]

WIRE_BYTES = 16  # one 128-bit label; the valid bit rides in the SRAM word


@dataclass(frozen=True)
class SlidingWindow:
    """Window arithmetic for an SWW of ``capacity`` wires.

    The capacity is in wires, not bytes: a 2 MB SWW holds 131072 16-byte
    labels.  ``capacity`` must be even (the window is halved).
    """

    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 4:
            raise ValueError("SWW capacity must be at least 4 wires")
        if self.capacity % 2:
            raise ValueError("SWW capacity must be even (logical halves)")

    @property
    def half(self) -> int:
        return self.capacity // 2

    @staticmethod
    def from_bytes(size_bytes: int) -> "SlidingWindow":
        return SlidingWindow(capacity=size_bytes // WIRE_BYTES)

    @property
    def size_bytes(self) -> int:
        return self.capacity * WIRE_BYTES

    def window_start(self, out_addr: int) -> int:
        """Low end of the window while output ``out_addr`` is produced."""
        if out_addr < 0:
            raise ValueError("addresses are non-negative")
        return max(0, (out_addr // self.half - 1)) * self.half

    def is_oor(self, wire_addr: int, out_addr: int) -> bool:
        """True when a read of ``wire_addr`` at frontier ``out_addr``
        must come through the OoRW queue."""
        return wire_addr < self.window_start(out_addr)
