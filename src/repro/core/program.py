"""HAAC program container.

A :class:`HaacProgram` is the compiler's output for one circuit: four
parallel columns in execution order -- ``op`` (a ``bytearray`` of
:class:`~repro.core.isa.HaacOp` codes), ``wa`` / ``wb`` (``array('q')``
operand addresses, shared by reference with the netlist's ``a`` / ``b``)
and ``live`` (a ``bytearray`` of write-back bits) -- plus the metadata
the hardware controllers and the simulator need (input count, output
addresses, the netlist the program was derived from).
``program.instructions`` is a read-only view that builds
:class:`~repro.core.isa.Instruction` values only when somebody indexes
or iterates it (DESIGN.md section 13).

Programs obey the ISA contract: instruction ``p`` writes physical wire
address ``n_inputs + p`` (sequential outputs), so no output address is
encoded.  ``netlist`` is the *final* (lowered, reordered, renamed)
circuit whose gate ``p`` corresponds to instruction ``p``; garbling that
netlist yields tables in exactly the order the per-GE table queues pop
them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from ..circuits.netlist import (
    OP_AND, OP_INV, OP_XOR, Circuit, ColumnView, column_view,
)
from .isa import HaacOp, Instruction

__all__ = ["HaacProgram", "ProgramError"]

#: Netlist ``op`` column -> program ``op`` column (INV has no HAAC op).
_TO_HAAC = bytearray(256)
_TO_HAAC[OP_AND] = HaacOp.AND
_TO_HAAC[OP_XOR] = HaacOp.XOR


class ProgramError(ValueError):
    """Raised when a program violates the ISA contract."""


@dataclass
class HaacProgram:
    """A compiled HAAC program.

    Attributes
    ----------
    op / wa / wb / live:
        Execution-ordered instruction columns; instruction ``p`` writes
        address ``n_inputs + p``.
    n_inputs:
        Number of preloaded input wire addresses ``[0, n_inputs)``.
    outputs:
        Physical addresses of the circuit outputs.
    netlist:
        The final netlist (gate ``p`` == instruction ``p``); used for
        garbling and functional validation.
    name / applied_passes:
        Provenance for reports.
    """

    op: bytearray
    wa: array
    wb: array
    live: bytearray
    n_inputs: int
    outputs: List[int]
    netlist: Circuit
    name: str = "haac"
    applied_passes: List[str] = field(default_factory=list)

    @cached_property
    def instructions(self) -> ColumnView:
        """The program as :class:`Instruction` values (read-only, lazy)."""
        columns = (self.op, self.wa, self.wb, self.live)
        return ColumnView(
            self.op,
            lambda: [
                Instruction(HaacOp(op), wa, wb, bool(live), position)
                for position, (op, wa, wb, live) in enumerate(zip(*columns))
            ],
        )

    def __getstate__(self):
        # Columns and metadata only: a materialised view is never pickled.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n_wires(self) -> int:
        return self.n_inputs + len(self.op)

    def out_addr(self, position: int) -> int:
        """Physical output address of instruction ``position``."""
        return self.n_inputs + position

    @property
    def n_and(self) -> int:
        return self.op.count(HaacOp.AND)

    @property
    def n_xor(self) -> int:
        return self.op.count(HaacOp.XOR)

    @property
    def n_live(self) -> int:
        return self.live.count(1)

    def live_fraction(self) -> float:
        """Fraction of outputs written back to DRAM (Table 2 spent = 1-live)."""
        if not self.op:
            return 0.0
        return self.n_live / len(self.op)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the ISA contract against the carried netlist.

        * instruction count matches the netlist gate count;
        * netlist gate ``p`` writes wire ``n_inputs + p`` (renamed form);
        * instruction operands match the gate's input wires unless they
          are the OoR sentinel ``0``;
        * ops correspond (netlist has no INV at this stage).
        """
        netlist = self.netlist
        n = len(self.op)
        if not n == len(self.wa) == len(self.wb) == len(self.live):
            raise ProgramError("instruction columns have different lengths")
        if n != len(netlist.op):
            raise ProgramError(
                f"{n} instructions vs {len(netlist.op)} netlist gates"
            )
        if self.n_inputs != netlist.n_inputs:
            raise ProgramError("input count mismatch with netlist")
        _check_emittable(netlist)
        if self.op != netlist.op.translate(_TO_HAAC):
            raise ProgramError("op mismatch between instructions and netlist")
        for operands, wires in ((self.wa, netlist.a), (self.wb, netlist.b)):
            if operands is wires or operands == wires:
                continue
            for position, (operand, wire) in enumerate(zip(operands, wires)):
                if operand != wire and operand != 0:
                    raise ProgramError(
                        f"instruction {position} operand {operand} does not "
                        f"match netlist wire {wire}"
                    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_netlist(
        netlist: Circuit,
        name: Optional[str] = None,
        applied_passes: Optional[List[str]] = None,
    ) -> "HaacProgram":
        """Emit instructions 1:1 from a lowered, renamed netlist.

        All live bits default to True (everything written back); the ESW
        pass clears them.  Operand addresses are the netlist wire ids
        (the very same columns); stream generation flags OoR operands
        and encodes them as the sentinel.
        """
        _check_emittable(netlist)
        return HaacProgram(
            op=netlist.op.translate(_TO_HAAC),
            wa=netlist.a,
            wb=netlist.b,
            live=bytearray(b"\x01") * len(netlist.op),
            n_inputs=netlist.n_inputs,
            outputs=list(netlist.outputs),
            netlist=netlist,
            name=name or netlist.name,
            applied_passes=list(applied_passes or []),
        )

    def stats(self) -> Dict[str, float]:
        return {
            "instructions": len(self.op),
            "and": self.n_and,
            "xor": self.n_xor,
            "live": self.n_live,
            "live_pct": 100.0 * self.live_fraction(),
        }


def _check_emittable(netlist: Circuit) -> None:
    """The two netlist-side ISA preconditions: no INV, renamed form."""
    if OP_INV in netlist.op:
        raise ProgramError(
            f"netlist gate {netlist.op.index(OP_INV)} is INV; lower INV "
            "gates before emitting a program"
        )
    n_inputs = netlist.n_inputs
    sequential = np.arange(n_inputs, n_inputs + len(netlist.out))
    misplaced = np.flatnonzero(column_view(netlist.out) != sequential)
    if misplaced.size:
        position = int(misplaced[0])
        raise ProgramError(
            f"gate {position} writes {netlist.out[position]}, ISA requires "
            f"{n_inputs + position} (run renaming first)"
        )
