"""Programmatic circuit construction.

:class:`CircuitBuilder` plays the role EMP's C++ frontend plays in the
paper's toolchain (Figure 5): high-level programs are written against it
and it emits the Boolean netlist the HAAC assembler consumes.  Wires are
plain integers; the builder guarantees the emitted netlist is SSA and
topologically ordered by construction.

Constants are materialised with one XOR (``w xor w == 0``) and one INV,
so the IR stays three-op; repeated requests reuse the same wires.
"""

from __future__ import annotations

import functools
from array import array
from typing import Dict, List, Sequence

import numpy as np

from .netlist import OP_AND, OP_INV, OP_XOR, Circuit, CircuitError

__all__ = ["CircuitBuilder", "stamped"]


def stamped(fn):
    """Run ``fn(builder, *args)`` once per call signature and append its
    recorded gates, relocated, on later calls.  ``fn`` must be pure: its
    gates and returned wires depend on the signature only (DESIGN.md 13.5).
    """

    @functools.wraps(fn)
    def wrapper(builder: "CircuitBuilder", *args) -> List[int]:
        return builder._stamp(fn, args)

    return wrapper


class CircuitBuilder:
    """Accumulates gates and finalizes into a validated :class:`Circuit`.

    Usage::

        builder = CircuitBuilder()
        a = builder.add_garbler_inputs(32)
        b = builder.add_evaluator_inputs(32)
        total = adder(builder, a, b)          # stdlib combinators
        builder.mark_outputs(total)
        circuit = builder.build("adder32")
    """

    def __init__(self) -> None:
        self._n_garbler_inputs = 0
        self._n_evaluator_inputs = 0
        # Gate columns; outputs are sequential, so `out` is implicit.
        self._op = bytearray()
        self._a = array("q")
        self._b = array("q")
        self._outputs: List[int] = []
        self._next_wire = 0
        self._const_zero: int | None = None
        self._const_one: int | None = None
        # `stamped` signature -> (op bytes, a + b + returned-wire indices
        # into the call's base vector), or None: run the body every time.
        self._stamps: Dict[tuple, tuple | None] = {}

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def add_garbler_inputs(self, count: int) -> List[int]:
        """Allocate ``count`` Garbler (Alice) input wires."""
        return self._add_inputs(count, garbler=True)

    def add_evaluator_inputs(self, count: int) -> List[int]:
        """Allocate ``count`` Evaluator (Bob) input wires."""
        return self._add_inputs(count, garbler=False)

    def _add_inputs(self, count: int, garbler: bool) -> List[int]:
        if self._op:
            raise CircuitError("cannot add inputs after the first gate")
        if count < 0:
            raise CircuitError("input count must be non-negative")
        if garbler and self._n_evaluator_inputs:
            raise CircuitError("garbler inputs must be allocated before evaluator inputs")
        wires = list(range(self._next_wire, self._next_wire + count))
        self._next_wire += count
        if garbler:
            self._n_garbler_inputs += count
        else:
            self._n_evaluator_inputs += count
        return wires

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------

    def _emit(self, op: int, a: int, b: int) -> int:
        # The one gate path: operands must exist (INV's b is -1), and the
        # first gate freezes the inputs (`_add_inputs` tests `_op`).
        out = self._next_wire
        if not (0 <= a < out and (0 <= b < out or op == OP_INV)):
            self._check_wire(a)
            self._check_wire(b)
        self._next_wire = out + 1
        self._op.append(op)
        self._a.append(a)
        self._b.append(b)
        return out

    def AND(self, a: int, b: int) -> int:
        """Emit an AND gate (one garbled table, four hashes to garble)."""
        return self._emit(OP_AND, a, b)

    def XOR(self, a: int, b: int) -> int:
        """Emit a FreeXOR gate (no table, no hashing)."""
        return self._emit(OP_XOR, a, b)

    def NOT(self, a: int) -> int:
        """Emit a free INV gate."""
        return self._emit(OP_INV, a, -1)

    def OR(self, a: int, b: int) -> int:
        """OR as (a xor b) xor (a and b): one table, two free XORs."""
        return self.XOR(self.XOR(a, b), self.AND(a, b))

    def XNOR(self, a: int, b: int) -> int:
        return self.NOT(self.XOR(a, b))

    def _check_wire(self, wire: int) -> None:
        if not 0 <= wire < self._next_wire:
            raise CircuitError(f"wire {wire} does not exist yet")

    def _stamp(self, fn, args) -> List[int]:
        # A template indexes the call's base vector: `slots` (INV's -1, the
        # constants, the distinct argument wires), then the wires it creates.
        zero, one, n = self._const_zero, self._const_one, self._next_wire
        slots = {-1: 0, zero or -2: 1, one or -3: 2}
        key: list = [fn, zero, one]
        for arg in args:
            if not isinstance(arg, (list, tuple)):
                key.append(arg)
                continue
            key.append(len(arg))
            for wire in arg:
                if not 0 <= wire < n:  # the body raises the plain path's error
                    return fn(self, *args)
                key.append(slots.setdefault(wire, len(slots)))
        key = tuple(key)
        template = self._stamps.get(key, ())
        if template is None:
            return fn(self, *args)
        start = len(self._op)
        if template:
            ops, index = template
            self._op += ops
        else:
            out = fn(self, *args)
            if (self._const_zero, self._const_one) != (zero, one):
                return out  # its constant gates would repeat: never recorded
        count = len(self._op) - start
        base = np.arange(n - len(slots), n + count, dtype=np.int64)
        base[: len(slots)] = list(slots)
        if template:  # one gather: the a, b and returned-wire columns
            wires = base[index]
            self._a.frombytes(wires[:count].tobytes())
            self._b.frombytes(wires[count : 2 * count].tobytes())
            self._next_wire = n + count
            return wires[2 * count :].tolist()
        where = {wire: i for i, wire in enumerate(base.tolist())}
        index = [where.get(w, -1) for w in (*self._a[start:], *self._b[start:], *out)]
        # -1: it read a wire outside its arguments, so it is never stamped.
        self._stamps[key] = None if -1 in index else (bytes(self._op[start:]), np.array(index))
        return out

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------

    def const_zero(self) -> int:
        """A wire carrying constant 0 (built once: w xor w)."""
        if self._const_zero is None:
            if not self._next_wire:
                raise CircuitError("circuit must have at least one input wire")
            self._const_zero = self._emit(OP_XOR, 0, 0)
        return self._const_zero

    def const_one(self) -> int:
        """A wire carrying constant 1 (NOT of the zero wire)."""
        if self._const_one is None:
            self._const_one = self._emit(OP_INV, self.const_zero(), -1)
        return self._const_one

    def const_bit(self, bit: int) -> int:
        return self.const_one() if bit else self.const_zero()

    def const_bits(self, value: int, width: int) -> List[int]:
        """Little-endian constant bit-vector of ``width`` bits."""
        if width <= 0:
            raise CircuitError("width must be positive")
        return [self.const_bit((value >> i) & 1) for i in range(width)]

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------

    def mark_outputs(self, wires: Sequence[int]) -> None:
        """Append circuit outputs (order is the output bit order)."""
        for wire in wires:
            self._check_wire(wire)
        self._outputs.extend(wires)

    def build(self, name: str = "circuit") -> Circuit:
        """Validate and return the finished netlist."""
        if not self._outputs:
            raise CircuitError("circuit has no outputs")
        n_inputs = self._n_garbler_inputs + self._n_evaluator_inputs
        circuit = Circuit.from_columns(
            self._n_garbler_inputs,
            self._n_evaluator_inputs,
            list(self._outputs),
            self._op[:],
            self._a[:],
            self._b[:],
            array("q", np.arange(n_inputs, self._next_wire, dtype=np.int64).tobytes()),
            name,
        )
        circuit.validate()
        return circuit

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self._op)

    @property
    def n_wires(self) -> int:
        return self._next_wire
