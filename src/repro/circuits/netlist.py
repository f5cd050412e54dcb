"""Boolean circuit intermediate representation.

GCs programs are Boolean netlists: operators are gates (AND, XOR, INV),
operands are wires, and execution order is fully determined at compile
time -- there is no control flow (paper sections 1-2).  This IR is shared
by the garbling substrate, the workload generators, the Bristol reader/
writer, and the HAAC assembler.

A netlist *is* four parallel columns (DESIGN.md section 14): ``op`` (a
``bytearray`` of :data:`OP_AND` / :data:`OP_XOR` / :data:`OP_INV`) and
``a`` / ``b`` / ``out`` (``array('q')`` wire ids; ``b`` is -1 for INV).
:class:`Gate` stays the public value type, but ``circuit.gates`` is a
read-only :class:`ColumnView` that builds ``Gate`` objects only when
somebody indexes or iterates it; every pass and engine reads columns.

Invariants enforced by :meth:`Circuit.validate` (the one validator, an
array kernel over the columns; dependence-graph construction calls it
too):

* wires are dense integer ids ``[0, n_wires)``;
* wires ``[0, n_inputs)`` are primary inputs (Garbler's inputs first,
  then the Evaluator's);
* every non-input wire is written by exactly one gate (SSA form);
* gates are topologically ordered (inputs of gate ``g`` are produced by
  earlier gates or are primary inputs).
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "GateOp",
    "Gate",
    "Circuit",
    "CircuitStats",
    "CircuitError",
    "ColumnView",
    "column_view",
    "int_column",
    "narrow_column",
    "OP_AND",
    "OP_XOR",
    "OP_INV",
    "GATE_OPS",
]


class CircuitError(ValueError):
    """Raised when a netlist violates an IR invariant."""


class GateOp(enum.Enum):
    """Boolean gate operators supported by the GC substrate.

    ``INV`` is free under FreeXOR-style garbling and is lowered by the
    HAAC assembler to an XOR with a constant-one wire, matching the
    paper's three-op ISA (AND, XOR, NOP).
    """

    AND = "AND"
    XOR = "XOR"
    INV = "INV"

    @property
    def arity(self) -> int:
        return 1 if self is GateOp.INV else 2


#: ``op`` column codes -- also the canonical codes ``circuit_digest``
#: hashes, so they can never be renumbered.
OP_AND, OP_XOR, OP_INV = 0, 1, 2
#: Code -> operator (``GATE_OPS[code]``).
GATE_OPS = (GateOp.AND, GateOp.XOR, GateOp.INV)
_OP_CODE = {op: code for code, op in enumerate(GATE_OPS)}


#: ``array`` typecode -> the canonical NumPy integer of its sign and
#: width (``'q'`` -> ``int64``, not ``longlong``: ufuncs such as
#: ``maximum.at`` take their fast loop only on the canonical type).
_VIEW_DTYPE = {
    code: np.dtype(f"{'u' if code.isupper() else 'i'}{array(code).itemsize}")
    for code in "bBhHiIlLqQ"
}


def column_view(column) -> np.ndarray:
    """Zero-copy NumPy view of a column (``bytearray`` -> ``uint8``, an
    ``array`` -> its own typecode's sign and width, ``'q'`` -> ``int64``,
    ``'H'`` -> ``uint16``).  A live view blocks resizing its column:
    kernels keep views in short-lived frames, never store one."""
    if isinstance(column, array):
        return np.frombuffer(column, dtype=_VIEW_DTYPE[column.typecode])
    return np.frombuffer(column, dtype=np.uint8)


def int_column(values: np.ndarray) -> array:
    """A kernel's integer result as an ``array('q')`` column."""
    return array("q", values.astype(np.int64, copy=False).tobytes())


def narrow_column(values) -> array:
    """Non-negative integers (a list or an integer array) as the
    narrowest unsigned ``array`` column that holds their max: the
    typecode is the ``np.min_scalar_type``'s own ``char`` (``'B'`` up to
    255, ``'H'`` up to 65,535, ...)."""
    values = np.asarray(values, dtype=np.int64)
    dtype = np.min_scalar_type(int(values.max(initial=0)))
    return array(dtype.char, values.astype(dtype, copy=False).tobytes())


@dataclass(frozen=True)
class Gate:
    """One Boolean gate: ``out = op(a, b)`` (``b`` is -1 for INV)."""

    op: GateOp
    a: int
    b: int
    out: int

    def __post_init__(self) -> None:
        if self.op.arity == 1 and self.b != -1:
            raise CircuitError(f"INV gate must have b == -1, got {self.b}")
        if self.op.arity == 2 and self.b < 0:
            raise CircuitError(f"{self.op.value} gate needs two inputs")
        if self.a < 0 or self.out < 0:
            raise CircuitError("wire ids must be non-negative")

    def inputs(self) -> Iterator[int]:
        yield self.a
        if self.op.arity == 2:
            yield self.b

    def eval(self, a: int, b: int = 0) -> int:
        if self.op is GateOp.AND:
            return a & b
        if self.op is GateOp.XOR:
            return a ^ b
        return a ^ 1


class ColumnView(SequenceABC):
    """Read-only sequence over columns that materialises on demand.

    ``len`` is O(1) (the length of ``column``).  The first index or
    iteration calls ``build`` once and keeps the list, so repeated
    walks construct nothing; there is no ``__setitem__`` -- the columns
    are the truth, and assigning into a view raises ``TypeError``.
    ``build`` should close over columns, not over the view's owner, so
    owner and view never form a reference cycle.
    """

    __slots__ = ("_column", "_build", "_items")

    def __init__(self, column, build: Callable[[], list]) -> None:
        self._column = column
        self._build = build
        self._items = None

    def _all(self) -> list:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return self._all() == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColumnView({self._all()!r})"


@dataclass
class CircuitStats:
    """Summary statistics matching the columns of the paper's Table 2."""

    levels: int
    wires: int
    gates: int
    and_gates: int
    xor_gates: int
    inv_gates: int

    @property
    def and_fraction(self) -> float:
        """AND share of all gates (Table 2 'AND %')."""
        return self.and_gates / self.gates if self.gates else 0.0

    @property
    def ilp(self) -> float:
        """Average gates per dependence level (Table 2 'ILP')."""
        return self.gates / self.levels if self.levels else 0.0

    def as_row(self) -> Dict[str, float]:
        return {
            "levels": self.levels,
            "wires_k": self.wires / 1e3,
            "gates_k": self.gates / 1e3,
            "and_pct": 100.0 * self.and_fraction,
            "ilp": self.ilp,
        }


class Circuit:
    """A Boolean netlist in SSA, topologically ordered form.

    Owns the ``op`` / ``a`` / ``b`` / ``out`` columns.  Constructing
    from ``gates`` copies their fields into columns; passes that already
    hold columns use :meth:`from_columns`, which adopts them as is.
    Columns are immutable by convention: every pass returns a new
    ``Circuit`` (possibly sharing columns it did not change).
    """

    def __init__(
        self,
        n_garbler_inputs: int,
        n_evaluator_inputs: int,
        outputs: List[int],
        gates: Iterable[Gate] = (),
        name: str = "circuit",
    ) -> None:
        gates = list(gates)
        self.n_garbler_inputs = n_garbler_inputs
        self.n_evaluator_inputs = n_evaluator_inputs
        self.outputs = outputs
        self.name = name
        self.op = bytearray(_OP_CODE[gate.op] for gate in gates)
        self.a = array("q", [gate.a for gate in gates])
        self.b = array("q", [gate.b for gate in gates])
        self.out = array("q", [gate.out for gate in gates])

    @classmethod
    def from_columns(
        cls,
        n_garbler_inputs: int,
        n_evaluator_inputs: int,
        outputs: List[int],
        op: bytearray,
        a: array,
        b: array,
        out: array,
        name: str = "circuit",
    ) -> "Circuit":
        """Adopt ready-made columns (not validated; see :meth:`validate`)."""
        circuit = cls(n_garbler_inputs, n_evaluator_inputs, outputs, name=name)
        circuit.op, circuit.a, circuit.b, circuit.out = op, a, b, out
        return circuit

    @cached_property
    def gates(self) -> ColumnView:
        """The gates as :class:`Gate` values (read-only, built lazily)."""
        # The closure holds the columns, not the circuit: no reference
        # cycle, so a dropped circuit is freed without the cyclic GC.
        columns = (self.op, self.a, self.b, self.out)
        return ColumnView(
            self.op,
            lambda: [
                Gate(GATE_OPS[code], a, b, out)
                for code, a, b, out in zip(*columns)
            ],
        )

    @property
    def n_inputs(self) -> int:
        return self.n_garbler_inputs + self.n_evaluator_inputs

    @property
    def n_wires(self) -> int:
        return self.n_inputs + len(self.op)

    @property
    def garbler_input_wires(self) -> range:
        return range(0, self.n_garbler_inputs)

    @property
    def evaluator_input_wires(self) -> range:
        return range(self.n_garbler_inputs, self.n_inputs)

    def validate(self) -> bool:
        """Check every IR invariant on the columns; raises CircuitError.

        The one validator (dependence-graph construction calls it too).
        Returns whether the netlist is in renamed form (gate ``p``
        writes wire ``n_inputs + p``), which the window analyses need.
        """
        n_gates = len(self.op)
        if not len(self.a) == len(self.b) == len(self.out) == n_gates:
            raise CircuitError("gate columns have different lengths")
        renamed, message = self._check_gates()
        if message is not None:
            raise CircuitError(message)
        # Every gate is sound, so every wire in [0, n_wires) is defined.
        for wire in self.outputs:
            if not 0 <= wire < self.n_wires:
                raise CircuitError(f"output wire {wire} is undefined")
        return renamed

    def _check_gates(self) -> Tuple[bool, Optional[str]]:
        """(renamed, message for the first offending gate or None).

        The views die with this frame, so a caller holding the raised
        error can still resize the columns.
        """
        n_inputs, n_wires, n_gates = self.n_inputs, self.n_wires, len(self.op)
        code, a, b, out = map(column_view, (self.op, self.a, self.b, self.out))
        # A well-formed INV reads only ``a``: its ``b`` is exempt below.
        unary = (code == OP_INV) & (b == -1)
        # As unsigned a negative id is a huge one: one compare, both bounds.
        limit = np.uint64(n_wires)
        bad = (
            ((code > OP_XOR) & ~unary)
            | (a.view(np.uint64) >= limit)
            | ((b.view(np.uint64) >= limit) & ~unary)
            | (out.view(np.uint64) >= limit)
        )
        # Gates before the first malformed one index ``first_def`` safely.
        clean = int(bad.argmax()) if bad.any() else n_gates
        a, b, out, unary = a[:clean], b[:clean], out[:clean], unary[:clean]
        # first_def[wire]: the first gate writing it (-1 for inputs,
        # n_gates if none).  A gate is sound iff it is the first writer
        # of its output (SSA, no input overwritten) and its operands were
        # first written earlier (topological).  int32 halves the gathers.
        position = np.arange(clean, dtype=np.int32)
        first_def = np.full(n_wires, n_gates, dtype=np.int32)
        first_def[:n_inputs] = -1
        np.minimum.at(first_def, out, position)
        bad = (
            (first_def[a] >= position)
            | ((first_def[b] >= position) & ~unary)
            | (first_def[out] != position)
        )
        if bad.any():
            clean = int(bad.argmax())
        if clean == n_gates:
            return bool(np.array_equal(first_def[n_inputs:], position)), None

        # The scalar rules, in precedence order, on the one bad gate.
        p = clean
        op, x, y, w = self.op[p], self.a[p], self.b[p], self.out[p]
        if op == OP_INV and y != -1:
            return False, f"gate {p}: INV must have b == -1, got {y}"
        if op > OP_INV:
            return False, f"gate {p}: unknown op code {op}"
        if op == OP_INV:
            y = x
        if x < 0 or y < 0 or w < 0:
            return False, f"gate {p}: wire ids must be non-negative"
        if not (x < n_wires and y < n_wires and w < n_wires):
            return False, f"gate {p} touches a wire >= n_wires {n_wires}"
        if first_def[x] >= p or first_def[y] >= p:
            return False, f"gate {p} reads a wire before it is defined"
        if w < n_inputs:
            return False, f"gate {p} overwrites input wire {w}"
        return False, f"wire {w} defined twice (SSA violation)"

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def wire_levels(self) -> List[int]:
        """ASAP dependence level of every wire (inputs are level 0)."""
        level = [0] * self.n_wires
        for a, b, out in zip(self.a, self.b, self.out):
            level[out] = 1 + max(level[a], level[b] if b >= 0 else 0)
        return level

    def gate_levels(self) -> List[int]:
        """ASAP dependence level of every gate, 1-based like the paper."""
        level = self.wire_levels()
        return [level[out] for out in self.out]

    def depth(self) -> int:
        """Circuit depth in gate levels (Table 2 '# Levels')."""
        return max(self.gate_levels(), default=0)

    def and_level_schedule(self) -> List[Tuple[List[int], List[List[int]]]]:
        """Batched execution schedule keyed by *multiplicative* depth.

        FreeXOR garbling only pays for AND gates, so the natural batch
        is all AND gates at the same AND-only (multiplicative) depth --
        a far coarser grouping than ASAP dependence levels (e.g. the
        AES-128 circuit has 1182 ASAP levels but only 40 AND levels of
        1280 gates each).  Returns one phase per depth ``d``:

        ``(and_positions, free_groups)`` where ``and_positions`` are the
        AND gates at depth ``d`` (always empty for ``d = 0``) and
        ``free_groups`` is an ordered list of mutually independent
        XOR/INV position groups.  Executing phases in order -- AND batch
        first, then each free group -- respects every data dependence:
        an AND at depth ``d`` reads only wires of depth ``< d``, and a
        free gate is placed after every same-depth gate it reads.

        The schedule is cached on the circuit (it is a pure function of
        the netlist) so garbler, evaluator and benchmarks share one
        computation.
        """
        cached = getattr(self, "_and_schedule_cache", None)
        if cached is not None:
            return cached
        depth = [0] * self.n_wires
        free_level = [0] * self.n_wires
        phases: List[Tuple[List[int], List[List[int]]]] = [([], [])]
        for position, (code, a, b, out) in enumerate(
            zip(self.op, self.a, self.b, self.out)
        ):
            if code == OP_INV:
                b = a
            d = max(depth[a], depth[b])
            if code == OP_AND:
                d += 1
                while len(phases) <= d:
                    phases.append(([], []))
                phases[d][0].append(position)
                free_level[out] = 0
            else:
                f = 1
                if depth[a] == d and free_level[a] >= f:
                    f = free_level[a] + 1
                if depth[b] == d and free_level[b] >= f:
                    f = free_level[b] + 1
                groups = phases[d][1]
                while len(groups) < f:
                    groups.append([])
                groups[f - 1].append(position)
                free_level[out] = f
            depth[out] = d
        self._and_schedule_cache = phases
        return phases

    def stats(self) -> CircuitStats:
        return CircuitStats(
            levels=self.depth(),
            wires=self.n_wires,
            gates=len(self.op),
            and_gates=self.op.count(OP_AND),
            xor_gates=self.op.count(OP_XOR),
            inv_gates=self.op.count(OP_INV),
        )

    def fanout(self) -> List[int]:
        """Number of consumers of each wire (outputs not counted)."""
        b = column_view(self.b)
        reads = np.concatenate([column_view(self.a), b[b >= 0]])
        return np.bincount(reads, minlength=self.n_wires).tolist()

    # ------------------------------------------------------------------
    # Plaintext execution (ground truth for all GC/HAAC paths)
    # ------------------------------------------------------------------

    def eval_plain(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> List[int]:
        """Evaluate the circuit on plaintext bits; returns output bits."""
        if len(garbler_bits) != self.n_garbler_inputs:
            raise CircuitError(
                f"expected {self.n_garbler_inputs} garbler bits, got {len(garbler_bits)}"
            )
        if len(evaluator_bits) != self.n_evaluator_inputs:
            raise CircuitError(
                f"expected {self.n_evaluator_inputs} evaluator bits, got {len(evaluator_bits)}"
            )
        values = [bit & 1 for bit in garbler_bits]
        values += [bit & 1 for bit in evaluator_bits]
        values += [0] * len(self.op)
        for code, a, b, out in zip(self.op, self.a, self.b, self.out):
            if code == OP_AND:
                values[out] = values[a] & values[b]
            elif code == OP_XOR:
                values[out] = values[a] ^ values[b]
            else:
                values[out] = values[a] ^ 1
        return [values[wire] for wire in self.outputs]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    _FIELDS = (
        "n_garbler_inputs", "n_evaluator_inputs", "outputs", "name",
        "op", "a", "b", "out",
    )

    def __getstate__(self):
        # Pickles and copies carry the netlist and nothing derived from
        # it: the gates view and every memo other modules hang on the
        # instance (and_level_schedule, digest, dependence graph, vector
        # plan) are dropped, so cache entries stay lean, a stale memo can
        # never be revived from disk, and ``copy.copy`` is memo-free.
        return {name: getattr(self, name) for name in self._FIELDS}

    def producer_map(self) -> Dict[int, int]:
        """Map from output wire id to producing gate position."""
        return {out: position for position, out in enumerate(self.out)}

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.op)

    @staticmethod
    def from_gates(
        n_garbler_inputs: int,
        n_evaluator_inputs: int,
        gates: Iterable[Gate],
        outputs: Sequence[int],
        name: str = "circuit",
    ) -> "Circuit":
        circuit = Circuit(
            n_garbler_inputs, n_evaluator_inputs, list(outputs), gates, name
        )
        circuit.validate()
        return circuit
