"""Boolean circuit intermediate representation.

GCs programs are Boolean netlists: operators are gates (AND, XOR, INV),
operands are wires, and execution order is fully determined at compile
time -- there is no control flow (paper sections 1-2).  This IR is shared
by the garbling substrate, the workload generators, the Bristol reader/
writer, and the HAAC assembler.

A netlist *is* four parallel columns (DESIGN.md section 13): ``op`` (a
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
from itertools import pairwise
from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "GateOp",
    "Gate",
    "Circuit",
    "CircuitStats",
    "CircuitError",
    "check_input_bits",
    "is_bit",
    "asap_wire_levels",
    "AndLevelPlan",
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


class AndLevelPlan:
    """:attr:`Circuit.and_level_plan`: the AND-level schedule as slices.

    The label store's rows are in schedule order: inputs keep rows
    ``[0, n_inputs)``, the ``k``-th gate of the plan writes row
    ``n_inputs + k`` and row ``n_wires`` is the sentinel (R for the
    Garbler, zero for the Evaluator), which every INV reads as its
    ``b``.  ``rows`` maps wire ids to rows; ``a`` / ``b`` are the gates'
    operand rows in schedule order (int32 when every row fits),
    ``and_positions`` the AND gates' netlist positions, phase ``d``'s
    from ``and_at[d]``.  Run ``r`` (AND batch or free group) is plan
    gates ``[cuts[r], cuts[r + 1])``; phase ``d`` is runs
    ``[runs_at[d], runs_at[d + 1])``.
    """

    __slots__ = ("a", "b", "rows", "and_positions", "and_at", "cuts", "runs_at")

    def __init__(self, a, b, rows, and_positions, and_at, cuts, runs_at) -> None:
        self.a, self.b, self.rows = a, b, rows
        self.and_positions, self.and_at = and_positions, and_at
        self.cuts, self.runs_at = cuts, runs_at

    def __len__(self) -> int:  # the phase count: multiplicative depth + 1
        return len(self.runs_at) - 1

    def and_batch(self, index: int) -> np.ndarray:
        """Netlist positions of phase ``index``'s AND gates."""
        return self.and_positions[self.and_at[index] : self.and_at[index + 1]]

    def phase(self, index: int):
        """Phase ``index`` as ``(and_positions, a, b, out, free_groups)``,
        one ``(a, b, out)`` per free group: ``a`` / ``b`` operand-row
        views, ``out`` the ``slice`` of rows the run writes."""
        cuts = self.cuts[self.runs_at[index] : self.runs_at[index + 1] + 1]
        # NumPy indexes with intp: widen the phase once, not every group.
        lo = cuts[0]
        a, b = (c[lo : cuts[-1]].astype(np.intp) for c in (self.a, self.b))
        n_inputs = len(self.rows) - len(self.a)
        runs = [
            (a[s:e], b[s:e], slice(n_inputs + lo + s, n_inputs + lo + e))
            for s, e in pairwise((cuts - lo).tolist())
        ]
        return (self.and_batch(index), *runs[0], runs[1:])


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
        return asap_wire_levels(self.n_wires, self.a, self.b, self.out)

    def gate_levels(self) -> List[int]:
        """ASAP dependence level of every gate, 1-based like the paper."""
        level = self.wire_levels()
        return [level[out] for out in self.out]

    def depth(self) -> int:
        """Circuit depth in gate levels (Table 2 '# Levels')."""
        return max(self.gate_levels(), default=0)

    @cached_property
    def and_level_plan(self) -> "AndLevelPlan":
        """The batched execution schedule, keyed by *multiplicative* depth.

        FreeXOR garbling only pays for AND gates, so a batch is all AND
        gates at one AND-only depth (AES-128: 1182 ASAP levels, but 40 AND
        levels of 1280 gates).  Phase ``d`` is its AND batch (empty for
        ``d = 0``), then ordered groups of mutually independent XOR/INV
        gates; run in order, the phases respect every data dependence.

        One walk gives each wire a packed ``(depth, free level)`` key: an
        AND is ``depth + 1`` at level 0, an XOR / INV its largest operand
        key plus one.  The level field is as wide as the free-gate count,
        so it never carries into the depth.  One stable sort of the gate
        keys puts each AND batch and each free group in a run of
        consecutive rows, so each writes one slice of the label store
        (:class:`AndLevelPlan`).  Memoized.
        """
        mask = (1 << (len(self.op) - self.op.count(OP_AND)).bit_length()) - 1
        n_inputs, n_wires = self.n_inputs, self.n_wires
        # One spare slot past the last wire: an INV's b = -1 reads key 0.
        key = array("q", bytes(8 * n_wires + 8))
        for code, a, b, out in zip(self.op, self.a, self.b, self.out):
            k, kb = key[a], key[b]
            if kb > k:
                k = kb
            key[out] = (k | mask) + 1 if code == OP_AND else k + 1
        out = column_view(self.out)
        gate_key = column_view(key)[out]
        order = np.argsort(gate_key, kind="stable")
        gate_key = gate_key[order]
        # A run is one (depth, free level) key; run 0 is phase 0's empty
        # AND batch, and every later phase opens with its AND run.
        starts = np.flatnonzero(np.diff(gate_key, prepend=-1))
        cuts = np.concatenate([[0], starts, [len(order)]])
        run_depth = np.append(0, gate_key[starts] >> mask.bit_length())
        runs_at = np.searchsorted(run_depth, np.arange(run_depth[-1] + 2))
        and_rows = np.flatnonzero(column_view(self.op)[order] == OP_AND)
        # rows[-1] is the sentinel: an INV's b = -1 reads row n_wires.
        narrow = np.int32 if n_wires < 2**31 else np.int64
        rows = np.arange(n_wires + 1, dtype=narrow)
        rows[out[order]] = np.arange(n_inputs, n_wires, dtype=narrow)
        return AndLevelPlan(
            *(rows[column_view(c)[order]] for c in (self.a, self.b)),
            rows[:-1],
            order[and_rows].astype(narrow),
            np.searchsorted(and_rows, cuts[runs_at]),
            cuts,
            runs_at,
        )

    def and_level_schedule(self) -> List[Tuple[List[int], List[List[int]]]]:
        """:attr:`and_level_plan` as lists, memoized: ``(and_positions,
        free_groups)`` per phase, each group's netlist positions in
        ascending order.  No session builds it."""
        phases = self.__dict__.get("_and_level_lists")
        if phases is None:
            plan = self.and_level_plan
            position_of = np.empty(len(self.op), dtype=np.int64)
            position_of[plan.rows[column_view(self.out)] - self.n_inputs] = (
                np.arange(len(self.op))
            )
            positions = position_of.tolist()
            runs = [positions[lo:hi] for lo, hi in pairwise(plan.cuts.tolist())]
            self.__dict__["_and_level_lists"] = phases = [
                (runs[r0], [sorted(group) for group in runs[r0 + 1 : r1]])
                for r0, r1 in pairwise(plan.runs_at.tolist())
            ]
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

    # ------------------------------------------------------------------
    # Plaintext execution (ground truth for all GC/HAAC paths)
    # ------------------------------------------------------------------

    def eval_plain(
        self, garbler_bits: Sequence[int], evaluator_bits: Sequence[int]
    ) -> List[int]:
        """Evaluate the circuit on plaintext bits; returns output bits."""
        check_input_bits(self, "garbler", garbler_bits)
        check_input_bits(self, "evaluator", evaluator_bits)
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
        # it: the gates view and every memo on the instance (the AND-level
        # plan and its list view, digest, dependence graph) are dropped,
        # so cache entries stay lean, a stale memo can never be revived
        # from disk, and ``copy.copy`` is memo-free.
        return {name: getattr(self, name) for name in self._FIELDS}

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.op)


def asap_wire_levels(
    n_wires: int, a_of: Sequence[int], b_of: Sequence[int], out_of: Sequence[int]
) -> List[int]:
    """ASAP dependence level of every wire id (inputs are level 0) of the
    gate columns ``a_of`` / ``b_of`` / ``out_of`` (``b < 0``: no operand)."""
    level = [0] * n_wires
    # Sequential by nature: a gate's level needs its operands' first.
    for a, b, out in zip(a_of, b_of, out_of):
        la = level[a]
        if b >= 0:
            lb = level[b]
            if lb > la:
                la = lb
        level[out] = la + 1
    return level


def is_bit(value) -> bool:
    """Whether ``value`` is the integer 0 or 1 (``1.0`` is not)."""
    return isinstance(value, (int, np.integer)) and value in (0, 1)


def check_input_bits(circuit: Circuit, party: str, bits: Sequence[int]) -> None:
    """Raise :class:`CircuitError` unless ``bits`` are ``party``'s
    (``"garbler"`` or ``"evaluator"``) inputs to ``circuit``: one per
    input wire, each the integer 0 or 1 (:func:`is_bit`).  The one input
    check of every executor: plaintext, functional machine and both
    session roles."""
    if len(bits) != getattr(circuit, f"n_{party}_inputs"):
        raise CircuitError(f"wrong number of {party} input bits")
    if not all(map(is_bit, bits)):
        raise CircuitError(f"{party} input bits must be 0 or 1")
