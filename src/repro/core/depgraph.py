"""One shared dependence-graph IR for the compiler and the sim engines.

Before this module, three consumers re-derived overlapping dependence
structure from the same netlist on every cold compile: the reorder
passes re-ran :meth:`Circuit.gate_levels`, ESW re-walked every gate's
operands, and the greedy GE mapping iterated gate dataclasses.
:class:`DepGraph` is the single flat-array home for all of it
(DESIGN.md section 13):

* **operand arrays** ``a_of`` / ``b_of`` / ``out_of`` -- the circuit's
  own columns, adopted by reference -- and ``is_and``, one byte per
  gate translated from the ``op`` column;
* **last readers** -- ``last_reader``, a column filled by one
  ``maximum.at`` per operand column (all ESW needs);
* **topological levels** -- the netlist's ASAP wire/gate levels (these
  are per-*wire-id* and therefore permutation-invariant: the reorder
  passes share one computation across the pipeline);
* **window-sync edges** -- both directions of the tagless-SWW hazards:
  the PR-5 WAW rule (an evicting write orders after the evicted slot's
  *producer*, readers or not) and the OoR reader-after-evictor floor.
  They live in :func:`engine_levels`, the schedule-aware level
  partition behind ``StreamSet.level_of``, and in the greedy
  scheduler's ``last_read_issue`` bookkeeping -- one definition,
  asserted bit-identical by the equivalence suite.

Graph construction *is* validation: it runs :meth:`Circuit.validate`
(which also reports whether the netlist is in renamed form), so a pass
that builds or receives a graph can skip a redundant ``validate()`` of
the same netlist.

Memoization is two-level: on the circuit instance (attribute
``_depgraph_cache``, dropped on pickle like every other netlist memo)
and in a small registry so rebuilt-but-equal circuits -- a sweep
rebuilding a workload, or two opt levels sharing one lowered circuit --
reuse the graph and everything lazily derived on it.  The registry is
keyed by the circuit's name and its input, gate and output counts; a
key hit shares the graph only when the ``op`` / ``a`` / ``b`` / ``out``
columns and the outputs compare equal: a few buffer compares, where a
content digest would hash every gate.  The renamed program's graph
additionally rides along on the :class:`StreamSet` into the persistent
program cache, sharing its operand columns with the netlist and the
program so warm entries store one copy.
"""

from __future__ import annotations

import threading
from array import array
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.netlist import (
    OP_AND, Circuit, CircuitError, asap_wire_levels, column_view, int_column,
)

__all__ = [
    "DepGraph",
    "dep_graph",
    "engine_levels",
    "build_counts",
    "clear_registry",
    "seed_graph",
]

#: Instance-memo attribute on Circuit (listed in Circuit._MEMO_ATTRS so
#: pickled netlists never carry a graph; StreamSet persists it instead).
GRAPH_ATTR = "_depgraph_cache"

#: Graphs surviving across rebuilt Circuit instances, keyed by
#: :func:`_registry_key`; each entry keeps the ``op`` column and the
#: outputs its graph does not hold, for the equality check of a key hit.
#: Bounded FIFO: 64 graphs cover any realistic sweep's working set.
_REGISTRY_MAX = 64
_registry: "Dict[tuple, Tuple[bytearray, List[int], DepGraph]]" = {}
_registry_lock = threading.Lock()

#: Work-actually-done counters (not cache hits) -- the warm-path tests
#: and the bench's cold-compile honesty both read these.
_counts = {"graphs": 0, "levels": 0}

#: ``op`` column -> one byte per gate, 1 where the gate is an AND.
_IS_AND = bytes(code == OP_AND for code in range(256))


def build_counts() -> Dict[str, int]:
    """Snapshot of how many times each derivation actually ran."""
    return dict(_counts)


def clear_registry() -> None:
    """Drop all registered graphs (cold-path benchmarking, tests)."""
    with _registry_lock:
        _registry.clear()


class DepGraph:
    """Immutable flat-array dependence graph of one :class:`Circuit`.

    Eager fields are the circuit's columns plus one validation pass;
    everything else is a ``cached_property``: derived lazily, once, and
    memoized on the graph.
    All fields are stdlib arrays, bytearrays and lists (the same
    NumPy-less-pickle portability contract as the stream set; the
    NumPy engine wraps them on demand).  The derivations that are not
    sequential by nature run as array kernels over views of the
    columns and hand back lists of Python ints (DESIGN.md 13.4).
    """

    def __init__(self, circuit: Circuit):
        self.n_inputs = circuit.n_inputs
        self.n_gates = len(circuit.op)
        self.n_wires = circuit.n_wires
        self.a_of = circuit.a
        self.b_of = circuit.b
        self.out_of = circuit.out
        self.is_and = circuit.op.translate(_IS_AND)
        self.renamed = circuit.validate()
        _counts["graphs"] += 1

    # ------------------------------------------------------------------
    # Topological (ASAP) levels
    # ------------------------------------------------------------------

    @cached_property
    def wire_level(self) -> List[int]:
        """ASAP level per wire id (inputs 0): :func:`asap_wire_levels`.

        Per-wire-id, so a gate *permutation* of the same netlist has the
        identical array; the reorder passes exploit that by seeding the
        permuted circuit's graph with the source's levels.
        """
        level = asap_wire_levels(self.n_wires, self.a_of, self.b_of, self.out_of)
        _counts["levels"] += 1
        return level

    @cached_property
    def gate_level_column(self) -> array:
        """ASAP level per gate position, 1-based (Circuit.gate_levels) as
        a column; a seeded graph reads its source's."""
        source = self.__dict__.pop("_gate_level_from", None)
        if source is not None:
            return source.gate_level_column
        level = np.asarray(self.wire_level, dtype=np.int64)
        return int_column(level[column_view(self.out_of)])

    @property
    def has_levels(self) -> bool:
        """Whether the gate levels are at hand without a walk."""
        levels = ("wire_level", "gate_level_column", "_gate_level_from")
        return not self.__dict__.keys().isdisjoint(levels)

    # ------------------------------------------------------------------
    # Last readers
    # ------------------------------------------------------------------

    @cached_property
    def last_reader(self) -> array:
        """Last gate position reading each wire (-1: never read), a column.

        The ESW liveness rule only needs the *last* reader: consumer
        frontiers ``n_inputs + q`` ascend with ``q``, so a wire is read
        past its eviction frontier iff its last reader is.
        """
        last = np.full(self.n_wires, -1)
        position = np.arange(self.n_gates)
        a, b = column_view(self.a_of), column_view(self.b_of)
        binary = b >= 0  # INV has no second operand
        np.maximum.at(last, a, position)
        np.maximum.at(last, b[binary], position[binary])
        return int_column(last)

    # ------------------------------------------------------------------
    # Window-sync derived data (renamed form only)
    # ------------------------------------------------------------------

    def oor_flags(self, capacity: int) -> Tuple[bytearray, bytearray]:
        """Per-gate (a, b) out-of-range flags for an SWW of ``capacity``.

        Inlines :meth:`SlidingWindow.is_oor` over the flat arrays:
        operand ``w`` of gate ``p`` is OoR iff
        ``w < max(0, ((n_inputs + p) // half - 1)) * half``.
        """
        if not self.renamed:
            raise CircuitError(
                "OoR analysis requires the renamed (sequential-output) form"
            )
        memo = self.__dict__.setdefault("_oor_flags", {})
        if capacity in memo:
            return memo[capacity]
        half = capacity // 2
        start = ((self.n_inputs + np.arange(self.n_gates)) // half - 1) * half
        # No window has slid before output address 2 * half.
        slid = start > 0
        memo[capacity] = tuple(
            bytearray(((column_view(column) < start) & slid).tobytes())
            for column in (self.a_of, self.b_of)
        )
        return memo[capacity]

    # ------------------------------------------------------------------
    # Pickle support (persisted on StreamSet through the program cache)
    # ------------------------------------------------------------------

    #: Eager fields: all that is pickled (the netlist and the program
    #: in the same pickle hold the very same column objects, so the
    #: marginal entry size is near zero); the derived memos rebuild on
    #: demand.
    _EAGER = (
        "n_inputs", "n_gates", "n_wires",
        "a_of", "b_of", "out_of", "is_and", "renamed",
    )

    def __getstate__(self):
        return {name: getattr(self, name) for name in self._EAGER}


def engine_levels(
    n_inputs: int,
    capacity: int,
    a_of: List[int],
    b_of: List[int],
    ge_of: List[int],
    n_ges: int,
) -> List[int]:
    """Dependence-level partition consumed by the NumPy level replay.

    The one definition of every ordering constraint the level-parallel
    engine must respect (``StreamSet.level_of`` narrows its result):

    * **data**: instruction ``p`` reading wire ``w >= n_inputs`` runs
      strictly after producer ``w - n_inputs``;
    * **window-sync WAW** (the PR-5 evictor rule): ``p`` overwrites the
      slot of wire ``n_inputs + p - capacity``, so it runs strictly
      after that wire's *producer* ``p - capacity`` -- readers or not
      (a reader-less wire would otherwise let the evicting write land
      before its lagging producer and be stomped);
    * **window-sync readers**: ``p`` also runs no earlier than every
      reader of the evicted wire (their ``last_read_issue`` must be
      final when ``p`` gathers it); conversely the **OoR
      reader-after-evictor floor** -- a reader ``q > t`` of a wire
      whose slot instruction ``t`` already overwrote (an OoR read
      served by the queue) must not land in an earlier level than
      ``t``, or its ``last_read_issue`` update would become visible to
      ``t``'s gather when the scalar replay never saw it (equal levels
      are fine: gathers read pre-level state);
    * **in-order issue**: same-GE levels are non-decreasing in program
      order (*equal* allowed -- within a level each GE's instructions
      keep program order and chain through a segmented prefix-max).

    The OoR floor is now conservative (the replay gathers only readers
    *earlier* than the evictor), but it stays: it costs no level on
    sweep_warm's three programs and 1 to 47 where every level evicts
    (Hamm at a 512 B SWW 858 vs 857, GradDesc at 2 KB 4,503 vs 4,483,
    at 512 B 6,978 vs 6,931), and ``level_of`` is persisted.

    One O(instructions) pass; constraints on the (unique) future
    evicting instruction are pushed forward as operands are scanned, so
    no reader lists are materialised.  Returns ``level_of``.
    """
    n = len(a_of)
    shift = capacity - n_inputs
    level_of = [0] * n
    ge_level = [0] * n_ges
    ws_min = [0] * n
    for p in range(n):
        a = a_of[p]
        b = b_of[p]
        lvl = ws_min[p]
        if a >= n_inputs:
            la = level_of[a - n_inputs] + 1
            if la > lvl:
                lvl = la
        if b >= n_inputs:
            lb = level_of[b - n_inputs] + 1
            if lb > lvl:
                lvl = lb
        ge = ge_of[p]
        if ge_level[ge] > lvl:
            lvl = ge_level[ge]
        # Evictor after the evicted wire's producer (WAW on the slot):
        # p overwrites the slot written by p - capacity.
        tp = p - capacity
        if tp >= 0 and level_of[tp] >= lvl:
            lvl = level_of[tp] + 1
        ta = a + shift
        tb = b + shift
        # Reader after evictor: don't outrun the overwriter's level.
        if 0 <= ta < p and level_of[ta] > lvl:
            lvl = level_of[ta]
        if 0 <= tb < p and level_of[tb] > lvl:
            lvl = level_of[tb]
        level_of[p] = lvl
        ge_level[ge] = lvl
        # Reader before evictor: the future overwriter waits for us.
        if p < ta < n and lvl >= ws_min[ta]:
            ws_min[ta] = lvl + 1
        if p < tb < n and lvl >= ws_min[tb]:
            ws_min[tb] = lvl + 1
    return level_of


def seed_graph(
    circuit: Circuit,
    graph: DepGraph,
    wire_level_from: Optional[DepGraph] = None,
    gate_level_from: Optional[DepGraph] = None,
    gate_order: Optional[np.ndarray] = None,
) -> DepGraph:
    """Attach a freshly built graph to its circuit's instance memo.

    ``wire_level_from`` transfers the (permutation-invariant) per-wire
    ASAP levels from a source graph over the same wire ids -- the
    reorder passes use it so the whole pipeline levels once -- and, given
    the ``gate_order`` that permuted them, the gate levels as one gather.
    ``gate_level_from`` hands over, on first use, the gate levels of a
    source graph with the same gate order (renaming moves no gate).
    """
    if wire_level_from is not None and "wire_level" in wire_level_from.__dict__:
        graph.__dict__["wire_level"] = wire_level_from.wire_level
        if gate_order is not None and "gate_level_column" in wire_level_from.__dict__:
            level = column_view(wire_level_from.gate_level_column)[gate_order]
            graph.__dict__["gate_level_column"] = int_column(level)
    if gate_level_from is not None and gate_level_from.has_levels:
        graph.__dict__["_gate_level_from"] = gate_level_from
    setattr(circuit, GRAPH_ATTR, graph)
    return graph


def _registry_key(circuit: Circuit) -> tuple:
    return (
        circuit.name, circuit.n_garbler_inputs, circuit.n_evaluator_inputs,
        len(circuit.op), len(circuit.outputs),
    )


def dep_graph(circuit: Circuit, use_registry: bool = True) -> DepGraph:
    """The (memoized) dependence graph of ``circuit``.

    Looks up the circuit-instance memo first, then the registry (equal
    circuits share one graph and all its derived data), and builds --
    which also validates the netlist -- on a full miss.  A registry
    entry whose key matches but whose columns or outputs differ is
    replaced by the new graph.
    """
    cached = getattr(circuit, GRAPH_ATTR, None)
    if cached is not None:
        return cached
    key = _registry_key(circuit) if use_registry else None
    if key is not None:
        with _registry_lock:
            entry = _registry.get(key)
        if entry is not None:
            op, outputs, graph = entry
            if (
                circuit.op == op and circuit.a == graph.a_of
                and circuit.b == graph.b_of and circuit.out == graph.out_of
                and list(circuit.outputs) == outputs
            ):
                setattr(circuit, GRAPH_ATTR, graph)
                return graph
    graph = DepGraph(circuit)
    setattr(circuit, GRAPH_ATTR, graph)
    if key is not None:
        with _registry_lock:
            _registry.pop(key, None)
            if len(_registry) >= _REGISTRY_MAX:
                _registry.pop(next(iter(_registry)))
            _registry[key] = (circuit.op, list(circuit.outputs), graph)
    return graph
