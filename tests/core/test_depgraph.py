"""Property tests for the shared dependence-graph IR (DESIGN.md 13).

:mod:`repro.core.depgraph` replaced three independent derivations of
the same dependence structure -- the netlist's ASAP levels, the
per-wire reader walks and the engine's level partition.  Each test here pins one graph field against the legacy
derivation it replaced (re-implemented locally where the production
code no longer has it), across every small stdlib family and -- where
the compiled schedule matters -- every optimization level, so the
single-IR refactor cannot silently drift any consumer.

The schema tests at the bottom pin the cache-format consequence: a
graph-less CACHE_SCHEMA-3 entry is stale, counted by ``scan()`` and
deleted by ``repro store prune``.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from functools import lru_cache

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import OP_INV, Circuit, CircuitError, Gate, GateOp
from repro.circuits.stdlib import fixed, integer, logic
from repro.circuits.stdlib.float import FloatFormat, fp_add
from repro.core import progcache
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.depgraph import (
    DepGraph,
    build_counts,
    clear_registry,
    dep_graph,
    seed_graph,
)
from repro.core.passes.rename import rename
from repro.core.passes.reorder import (
    _producer_column,
    depth_first_order,
    full_reorder,
    level_reorder,
    segment_reorder,
)
from repro.core.sww import SlidingWindow
from repro.sim.config import HaacConfig
from tests.circuits.test_netlist import MALFORMED, malformed_circuit


def _logic8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(logic.popcount(b, logic.bitwise_and(b, xs, ys)))
    b.mark_outputs([logic.equals(b, xs, ys), logic.parity(b, xs)])
    b.mark_outputs(logic.mux(b, logic.any_bit(b, ys), xs, ys))
    return b.build("logic8")


def _adder8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(integer.add(b, xs, ys))
    return b.build("adder8")


def _integer8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(integer.sub(b, xs, ys))
    b.mark_outputs(integer.mul(b, xs, ys))
    b.mark_outputs([integer.less_than(b, xs, ys)])
    return b.build("integer8")


def _fixed8():
    b = CircuitBuilder()
    fmt = fixed.FixedFormat(width=8, fraction_bits=3)
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(fixed.fx_mul(b, fmt, xs, ys))
    return b.build("fixed8")


def _float8():
    b = CircuitBuilder()
    fmt = FloatFormat(exponent_bits=4, mantissa_bits=3)
    xs = b.add_garbler_inputs(fmt.width)
    ys = b.add_evaluator_inputs(fmt.width)
    b.mark_outputs(fp_add(b, fmt, xs, ys))
    return b.build("float8")


STDLIB_FAMILIES = {
    "logic8": _logic8,
    "adder8": _adder8,
    "integer8": _integer8,
    "fixed8": _fixed8,
    "float8": _float8,
}

ALL_OPTS = list(OptLevel)

#: Deliberately tiny SWW (64 wires) so windows slide and the
#: window-sync edges of the level partition are actually exercised.
SWW_BYTES = 64 * 16


@lru_cache(maxsize=None)
def _circuit(family: str) -> Circuit:
    return STDLIB_FAMILIES[family]()


@lru_cache(maxsize=None)
def _compiled(family: str, opt: OptLevel):
    config = HaacConfig(n_ges=4, sww_bytes=SWW_BYTES)
    result = compile_circuit(
        _circuit(family), config.window, config.n_ges,
        opt=opt, params=config.schedule_params(),
    )
    return result, config


# ----------------------------------------------------------------------
# Legacy derivations (what the graph replaced), re-implemented here
# ----------------------------------------------------------------------


def _legacy_readers(circuit: Circuit):
    """Per-wire reader positions via the old dict-of-lists walk."""
    readers = defaultdict(list)
    for position, gate in enumerate(circuit.gates):
        for wire in gate.inputs():
            readers[wire].append(position)
    return readers


def _reference_engine_levels(n_inputs, capacity, a_of, b_of, ge_of, n_ges):
    """Materialised-reader-list leveler: same edges, different algorithm.

    The production :func:`~repro.core.depgraph.engine_levels` pushes the
    reader-before-evictor constraint forward in one pass; this reference
    builds explicit reader lists and looks every constraint up directly,
    so agreement is evidence about the *edges*, not the implementation.
    """
    n = len(a_of)
    readers = defaultdict(list)
    for p in range(n):
        readers[a_of[p]].append(p)
        if b_of[p] >= 0:
            readers[b_of[p]].append(p)
    level_of = [0] * n
    ge_level = [0] * n_ges
    for p in range(n):
        lvl = ge_level[ge_of[p]]
        for wire in (a_of[p], b_of[p]):
            if wire >= n_inputs:
                lvl = max(lvl, level_of[wire - n_inputs] + 1)
            if wire >= 0:
                # Reader after evictor: an OoR read must not land in an
                # earlier level than the instruction that evicted it.
                evictor = wire + capacity - n_inputs
                if 0 <= evictor < p:
                    lvl = max(lvl, level_of[evictor])
        evicted = n_inputs + p - capacity
        if evicted >= 0:
            if evicted >= n_inputs:
                # WAW on the slot: strictly after the evicted producer.
                lvl = max(lvl, level_of[evicted - n_inputs] + 1)
            for reader in readers[evicted]:
                # Strictly after every earlier reader of the evicted wire.
                if reader < p:
                    lvl = max(lvl, level_of[reader] + 1)
        level_of[p] = lvl
        ge_level[ge_of[p]] = lvl
    return level_of, (max(level_of) + 1) if n else 0


# ----------------------------------------------------------------------
# Graph fields vs legacy derivations, per stdlib family
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(STDLIB_FAMILIES))
class TestGraphMatchesLegacy:
    def test_wire_and_gate_levels(self, family):
        circuit = _circuit(family)
        graph = dep_graph(circuit)
        assert graph.wire_level == circuit.wire_levels()
        assert list(graph.gate_level_column) == circuit.gate_levels()

    def test_reader_adjacency(self, family):
        circuit = _circuit(family)
        graph = dep_graph(circuit)
        legacy = _legacy_readers(circuit)
        expected_last = [
            legacy[wire][-1] if wire in legacy else -1
            for wire in range(circuit.n_wires)
        ]
        assert list(graph.last_reader) == expected_last

    def test_producer_index(self, family):
        # The depth-first pass's producer column, with its INV sentinel.
        circuit = _circuit(family)
        index = _producer_column(dep_graph(circuit)).tolist()
        for position, gate in enumerate(circuit.gates):
            assert index[gate.out] == position
        assert index[: circuit.n_inputs] == [-1] * circuit.n_inputs
        assert len(index) == circuit.n_wires + 1 and index[-1] == -1

    def test_operand_arrays_mirror_gates(self, family):
        circuit = _circuit(family)
        graph = dep_graph(circuit)
        for position, gate in enumerate(circuit.gates):
            assert graph.a_of[position] == gate.a
            assert graph.b_of[position] == gate.b
            assert graph.out_of[position] == gate.out
            assert graph.is_and[position] == (gate.op is GateOp.AND)


# ----------------------------------------------------------------------
# Compiled (renamed) graphs, per family x opt level
# ----------------------------------------------------------------------


@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda opt: opt.value)
@pytest.mark.parametrize("family", sorted(STDLIB_FAMILIES))
class TestCompiledGraphs:
    def test_streams_carry_the_renamed_graph(self, family, opt):
        result, _ = _compiled(family, opt)
        graph = result.streams.depgraph
        assert graph is not None
        assert graph.renamed
        netlist = result.program.netlist
        assert graph is dep_graph(netlist)
        # The graph adopts the netlist's columns by reference ...
        assert graph.a_of is netlist.a and graph.b_of is netlist.b
        assert graph.out_of is netlist.out
        # ... and they read the same through the public Gate view.
        assert list(graph.a_of) == [gate.a for gate in netlist.gates]
        assert list(graph.b_of) == [gate.b for gate in netlist.gates]
        assert list(graph.is_and) == [
            gate.op is GateOp.AND for gate in netlist.gates
        ]

    def test_engine_levels_match_reference(self, family, opt):
        result, _ = _compiled(family, opt)
        streams, graph = result.streams, result.streams.depgraph
        expected = _reference_engine_levels(
            graph.n_inputs, streams.window.capacity, graph.a_of, graph.b_of,
            streams.ge_of, streams.n_ges,
        )
        assert (list(streams.level_of), streams.n_levels) == expected

    def test_oor_flags_match_window_arithmetic(self, family, opt):
        result, config = _compiled(family, opt)
        graph = result.streams.depgraph
        window = SlidingWindow.from_bytes(SWW_BYTES)
        oor_a, oor_b = graph.oor_flags(window.capacity)
        for position in range(graph.n_gates):
            out = graph.n_inputs + position
            assert oor_a[position] == window.is_oor(graph.a_of[position], out)
            b = graph.b_of[position]
            assert oor_b[position] == (b >= 0 and window.is_oor(b, out))


# ----------------------------------------------------------------------
# Memoization, seeding and persistence
# ----------------------------------------------------------------------


class TestMemoization:
    def test_instance_memo_returns_same_object(self):
        circuit = _adder8()
        assert dep_graph(circuit) is dep_graph(circuit)

    def test_registry_shares_graphs_across_equal_instances(self):
        clear_registry()
        first, second = _adder8(), _adder8()
        assert first is not second
        before = build_counts()["graphs"]
        graph = dep_graph(first)
        assert dep_graph(second) is graph
        assert build_counts()["graphs"] - before == 1

    def test_registry_opt_out_builds_fresh(self):
        clear_registry()
        first, second = _adder8(), _adder8()
        assert dep_graph(first, use_registry=False) is not dep_graph(
            second, use_registry=False
        )

    @staticmethod
    def _changed_adder8(change: str) -> Circuit:
        circuit = _adder8()
        if change == "name":
            circuit.name = "adder8-renamed"
        elif change == "operand":
            circuit.b[-1] = circuit.a[-1]
        else:
            outputs = circuit.outputs
            circuit.outputs = [outputs[1], outputs[0], *outputs[2:]]
        return circuit

    @pytest.mark.parametrize("change", ["name", "operand", "output"])
    def test_registry_tells_near_equal_circuits_apart(self, change):
        """The registry key is the name and the counts; a key hit shares
        the graph only for equal columns and outputs.  A mismatch
        replaces the entry: the next equal circuit shares the new graph."""
        clear_registry()
        graph = dep_graph(_adder8())
        changed = dep_graph(self._changed_adder8(change))
        assert changed is not graph
        assert dep_graph(self._changed_adder8(change)) is changed

    def test_cache_off_compile_computes_no_digest(self, monkeypatch):
        """Only a compile key (cache on) digests the circuit; the graph
        registry compares columns instead."""
        def refuse(circuit):
            raise AssertionError("circuit_digest called on a cache-off compile")

        monkeypatch.setattr(progcache, "circuit_digest", refuse)
        clear_registry()
        config = HaacConfig(n_ges=4, sww_bytes=SWW_BYTES)
        for opt in OptLevel:
            compile_circuit(
                _integer8(), config.window, config.n_ges, opt=opt,
                params=config.schedule_params(), cache=False,
            )

    @pytest.mark.parametrize("opt", [OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW])
    def test_cold_reordering_compile_builds_three_graphs(self, opt):
        """The lowered input's, the once-permuted netlist's and the
        renamed program's: no graph of an intermediate depth-first
        netlist."""
        clear_registry()
        circuit = _adder8()
        assert OP_INV not in circuit.op  # lowering returns it unchanged
        config = HaacConfig(n_ges=4, sww_bytes=SWW_BYTES)
        before = build_counts()["graphs"]
        compile_circuit(
            circuit, config.window, config.n_ges, opt=opt,
            params=config.schedule_params(), cache=False,
        )
        assert build_counts()["graphs"] - before == 3

    def test_derivations_run_once_per_graph(self):
        graph = DepGraph(_adder8())
        before = build_counts()
        for _ in range(3):
            graph.wire_level, graph.gate_level_column
        after = build_counts()
        assert after["levels"] - before["levels"] == 1

    def test_seed_graph_transfers_wire_levels(self):
        circuit = _adder8()
        source = DepGraph(circuit)
        source.wire_level  # force the derivation on the source
        seeded = seed_graph(circuit, DepGraph(circuit), wire_level_from=source)
        before = build_counts()["levels"]
        assert seeded.wire_level is source.wire_level
        assert build_counts()["levels"] == before  # no recomputation

    def test_rename_hands_over_gate_levels(self):
        """Renaming keeps positions: the renamed graph reads its source's
        gate levels (on first use) instead of levelling again."""
        clear_registry()
        reordered = full_reorder(_adder8())
        source = dep_graph(reordered)
        renamed = dep_graph(rename(reordered))
        before = build_counts()["levels"]
        assert renamed.has_levels
        assert list(renamed.gate_level_column) == list(source.gate_level_column)
        assert renamed.gate_level_column is source.gate_level_column
        assert build_counts()["levels"] == before

    @pytest.mark.parametrize("segment_size", [None, 5])
    def test_level_reorder_hands_over_gate_levels(self, segment_size):
        """A level reorder gathers its source's gate levels into the
        permuted graph, equal to levelling the reordered netlist afresh."""
        clear_registry()
        circuit = _adder8()
        if segment_size is None:
            reordered = full_reorder(circuit)
        else:
            reordered = segment_reorder(circuit, segment_size)
        graph = dep_graph(reordered)
        assert "gate_level_column" in graph.__dict__
        assert list(graph.gate_level_column) == reordered.gate_levels()

    @pytest.mark.parametrize("family", sorted(STDLIB_FAMILIES))
    @pytest.mark.parametrize("segment_size", [None, 1, 5, 64])
    def test_level_reorder_is_the_two_passes(self, family, segment_size):
        """One permutation equals the depth-first pass followed by the
        full or segment reorder: columns, outputs, name and levels."""
        clear_registry()
        staged = depth_first_order(_circuit(family))
        if segment_size is None:
            staged = full_reorder(staged)
        else:
            staged = segment_reorder(staged, segment_size)
        clear_registry()
        fused = level_reorder(_circuit(family), segment_size)
        for column in ("op", "a", "b", "out", "outputs", "name"):
            assert getattr(fused, column) == getattr(staged, column)
        assert list(dep_graph(fused).gate_level_column) == fused.gate_levels()

    def test_unlevelled_order_hands_over_nothing(self):
        clear_registry()
        renamed = dep_graph(rename(depth_first_order(_adder8())))
        assert not renamed.has_levels

    def test_one_level_pass_per_cold_compile(self):
        """The reorder pipeline levels once; permutations reuse it."""
        clear_registry()
        config = HaacConfig(n_ges=4, sww_bytes=SWW_BYTES)
        before = build_counts()["levels"]
        compile_circuit(
            _adder8(), config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
        )
        assert build_counts()["levels"] - before == 1

    def test_pickle_round_trip_renamed(self):
        result, _ = _compiled("adder8", OptLevel.RO_RN_ESW)
        graph = result.streams.depgraph
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.out_of == graph.out_of
        assert clone.a_of == graph.a_of and clone.b_of == graph.b_of
        assert clone.renamed and clone.n_wires == graph.n_wires
        assert clone.wire_level == graph.wire_level

    def test_memo_attr_dropped_on_circuit_pickle(self):
        circuit = _adder8()
        dep_graph(circuit)
        clone = pickle.loads(pickle.dumps(circuit))
        assert getattr(clone, "_depgraph_cache", None) is None


# ----------------------------------------------------------------------
# Construction is validation
# ----------------------------------------------------------------------


class TestValidationWitness:
    def _invalid(self, gates, n_inputs=2, outputs=(2,)):
        # Bypass circuit_from_gates (which validates eagerly) to hand the graph
        # a malformed netlist directly.
        return Circuit(
            n_garbler_inputs=n_inputs, n_evaluator_inputs=0,
            outputs=list(outputs), gates=gates, name="bad",
        )

    def test_read_before_defined(self):
        circuit = self._invalid([
            Gate(GateOp.XOR, 0, 3, 2),  # reads wire 3 before gate 1 makes it
            Gate(GateOp.AND, 0, 1, 3),
        ])
        with pytest.raises(CircuitError, match="before it is defined"):
            DepGraph(circuit)

    def test_out_of_bounds_wire(self):
        circuit = self._invalid([Gate(GateOp.XOR, 0, 9, 2)])
        with pytest.raises(CircuitError, match="n_wires"):
            DepGraph(circuit)

    def test_ssa_violation(self):
        circuit = self._invalid([
            Gate(GateOp.XOR, 0, 1, 2),
            Gate(GateOp.AND, 0, 1, 2),
        ])
        with pytest.raises(CircuitError, match="defined twice"):
            DepGraph(circuit)

    def test_input_overwrite(self):
        circuit = self._invalid([Gate(GateOp.XOR, 0, 1, 1)])
        with pytest.raises(CircuitError, match="overwrites input"):
            DepGraph(circuit)

    def test_undefined_output(self):
        circuit = self._invalid([Gate(GateOp.XOR, 0, 1, 2)], outputs=(9,))
        with pytest.raises(CircuitError, match="output wire"):
            DepGraph(circuit)

    @pytest.mark.parametrize(
        "outputs,op,a,b,out,message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_same_checker_as_circuit_validate(
        self, outputs, op, a, b, out, message
    ):
        with pytest.raises(CircuitError, match=message):
            DepGraph(malformed_circuit(outputs, op, a, b, out))

    def test_unused_wires_tracked(self):
        # A never-read gate output still appears, with last_reader -1
        # (the ESW spent-wire case).
        circuit = self._invalid(
            [Gate(GateOp.XOR, 0, 1, 2), Gate(GateOp.AND, 0, 1, 3)],
            outputs=(3,),
        )
        graph = DepGraph(circuit)
        assert graph.last_reader[2] == -1

    def test_window_analyses_require_renamed_form(self):
        # Valid but non-renamed (out-of-order output ids).
        circuit = Circuit(
            n_garbler_inputs=2, n_evaluator_inputs=0, outputs=[2, 3],
            gates=[Gate(GateOp.XOR, 0, 1, 3), Gate(GateOp.AND, 0, 3, 2)],
            name="unrenamed",
        )
        graph = DepGraph(circuit)
        assert not graph.renamed
        with pytest.raises(CircuitError, match="renamed"):
            graph.oor_flags(64)


# ----------------------------------------------------------------------
# Cache-schema consequence: v3 entries (no graph, no tie-break axis),
# v4 entries (object graphs instead of columns) and v5 entries (a
# separate engine-array object, list schedule columns)
# ----------------------------------------------------------------------


def test_schema_is_v6():
    from repro.core.progcache import CACHE_SCHEMA

    assert CACHE_SCHEMA == 6


@pytest.mark.parametrize("old_schema", [3, 4, 5])
class TestOldSchemaStaleness:
    """CACHE_SCHEMA v6 entries pickle the stream set's narrow columns
    and its level partition; anything written under v3 (no graph, no
    tie-break axis), v4 (per-gate object graphs) or v5 (a separate
    engine-array object) is unreachable and must census as stale and be
    deleted by ``repro store prune``."""

    def _store_with_old_entry(self, tmp_path, old_schema):
        from repro.core.progcache import ProgramCache

        config = HaacConfig(n_ges=4, sww_bytes=SWW_BYTES)
        store = ProgramCache(tmp_path)
        result = compile_circuit(
            _adder8(), config.window, config.n_ges,
            opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
            cache=store,
        )
        old_key = "ab" * 32
        (tmp_path / f"{old_key}.pkl").write_bytes(pickle.dumps({
            "schema": old_schema, "key": old_key, "result": result,
        }))
        return store

    def test_old_entry_classified_stale(self, tmp_path, old_schema):
        store = self._store_with_old_entry(tmp_path, old_schema)
        census = store.scan()
        assert census.live == 1
        assert census.stale == 1
        assert census.corrupt == 0

    def test_cli_prune_removes_old_entry(self, tmp_path, capsys, old_schema):
        from repro.cli import main

        store = self._store_with_old_entry(tmp_path, old_schema)
        assert main(["store", "prune", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale-schema and 0 corrupt entries" in out
        after = store.scan()
        assert (after.live, after.stale, after.corrupt) == (1, 0, 0)
