"""Shared fixtures for the HAAC reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import Circuit, Gate, GateOp
from repro.circuits.stdlib.integer import add, less_than, mul
from repro.core.compiler import OptLevel, compile_circuit
from repro.sim.config import HaacConfig


def circuit_from_gates(
    n_garbler_inputs: int,
    n_evaluator_inputs: int,
    gates,
    outputs,
    name: str = "circuit",
) -> Circuit:
    """A validated netlist from a gate list."""
    circuit = Circuit(
        n_garbler_inputs, n_evaluator_inputs, list(outputs), gates, name
    )
    circuit.validate()
    return circuit


def entry_count(store) -> int:
    """Entry files in ``store``'s directory, whatever their state."""
    return len(store._entry_paths())


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DE)


@pytest.fixture
def tiny_circuit() -> Circuit:
    """(a AND b) XOR (NOT a) -- one of each gate type."""
    gates = [
        Gate(GateOp.AND, 0, 1, 2),
        Gate(GateOp.INV, 0, -1, 3),
        Gate(GateOp.XOR, 2, 3, 4),
    ]
    return circuit_from_gates(1, 1, gates, [4], "tiny")


@pytest.fixture
def adder_circuit() -> Circuit:
    """8-bit adder: a realistic mixed AND/XOR circuit."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(8)
    ys = builder.add_evaluator_inputs(8)
    builder.mark_outputs(add(builder, xs, ys))
    return builder.build("adder8")


@pytest.fixture
def mixed_circuit() -> Circuit:
    """Adder + comparator + multiplier mix, ~700 gates."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(8)
    ys = builder.add_evaluator_inputs(8)
    total = add(builder, xs, ys)
    product = mul(builder, xs, ys)
    builder.mark_outputs(total)
    builder.mark_outputs(product)
    builder.mark_outputs([less_than(builder, xs, ys)])
    return builder.build("mixed8")


@pytest.fixture
def wide_circuit() -> Circuit:
    """211 evaluator inputs -- past the OT-extension threshold and not a
    multiple of 8 -- each ANDed with a garbler bit, so every OT label
    decides an output bit."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(211)
    ys = builder.add_evaluator_inputs(211)
    builder.mark_outputs([builder.AND(x, y) for x, y in zip(xs, ys)])
    return builder.build("wide211")


def random_circuit(
    rng: random.Random,
    n_inputs: int = 8,
    n_gates: int = 64,
    and_fraction: float = 0.4,
    inv_fraction: float = 0.1,
) -> Circuit:
    """Random well-formed circuit for property tests."""
    gates = []
    n_wires = n_inputs
    for _ in range(n_gates):
        roll = rng.random()
        a = rng.randrange(n_wires)
        if roll < inv_fraction:
            gates.append(Gate(GateOp.INV, a, -1, n_wires))
        else:
            b = rng.randrange(n_wires)
            op = GateOp.AND if roll < inv_fraction + and_fraction else GateOp.XOR
            gates.append(Gate(op, a, b, n_wires))
        n_wires += 1
    n_outputs = max(1, n_gates // 8)
    outputs = [n_wires - 1 - i for i in range(n_outputs)]
    half = n_inputs // 2
    return circuit_from_gates(half, n_inputs - half, gates, outputs, "random")


@pytest.fixture
def level_replays(monkeypatch):
    """Row counts of every level replay the numpy sim engine runs (a
    config at its compile's latencies runs none)."""
    import repro.sim.engine as engine

    rows = []
    replay = engine._level_replay

    def spy(arrays, keys):
        rows.append(len(keys))
        return replay(arrays, keys)

    monkeypatch.setattr(engine, "_level_replay", spy)
    return rows


@pytest.fixture
def small_config() -> HaacConfig:
    """4 GEs with a deliberately tiny SWW so windows slide in tests."""
    return HaacConfig(n_ges=4, sww_bytes=64 * 16)


def compile_all_levels(circuit, config):
    """Compile a circuit at every optimization level."""
    return {
        opt: compile_circuit(
            circuit, config.window, config.n_ges, opt=opt,
            params=config.schedule_params(),
        )
        for opt in OptLevel
    }
