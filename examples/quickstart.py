#!/usr/bin/env python3
"""Quickstart: Yao's millionaires' problem, end to end.

Two parties learn who is richer without revealing their wealth:

1. build the comparison circuit with the builder DSL;
2. run the *real* two-party GC protocol (garbling, oblivious transfer,
   evaluation) level-streamed over the in-memory framed transport;
3. compile the same circuit with the HAAC compiler and execute the
   compiled streams on the functional HAAC machine -- same answer,
   hardware semantics;
4. estimate the accelerator's speedup over a CPU with the timing model.

Run:  python examples/quickstart.py
"""

from repro.baselines.cpu_model import DEFAULT_CPU
from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import encode_int, less_than
from repro.core.compiler import OptLevel, compile_circuit
from repro.gc.protocol import run_two_party
from repro.sim.config import HaacConfig
from repro.sim.functional import run_functional
from repro.sim.timing import simulate


def build_millionaires_circuit(width: int = 32):
    """Output bit = 1 iff Bob's wealth < Alice's wealth."""
    builder = CircuitBuilder()
    alice = builder.add_garbler_inputs(width)
    bob = builder.add_evaluator_inputs(width)
    builder.mark_outputs([less_than(builder, bob, alice)])
    return builder.build("millionaires")


def main() -> None:
    width = 32
    alice_wealth = 4_200_000
    bob_wealth = 3_700_000
    circuit = build_millionaires_circuit(width)
    print(f"Millionaires' circuit: {len(circuit.gates)} gates "
          f"({circuit.stats().and_gates} AND)")

    # -- 1. The real cryptographic protocol ---------------------------
    alice_bits = encode_int(alice_wealth, width)
    bob_bits = encode_int(bob_wealth, width)
    session = run_two_party(circuit, alice_bits, bob_bits, seed=2023)
    richer = "Alice" if session.output_bits[0] else "Bob (or tie)"
    print(f"[protocol] richer party: {richer}")
    tables = session.traffic["garbler->evaluator:tables"]
    print(f"[protocol] bytes on the wire: {session.total_bytes} "
          f"(tables: {tables} B framed, {32 * session.and_gates} B of "
          f"garbled tables over {session.streamed_levels} AND levels)")

    # -- 2. The same circuit through the HAAC toolchain ---------------
    config = HaacConfig(n_ges=4, sww_bytes=64 * 1024)
    compiled = compile_circuit(
        circuit, config.window, config.n_ges,
        opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
    )
    g2, e2 = compiled.lowered.adapt_inputs(alice_bits, bob_bits)
    machine = run_functional(compiled.streams, g2, e2, seed=2023)
    assert machine.output_bits == session.output_bits
    print(f"[haac] functional machine agrees: output={machine.output_bits}")
    print(f"[haac] passes: {', '.join(compiled.program.applied_passes)}")

    # -- 3. How fast would the accelerator be? ------------------------
    sim = simulate(compiled.streams, config)
    cpu_time = DEFAULT_CPU.eval_time_for(circuit)
    print(f"[timing] HAAC runtime: {sim.runtime_s * 1e6:.3f} us "
          f"({'memory' if sim.memory_bound else 'compute'}-bound)")
    print(f"[timing] EMP-on-CPU model: {cpu_time * 1e6:.1f} us "
          f"-> speedup {cpu_time / sim.runtime_s:.0f}x")


if __name__ == "__main__":
    main()
