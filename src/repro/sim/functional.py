"""Functional HAAC machine: executes compiler streams with real crypto.

This is the reproduction's analogue of the paper's correctness flow
(section 5): the paper validates its RTL against EMP; we validate the
*compiled streams* against direct garbled-circuit evaluation.  The
machine executes the per-GE instruction streams through a model of the
physical machine state:

* the SWW as a physical scratchpad of ``capacity`` slots addressed by
  ``wire mod capacity`` -- writing a wire overwrites the slot of the wire
  exactly ``capacity`` below, exactly like the sliding hardware window;
* per-GE garbled-table queues popped strictly in stream order;
* per-GE OoRW queues whose pops must match the compiler's address
  stream, with labels fetched from a DRAM image that only contains
  preloaded inputs and *live* write-backs.

Any compiler bug -- wrong OoR classification, missing live bit, bad
renaming, table misorder -- trips an assertion here.  Output labels are
decoded and compared against plaintext evaluation by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuits.netlist import OP_AND
from ..core.isa import HaacOp
from ..core.passes.streams import StreamSet
from ..gc.evaluate import EvaluationResult
from ..gc.garble import Garbler, garble_circuit, garble_circuit_batched
from ..gc.halfgate import eval_and, eval_xor
from ..gc.hashing import GateHasher
from ..gc.labels import lsb

__all__ = ["FunctionalRun", "HaacMachineError", "run_functional"]


class HaacMachineError(AssertionError):
    """A compiled stream violated a hardware invariant."""


@dataclass
class FunctionalRun:
    """Result of one functional execution; counts cover all GEs."""

    output_bits: List[int]
    """Decoded output bits (0/1), in ``program.outputs`` order."""
    output_labels: List[int]
    """Output labels (128-bit ints) read back from DRAM, same order."""
    sww_reads: int
    """Operands read from the SWW: 2 per instruction minus ``oor_pops``."""
    oor_pops: int
    """Operands popped from the OoRW queues (16 B label + 4 B address)."""
    table_pops: int
    """Garbled tables popped: one 32 B table per AND."""
    dram_wire_writes: int
    """Labels written back to DRAM: one 16 B label per live instruction."""
    hash_calls: int
    """Evaluator hash invocations: 2 per AND (one per operand label)."""


@dataclass
class _SwwModel:
    """Physical scratchpad: slot = wire mod capacity."""

    capacity: int
    slots: Dict[int, int] = field(default_factory=dict)  # slot -> wire addr
    labels: Dict[int, int] = field(default_factory=dict)  # slot -> label

    def write(self, wire: int, label: int) -> None:
        slot = wire % self.capacity
        self.slots[slot] = wire
        self.labels[slot] = label

    def read(self, wire: int) -> int:
        slot = wire % self.capacity
        if self.slots.get(slot) != wire:
            raise HaacMachineError(
                f"SWW read of wire {wire}: slot {slot} holds "
                f"{self.slots.get(slot)} (compiler OoR analysis wrong?)"
            )
        return self.labels[slot]


def run_functional(
    streams: StreamSet,
    garbler_bits: Sequence[int],
    evaluator_bits: Sequence[int],
    seed: int = 0,
    garbler: Optional[Garbler] = None,
    gc_backend: Optional[str] = None,
    config=None,
) -> FunctionalRun:
    """Garble the program netlist, then execute the streams as hardware.

    ``garbler_bits``/``evaluator_bits`` are inputs for the program's
    (lowered) netlist -- use :meth:`LoweredCircuit.adapt_inputs` when the
    original circuit had INV gates.

    ``gc_backend`` selects the garbling substrate: ``None`` garbles with
    the per-gate scalar reference, any other value routes through the
    level-batched backend engine -- the stream replay below is
    unaffected either way because both substrates emit bitwise-identical
    labels and tables.  Passing a :class:`~repro.sim.config.HaacConfig`
    as ``config`` defaults ``gc_backend`` from ``config.gc_backend``.
    """
    program = streams.program
    netlist = program.netlist
    if gc_backend is None and config is not None:
        gc_backend = config.gc_backend
    if garbler is None:
        if gc_backend is None:
            garbler = garble_circuit(netlist, seed=seed)
        else:
            garbler = garble_circuit_batched(netlist, seed=seed, backend=gc_backend)
    tables = garbler.garbled.tables
    hasher = GateHasher(rekeyed=garbler.hasher.rekeyed)

    # DRAM image: inputs preloaded; live wires appear as written.
    input_labels = [
        garbler.input_label(wire, bit)
        for wire, bit in zip(
            range(netlist.n_inputs), list(garbler_bits) + list(evaluator_bits)
        )
    ]
    if len(input_labels) != netlist.n_inputs:
        raise ValueError("input bit count does not match the netlist")
    dram: Dict[int, int] = {wire: label for wire, label in enumerate(input_labels)}

    sww = _SwwModel(capacity=streams.window.capacity)
    for wire, label in enumerate(input_labels):
        sww.write(wire, label)

    # Table queues: ANDs of each GE's stream, popped in stream order.
    table_queues: List[List[int]] = []
    for ge in streams.ges:
        queue = [p for p in ge.positions if program.op[p] == HaacOp.AND]
        table_queues.append(queue[::-1])  # pop from the end

    oor_queues: List[List[int]] = [list(ge.oor_addresses)[::-1] for ge in streams.ges]
    ge_cursor = [0] * streams.n_ges

    # Global replay order: the compiler's issue schedule (stable by
    # position for ties), which respects all dependences.
    order = sorted(
        range(len(program.op)),
        key=lambda position: (streams.issue_cycle[position], position),
    )

    sww_reads = 0
    oor_pops = 0
    table_pops = 0
    dram_wire_writes = 0

    # Pre-index each position inside its GE stream for the OoR flags.
    index_in_ge: Dict[int, int] = {}
    for ge_id, ge in enumerate(streams.ges):
        for local_index, position in enumerate(ge.positions):
            index_in_ge[position] = local_index

    for position in order:
        ge_id = streams.ge_of[position]
        ge = streams.ges[ge_id]
        local = index_in_ge[position]
        if local != ge_cursor[ge_id]:
            raise HaacMachineError(
                f"GE {ge_id} executed out of stream order at position {position}"
            )
        ge_cursor[ge_id] += 1
        op = program.op[position]

        operand_labels: List[int] = []
        for wire, is_oor in (
            (netlist.a[position], ge.oor_a_of[position]),
            (netlist.b[position], ge.oor_b_of[position]),
        ):
            if is_oor:
                if not oor_queues[ge_id]:
                    raise HaacMachineError(f"GE {ge_id}: OoRW queue underflow")
                expected = oor_queues[ge_id].pop()
                if expected != wire:
                    raise HaacMachineError(
                        f"GE {ge_id}: OoRW queue head {expected}, needed {wire}"
                    )
                if wire not in dram:
                    raise HaacMachineError(
                        f"OoR wire {wire} missing from DRAM (live bit lost?)"
                    )
                operand_labels.append(dram[wire])
                oor_pops += 1
            else:
                operand_labels.append(sww.read(wire))
                sww_reads += 1

        if op == HaacOp.AND:
            if not table_queues[ge_id]:
                raise HaacMachineError(f"GE {ge_id}: table queue underflow")
            table_position = table_queues[ge_id].pop()
            if table_position != position:
                raise HaacMachineError(
                    f"GE {ge_id}: table for gate {table_position}, needed {position}"
                )
            table_index = _table_index(netlist, position)
            out_label = eval_and(
                operand_labels[0],
                operand_labels[1],
                tables[table_index],
                position,
                hasher,
            )
            table_pops += 1
        elif op == HaacOp.XOR:
            out_label = eval_xor(operand_labels[0], operand_labels[1])
        else:
            continue  # NOP

        out = program.out_addr(position)
        sww.write(out, out_label)
        if program.live[position]:
            dram[out] = out_label
            dram_wire_writes += 1

    for ge_id, queue in enumerate(oor_queues):
        if queue:
            raise HaacMachineError(f"GE {ge_id}: {len(queue)} unconsumed OoR wires")
    for ge_id, queue in enumerate(table_queues):
        if queue:
            raise HaacMachineError(f"GE {ge_id}: {len(queue)} unconsumed tables")

    # Outputs are live (ESW keeps them), so they must be in DRAM.
    output_labels = []
    for wire in program.outputs:
        if wire not in dram:
            raise HaacMachineError(f"output wire {wire} never reached DRAM")
        output_labels.append(dram[wire])
    output_bits = [
        lsb(label) ^ decode
        for label, decode in zip(output_labels, garbler.garbled.decode_bits)
    ]
    return FunctionalRun(
        output_bits=output_bits,
        output_labels=output_labels,
        sww_reads=sww_reads,
        oor_pops=oor_pops,
        table_pops=table_pops,
        dram_wire_writes=dram_wire_writes,
        hash_calls=hasher.calls,
    )


def _table_index(netlist, position: int) -> int:
    """Index of gate ``position``'s table in the garbler's table list.

    Tables are emitted per AND gate in netlist order; cache the prefix
    count on the netlist object.
    """
    cache = getattr(netlist, "_and_prefix_cache", None)
    if cache is None:
        cache = []
        count = 0
        for code in netlist.op:
            cache.append(count)
            if code == OP_AND:
                count += 1
        netlist._and_prefix_cache = cache
    return cache[position]
