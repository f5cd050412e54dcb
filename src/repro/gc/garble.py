"""Whole-circuit garbling (Alice / the Garbler).

Garbling is the offline phase: the Garbler draws the global offset R and
one label pair per input wire, then walks the netlist in topological
order producing (a) a 32-byte garbled table per AND gate and (b) the
zero-label of every internal wire.  XOR and INV are free (no table, no
hashing).  Output decoding information is the permute bit of each output
wire's zero-label.

Two execution strategies produce bitwise-identical results:

* :func:`garble_circuit` -- the per-gate reference walk;
* :func:`garble_circuit_batched` -- a level-scheduled walk that FreeXORs
  a whole dependence level at once and hashes every AND gate of a level
  in one :mod:`repro.gc.backends` call (vectorized when NumPy is
  present).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..circuits.netlist import OP_AND, OP_XOR, Circuit
from .halfgate import GarbledTable, garble_and, garble_not, garble_xor
from .hashing import GateHasher
from .labels import lsb
from .rng import LabelPrg

__all__ = [
    "GarbledCircuit",
    "Garbler",
    "garble_circuit",
    "garble_circuit_batched",
    "garble_level",
]


@dataclass
class GarbledCircuit:
    """Everything the Garbler ships to the Evaluator (minus input labels).

    ``tables`` holds one entry per AND gate in netlist order -- exactly
    the stream HAAC's table queues consume.  ``decode_bits`` maps each
    circuit output to the permute bit of its zero-label so the Evaluator
    can decode its result.
    """

    tables: List[GarbledTable]
    decode_bits: List[int]
    n_and_gates: int

    def table_bytes(self) -> int:
        """Total garbled-table traffic in bytes (32 B per AND gate)."""
        return 32 * len(self.tables)


@dataclass
class Garbler:
    """Holds the Garbler's secrets for one circuit execution.

    Attributes
    ----------
    r:
        The FreeXOR global offset (lsb = 1).
    zero_labels:
        ``zero_labels[w]`` is W_w^0 for every wire ``w``.
    hasher:
        The gate hash with call accounting (re-keyed by default, as HAAC
        mandates).
    """

    circuit: Circuit
    r: int
    zero_labels: List[int]
    hasher: GateHasher
    garbled: GarbledCircuit = field(init=False)

    def input_label(self, wire: int, bit: int) -> int:
        """The label encoding ``bit`` on input wire ``wire``."""
        if wire >= self.circuit.n_inputs:
            raise ValueError(f"wire {wire} is not a primary input")
        return self.zero_labels[wire] ^ (self.r if bit else 0)

    def input_labels_for(self, wires: Sequence[int], bits: Sequence[int]) -> List[int]:
        if len(wires) != len(bits):
            raise ValueError("wires and bits must align")
        return [self.input_label(w, b) for w, b in zip(wires, bits)]

    def decode(self, output_labels: Sequence[int]) -> List[int]:
        """Decode output labels to plaintext bits using the decode map."""
        bits = []
        for wire, label in zip(self.circuit.outputs, output_labels):
            bits.append(lsb(label) ^ lsb(self.zero_labels[wire]))
        return bits

    def wire_label(self, wire: int, bit: int) -> int:
        """Label of any wire for a given plaintext bit (test hook)."""
        return self.zero_labels[wire] ^ (self.r if bit else 0)


def garble_circuit(
    circuit: Circuit, seed: int = 0, rekeyed: bool = True
) -> Garbler:
    """Garble ``circuit`` deterministically from ``seed``.

    Gate indices used as hash tweaks are the gate's position in the
    netlist, matching HAAC's implicit instruction-position addressing.
    """
    circuit.validate()
    prg = LabelPrg(seed)
    r = prg.next_odd_block()
    hasher = GateHasher(rekeyed=rekeyed)

    zero_labels = [0] * circuit.n_wires
    for wire in range(circuit.n_inputs):
        zero_labels[wire] = prg.next_block()

    tables: List[GarbledTable] = []
    for gate_index, (op, a, b, out) in enumerate(
        zip(circuit.op, circuit.a, circuit.b, circuit.out)
    ):
        if op == OP_AND:
            out_zero, table = garble_and(
                zero_labels[a], zero_labels[b], r, gate_index, hasher
            )
            zero_labels[out] = out_zero
            tables.append(table)
        elif op == OP_XOR:
            zero_labels[out] = garble_xor(zero_labels[a], zero_labels[b])
        else:  # INV
            zero_labels[out] = garble_not(zero_labels[a], r)

    decode_bits = [lsb(zero_labels[w]) for w in circuit.outputs]
    garbler = Garbler(circuit=circuit, r=r, zero_labels=zero_labels, hasher=hasher)
    garbler.garbled = GarbledCircuit(
        tables=tables,
        decode_bits=decode_bits,
        n_and_gates=len(tables),
    )
    return garbler


# ---------------------------------------------------------------------------
# Level-scheduled batched garbling
# ---------------------------------------------------------------------------


def garble_circuit_batched(
    circuit: Circuit,
    seed: int = 0,
    rekeyed: bool = True,
    backend: Optional[Union[str, "object"]] = None,
) -> Garbler:
    """Garble ``circuit`` level by level with a batch hash backend.

    Bitwise-identical to :func:`garble_circuit` for the same ``seed``:
    the PRG draws (R, then one label per input wire) happen in the same
    order, gate tweaks are still netlist positions, and every backend
    reproduces the scalar hash exactly.  Only the *schedule* changes:
    gates are processed per multiplicative depth
    (:meth:`Circuit.and_level_schedule`), all AND gates of a depth go
    through one backend hash call (4 hashes per gate) and, on vectorized
    backends, the free XOR/INV groups collapse into bulk array XORs.

    ``backend`` is a backend name, instance, or ``None`` (environment /
    auto selection; falls back to the scalar reference without NumPy).
    """
    from .backends import resolve_backend

    resolved = resolve_backend(backend)
    circuit.validate()
    prg = LabelPrg(seed)
    r = prg.next_odd_block()
    hasher = GateHasher(rekeyed=rekeyed)
    input_labels = [prg.next_block() for _ in range(circuit.n_inputs)]

    if getattr(resolved, "vectorized", False):
        zero_labels, tables = _garble_levels_vectorized(
            circuit, input_labels, r, rekeyed, resolved, hasher
        )
    else:
        zero_labels = input_labels + [0] * len(circuit.op)
        table_by_pos: Dict[int, GarbledTable] = {}
        for and_positions, free_groups in circuit.and_level_schedule():
            rows = garble_level(
                circuit, zero_labels, r, and_positions, free_groups,
                rekeyed, resolved, hasher,
            )
            for position, t_g, t_e in zip(and_positions, rows[0::2], rows[1::2]):
                table_by_pos[position] = GarbledTable(t_g, t_e)
        tables = [table_by_pos[position] for position in sorted(table_by_pos)]

    decode_bits = [lsb(zero_labels[w]) for w in circuit.outputs]
    garbler = Garbler(circuit=circuit, r=r, zero_labels=zero_labels, hasher=hasher)
    garbler.garbled = GarbledCircuit(
        tables=tables,
        decode_bits=decode_bits,
        n_and_gates=len(tables),
    )
    return garbler


def garble_level(
    circuit: Circuit,
    zero: List[int],
    r: int,
    and_positions: List[int],
    free_groups: List[List[int]],
    rekeyed: bool,
    backend,
    hasher: GateHasher,
) -> List[int]:
    """Garble one phase of :meth:`Circuit.and_level_schedule` over
    Python-int labels: the AND batch in one ``backend.hash_labels`` call,
    then the phase's free XOR/INV groups.

    ``zero`` (the zero-label of every wire) is updated in place.  Returns
    the batch's table rows flat, ``[generator_row, evaluator_row]`` per
    gate in ``and_positions`` order.  This is the one int-label garbling
    kernel: the streamed :class:`~repro.gc.roles.GarblerRole` ships each
    call's rows as a ``tables`` message, :func:`garble_circuit_batched`
    loops it over the whole schedule.
    """
    op_of, a_of, b_of, out_of = circuit.op, circuit.a, circuit.b, circuit.out
    rows: List[int] = []
    if and_positions:
        labels: List[int] = []
        tweaks: List[int] = []
        for position in and_positions:
            wa0 = zero[a_of[position]]
            wb0 = zero[b_of[position]]
            j_g = 2 * position
            labels.extend((wa0, wa0 ^ r, wb0, wb0 ^ r))
            tweaks.extend((j_g, j_g, j_g + 1, j_g + 1))
        hashes = backend.hash_labels(labels, tweaks, rekeyed)
        hasher.record_batch(len(labels))
        for index, position in enumerate(and_positions):
            h_a0, h_a1, h_b0, h_b1 = hashes[4 * index : 4 * index + 4]
            wa0 = zero[a_of[position]]
            wb0 = zero[b_of[position]]
            t_g = h_a0 ^ h_a1 ^ (r if wb0 & 1 else 0)
            w_g0 = h_a0 ^ (t_g if wa0 & 1 else 0)
            t_e = h_b0 ^ h_b1 ^ wa0
            w_e0 = h_b0 ^ ((t_e ^ wa0) if wb0 & 1 else 0)
            zero[out_of[position]] = w_g0 ^ w_e0
            rows.extend((t_g, t_e))
    for group in free_groups:
        for position in group:
            if op_of[position] == OP_XOR:
                zero[out_of[position]] = (
                    zero[a_of[position]] ^ zero[b_of[position]]
                )
            else:  # INV
                zero[out_of[position]] = zero[a_of[position]] ^ r
    return rows


def _vector_plan(circuit: Circuit):
    """Precompiled index arrays for the vectorized engines, cached.

    One phase per multiplicative depth (see
    :meth:`Circuit.and_level_schedule`):
    ``(and_positions, a_idx, b_idx, out_idx, free_groups)`` with every
    member an ``int64`` gather/scatter array (``None`` when the phase
    has no AND batch), and ``free_groups`` a list of
    ``(xor_a, xor_b, xor_out, inv_a, inv_out)`` array tuples.  The plan
    is a pure function of the netlist, so garbler, evaluator and every
    repeat of a benchmark share one build.
    """
    import numpy as np

    plan = getattr(circuit, "_vector_plan_cache", None)
    if plan is not None:
        return plan
    # Zero-copy int64 / uint8 views of the netlist columns; every plan
    # member is one fancy-index gather from them.
    is_xor = np.frombuffer(circuit.op, dtype=np.uint8) == OP_XOR
    a_of = np.frombuffer(circuit.a, dtype=np.int64)
    b_of = np.frombuffer(circuit.b, dtype=np.int64)
    out_of = np.frombuffer(circuit.out, dtype=np.int64)

    def gather(column, positions):
        return column[positions] if len(positions) else None

    plan = []
    for and_batch, free_groups in circuit.and_level_schedule():
        if and_batch:
            positions = np.asarray(and_batch, dtype=np.int64)
            and_arrays = (
                positions, a_of[positions], b_of[positions], out_of[positions]
            )
        else:
            and_arrays = (None, None, None, None)
        compiled_groups = []
        for group in free_groups:
            positions = np.asarray(group, dtype=np.int64)
            xor = positions[is_xor[positions]]
            inv = positions[~is_xor[positions]]
            compiled_groups.append(
                (
                    gather(a_of, xor),
                    gather(b_of, xor),
                    gather(out_of, xor),
                    gather(a_of, inv),
                    gather(out_of, inv),
                )
            )
        plan.append(and_arrays + (compiled_groups,))
    circuit._vector_plan_cache = plan
    return plan


def _prepare_and_schedules(circuit: Circuit, backend, rekeyed: bool):
    """Pre-expand every AND gate's pair of hash keys in one backend call.

    Tweaks are static (``2p`` / ``2p + 1`` for netlist position ``p``),
    so the whole program's key schedules can be computed before any
    label exists -- the software analogue of HAAC streaming round keys
    ahead of the Half-Gate pipeline.  Returns a schedule handle (see
    :meth:`LabelHashBackend.expand_keys_program`; a plain array for
    in-process backends, a worker-resident handle for the parallel one)
    with the generator/evaluator rows of the ``i``-th AND gate *in plan
    order* at ``2i`` / ``2i + 1``; in fixed-key mode, the raw tweak
    block array.
    """
    tweaks: List[int] = []
    for and_batch, _ in circuit.and_level_schedule():
        for position in and_batch:
            tweaks.append(2 * position)
            tweaks.append(2 * position + 1)
    keys = backend.tweaks_to_keys(tweaks)
    return backend.expand_keys_program(keys) if rekeyed else keys


def _run_free_groups(state, free_groups, r_vec) -> None:
    """Apply every XOR/INV group of one phase as bulk array XORs.

    ``r_vec`` is the FreeXOR offset row for the Garbler, or ``None`` on
    the Evaluator side (where INV forwards the label unchanged).
    """
    for xor_a, xor_b, xor_out, inv_a, inv_out in free_groups:
        if xor_out is not None:
            state[xor_out] = state[xor_a] ^ state[xor_b]
        if inv_out is not None:
            if r_vec is None:
                state[inv_out] = state[inv_a]
            else:
                state[inv_out] = state[inv_a] ^ r_vec


def _garble_levels_vectorized(
    circuit: Circuit,
    input_labels: List[int],
    r: int,
    rekeyed: bool,
    backend,
    hasher: GateHasher,
) -> tuple:
    """Fully vectorized garbling: wire state lives in a uint32 array.

    The whole label store is an ``(n_wires, 4) uint32`` array.  Work is
    scheduled by multiplicative depth (:meth:`Circuit.and_level_schedule`),
    so each phase FreeXORs its independent gate groups with bulk XORs
    and hashes *all four labels of every AND gate in the batch* with a
    single backend call against pre-expanded key schedules.
    """
    import numpy as np

    state = np.zeros((circuit.n_wires, 4), dtype=np.uint32)
    if input_labels:
        state[: len(input_labels)] = backend.ints_to_blocks(input_labels)
    r_vec = backend.ints_to_blocks([r])[0]
    plan = _vector_plan(circuit)
    sched = _prepare_and_schedules(circuit, backend, rekeyed)

    table_positions: List[np.ndarray] = []
    generator_rows: List[np.ndarray] = []
    evaluator_rows: List[np.ndarray] = []

    offset = 0
    for positions, a_idx, b_idx, out_idx, free_groups in plan:
        if positions is not None:
            m = len(positions)
            wa0 = state[a_idx]
            wb0 = state[b_idx]
            labels = np.concatenate([wa0, wa0 ^ r_vec, wb0, wb0 ^ r_vec])
            if rekeyed:
                # Generator rows at 2i, evaluator rows at 2i + 1; the
                # backend gathers them from the (possibly worker-
                # resident) whole-program expansion by index.
                rows_g = 2 * np.arange(offset, offset + m, dtype=np.int64)
                rows = np.concatenate([rows_g, rows_g, rows_g + 1, rows_g + 1])
                hashes = backend.hash_schedule_rows(labels, sched, rows)
            else:
                sched_g = sched[2 * offset : 2 * (offset + m) : 2]
                sched_e = sched[2 * offset + 1 : 2 * (offset + m) : 2]
                key_rows = np.concatenate([sched_g, sched_g, sched_e, sched_e])
                hashes = backend.hash_fixed_key_blocks(labels, key_rows)
            offset += m
            hasher.record_batch(4 * m)
            h_a0 = hashes[:m]
            h_a1 = hashes[m : 2 * m]
            h_b0 = hashes[2 * m : 3 * m]
            h_b1 = hashes[3 * m :]

            p_a = (wa0[:, 3] & 1).astype(bool)
            p_b = (wb0[:, 3] & 1).astype(bool)
            t_g = h_a0 ^ h_a1
            t_g[p_b] ^= r_vec
            w_g0 = h_a0.copy()
            w_g0[p_a] ^= t_g[p_a]
            t_e = h_b0 ^ h_b1 ^ wa0
            w_e0 = h_b0.copy()
            masked = t_e ^ wa0
            w_e0[p_b] ^= masked[p_b]
            state[out_idx] = w_g0 ^ w_e0

            table_positions.append(positions)
            generator_rows.append(t_g)
            evaluator_rows.append(t_e)
        _run_free_groups(state, free_groups, r_vec)

    zero_labels = backend.blocks_to_ints(state)
    tables: List[GarbledTable] = []
    if table_positions:
        positions = np.concatenate(table_positions)
        order = np.argsort(positions, kind="stable")
        g_ints = backend.blocks_to_ints(np.concatenate(generator_rows)[order])
        e_ints = backend.blocks_to_ints(np.concatenate(evaluator_rows)[order])
        tables = [GarbledTable(g, e) for g, e in zip(g_ints, e_ints)]
    return zero_labels, tables
