"""Whole-circuit garbling (Alice / the Garbler).

Garbling is the offline phase: the Garbler draws the global offset R and
one label pair per input wire, then garbles the netlist producing (a) a
32-byte garbled table per AND gate and (b) the zero-label of every
internal wire.  XOR and INV are free (no table, no hashing).  Output
decoding information is the permute bit of each output wire's
zero-label.

:func:`garble_circuit_batched` walks the circuit level by level: it
FreeXORs a whole dependence level at once and hashes every AND gate of a
level in one :mod:`repro.gc.backends` call.  Its oracle, the per-gate
walk ``garble_circuit``, lives in ``tests/gc/oracles.py``.

The level-scheduled walk runs on a *label store*
(:class:`BlockGarblerStore`), the same one the streamed
:class:`~repro.gc.roles.GarblerRole` holds: an ``(n_wires + 1, 4) uint32``
block array with array kernels (DESIGN.md section 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..circuits.netlist import Circuit, CircuitError, is_bit
from . import ot
from .halfgate import GarbledTable, tables_from_bytes
from .hashing import GateHasher
from .labels import blocks_to_bytes, bytes_to_blocks, ints_to_bytes, lsb
from .rng import LabelPrg

__all__ = [
    "GarbledCircuit",
    "Garbler",
    "garble_circuit_batched",
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
        The re-keyed gate hash with call accounting.
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
        if not is_bit(bit):
            party = "garbler" if wire < self.circuit.n_garbler_inputs else "evaluator"
            raise CircuitError(f"{party} input bits must be 0 or 1")
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


# ---------------------------------------------------------------------------
# Level-scheduled batched garbling
# ---------------------------------------------------------------------------


def garble_circuit_batched(
    circuit: Circuit,
    seed: int = 0,
    backend: Optional[Union[str, "object"]] = None,
) -> Garbler:
    """Garble ``circuit`` level by level with a batch hash backend.

    Bitwise-identical to the per-gate oracle ``garble_circuit``
    (``tests/gc/oracles.py``) for the same ``seed``:
    the PRG draws (R, then one label per input wire) happen in the same
    order, gate tweaks are still netlist positions, and the backend
    reproduces the scalar hash exactly.  Only the *schedule* changes:
    gates are processed per multiplicative depth
    (:attr:`Circuit.and_level_plan`), all AND gates of a depth go
    through one backend hash call (4 hashes per gate) and the free
    XOR/INV groups collapse into bulk array XORs.

    ``backend`` is ``None``, ``"auto"``, ``"numpy"`` or a backend
    instance (:func:`repro.gc.backends.resolve_backend`).
    """
    from .backends import resolve_backend

    resolved = resolve_backend(backend)
    circuit.validate()
    # R, then one label per input wire, in one draw.
    r, *input_labels = LabelPrg(seed).next_blocks(1 + circuit.n_inputs, resolved)
    r |= 1
    hasher = GateHasher()

    store = BlockGarblerStore(circuit, input_labels, r, resolved, hasher)
    # Tables leave the store in schedule order, 32 bytes each; the
    # Evaluator's stream wants netlist order.
    payload = b"".join(store.garble_level(i) for i in range(len(store.plan)))
    in_schedule = tables_from_bytes(payload)
    tables = [in_schedule[i] for i in np.argsort(store.plan.and_positions).tolist()]
    zero_labels = store.labels()

    decode_bits = [lsb(zero_labels[w]) for w in circuit.outputs]
    garbler = Garbler(circuit=circuit, r=r, zero_labels=zero_labels, hasher=hasher)
    garbler.garbled = GarbledCircuit(
        tables=tables,
        decode_bits=decode_bits,
        n_and_gates=len(tables),
    )
    return garbler


def and_tweaks(positions: np.ndarray) -> np.ndarray:
    """An AND batch's tweaks, every ``2p`` then every ``2p + 1``, in int64."""
    doubled = 2 * positions.astype(np.int64)
    return np.concatenate([doubled, doubled + 1])


class _BlockStore:
    """One party's label store, an ``(n_wires + 1, 4) uint32`` array.

    The store owns ``state``, one label per row as four big-endian
    column words, in the plan's schedule order (``plan.rows[w]`` is wire
    ``w``'s row; the last row is the sentinel every INV XORs in), and
    the hashing of each AND batch of
    :attr:`Circuit.and_level_plan` under its gates' ``2p`` / ``2p + 1``
    tweak keys (:func:`and_tweaks`): ``m`` generator keys then ``m``
    evaluator keys per batch, expanded as the level runs into one
    ``(2m, 44)`` schedule (on the array backends the view of ``(44, 2m)``
    round-key planes).  ``_hash`` takes labels in runs of ``2m`` -- the
    ``a`` labels, then the ``b`` labels -- so every run hashes against
    that schedule as is; the Garbler's second run (the ``^ R`` copies)
    repeats it along the planes.  A batch of fewer labels than the
    kernel's measured crossover skips the schedule and runs its AES on
    libcrypto's raw calls (DESIGN.md section 7).
    """

    def __init__(
        self, circuit: Circuit, input_labels: bytes, backend, hasher: GateHasher
    ) -> None:
        self.state = np.zeros((circuit.n_wires + 1, 4), dtype=np.uint32)
        self.state[: circuit.n_inputs] = bytes_to_blocks(input_labels)
        self.plan = circuit.and_level_plan
        self.backend, self.hasher = backend, hasher

    def _run_free_groups(self, free_groups) -> None:
        """Apply every XOR/INV group of one phase, each one XOR of two
        row gathers into the group's own row slice."""
        state = self.state
        for a, b, out in free_groups:
            np.bitwise_xor(state.take(a, axis=0), state.take(b, axis=0), out=state[out])

    def _hash(self, positions, labels, runs: int):
        """Hash ``labels`` = ``runs`` runs of ``2m`` blocks, each the
        ``m`` ``a`` labels under the batch's generator keys then the
        ``m`` ``b`` labels under its evaluator keys.  Below
        ``_KDF_BATCH_MIN`` labels the AES runs on libcrypto (one key
        set-up per tweak, one block per label) where it is loaded, else
        on the array kernel; same hashes either way."""
        backend = self.backend
        tweaks = and_tweaks(positions)
        self.hasher.record_batch(len(labels))
        lib = ot._LIBCRYPTO_AES
        if lib is not None and len(labels) < ot._KDF_BATCH_MIN:
            sig = backend.sigma_blocks(labels)
            hashed = ot._encrypt_under_tweaks(sig, tweaks.tolist(), lib)
            hashed ^= sig
            return hashed
        sched = backend.expand_keys(backend.tweaks_to_keys(tweaks))
        if runs > 1:
            sched = np.concatenate([sched.T] * runs, axis=1).T
        return backend.hash_with_schedules(labels, sched)

    def permute_bits(self, wires: Sequence[int]) -> List[int]:
        """Point-and-permute bit of each wire's stored label."""
        return (self.state[self.plan.rows[wires], 3] & 1).tolist()

    def labels(self, wires=slice(None)) -> List[int]:
        """Stored labels of ``wires`` (all, in wire order, by default) as
        Python ints (whole-circuit results, tests)."""
        return self.backend.blocks_to_ints(self.state[self.plan.rows[wires]])


class BlockGarblerStore(_BlockStore):
    """The Garbler's zero-labels as blocks; the sentinel row is R."""

    def __init__(
        self, circuit, input_labels: Sequence[int], r: int, backend, hasher
    ) -> None:
        super().__init__(circuit, ints_to_bytes(input_labels), backend, hasher)
        self.r_vec = self.state[-1]
        self.r_vec[:] = backend.ints_to_blocks([r])[0]

    def select(self, wires: Sequence[int], bits: Sequence[int]) -> bytes:
        """Wire format of the label encoding ``bits[i]`` on ``wires[i]``."""
        chosen = np.asarray(bits, dtype=bool)[:, None]
        labels = self.state[self.plan.rows[wires]]
        return blocks_to_bytes(labels ^ (self.r_vec * chosen))

    def garble_level(self, index: int) -> bytes:
        """Garble phase ``index``; returns its AND batch's tables in wire
        format (``T_G || T_E`` per gate in batch order, ``b""`` for a
        batch-less phase).  Half-gate algebra as in
        :mod:`repro.gc.halfgate`, the ``p ? x : 0`` selections as
        all-ones / all-zeros word masks."""
        state, r_vec = self.state, self.r_vec
        positions, a_rows, b_rows, out, free_groups = self.plan.phase(index)
        payload = b""
        if len(positions):
            m = len(positions)
            wa0, wb0 = state.take(a_rows, axis=0), state.take(b_rows, axis=0)
            hashes = self._hash(
                positions, np.concatenate([wa0, wb0, wa0 ^ r_vec, wb0 ^ r_vec]), 2
            )
            h_a0, h_b0, h_a1, h_b1 = (hashes[i * m : (i + 1) * m] for i in range(4))
            p_a = -(wa0[:, 3:] & 1)
            p_b = -(wb0[:, 3:] & 1)
            tables = np.empty((m, 8), dtype=np.uint32)
            t_g, t_e = tables[:, :4], tables[:, 4:]
            t_g[:] = h_a0 ^ h_a1 ^ (r_vec & p_b)
            t_e[:] = h_b0 ^ h_b1 ^ wa0
            state[out] = h_a0 ^ (t_g & p_a) ^ h_b0 ^ ((t_e ^ wa0) & p_b)
            payload = blocks_to_bytes(tables)
        self._run_free_groups(free_groups)
        return payload
