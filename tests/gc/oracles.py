"""Scalar oracles of the garbling substrate: what the batched engine in
``src/`` is held to, and nothing any entry point runs.

* the per-gate Half-Gate / FreeXOR primitives (:func:`garble_and`,
  :func:`garble_xor`, :func:`garble_not`, :func:`eval_not`) and the
  whole-circuit walks over them (:func:`garble_circuit`,
  :func:`evaluate_circuit`): one gate at a time in netlist order, one
  scalar gate hash per half-gate, tables popped off the stream in gate
  order;
* the per-bit Chou-Orlandi OT (:class:`PerBitOtSender.encrypt`,
  :class:`PerBitOtReceiver.choose` / ``decrypt``): one builtin ``pow``
  per group operation and the scalar pad KDF, none of the batched steps;
* the textbook FIPS-197 AES (:func:`encrypt_block_reference`: SubBytes /
  ShiftRows / MixColumns / AddRoundKey on a 4x4 state), the
  cross-check of the T-table :func:`repro.gc.aes.encrypt_block`;
* the fixed-key hash (:func:`fixed_key_hash`), the scalar oracle of the
  backend's fixed-key kernel.

The bodies are the ones ``src/`` carried before they moved here.  This
module imports no block store, backend or batched kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.circuits.netlist import OP_AND, OP_XOR, Circuit
from repro.gc import rng
from repro.gc.aes import S_BOX, _gf_mul, encrypt_block, key_expansion_words
from repro.gc.evaluate import EvaluationResult
from repro.gc.garble import GarbledCircuit, Garbler
from repro.gc.halfgate import GarbledTable, eval_and, eval_xor
from repro.gc.hashing import FIXED_KEY, GateHasher, sigma
from repro.gc.labels import lsb
from repro.gc.ot import GROUP_G, GROUP_P, _GROUP_Q, OtReceiver, OtSender, _kdf

HashFn = Callable[[int, int], int]


class LabelPrg(rng.LabelPrg):
    """The session PRG plus the one draw only the per-gate walk makes."""

    def next_odd_block(self) -> int:
        """Return a 128-bit value with its least-significant bit set.

        Used to draw the FreeXOR global offset R, whose lsb must be 1 for
        point-and-permute to work (the permute bit of W^1 = W^0 xor R then
        always differs from that of W^0).
        """
        return self.next_block() | 1


# ---------------------------------------------------------------------------
# Half-Gate / FreeXOR, one gate at a time
# ---------------------------------------------------------------------------


def garble_and(
    wa0: int, wb0: int, r: int, gate_index: int, hash_fn: HashFn
) -> tuple[int, GarbledTable]:
    """Garble one AND gate; returns (W_c^0, table).

    ``gate_index`` is the gate's unique index; the two half-gates use
    tweaks ``2*gate_index`` and ``2*gate_index + 1`` (paper Figure 2 shows
    the two key expansions for ``2*Gate_i`` and ``2*Gate_i + 1``).
    """
    j_g = 2 * gate_index
    j_e = 2 * gate_index + 1
    wa1 = wa0 ^ r
    wb1 = wb0 ^ r
    p_a = lsb(wa0)
    p_b = lsb(wb0)

    h_a0 = hash_fn(wa0, j_g)
    h_a1 = hash_fn(wa1, j_g)
    t_g = h_a0 ^ h_a1 ^ (r if p_b else 0)
    w_g0 = h_a0 ^ (t_g if p_a else 0)

    h_b0 = hash_fn(wb0, j_e)
    h_b1 = hash_fn(wb1, j_e)
    t_e = h_b0 ^ h_b1 ^ wa0
    w_e0 = h_b0 ^ ((t_e ^ wa0) if p_b else 0)

    return w_g0 ^ w_e0, GarbledTable(t_g, t_e)


def garble_xor(wa0: int, wb0: int) -> int:
    """FreeXOR garbling: the output zero-label, no table."""
    return wa0 ^ wb0


def garble_not(wa0: int, r: int) -> int:
    """Free NOT: output zero-label is the input one-label."""
    return wa0 ^ r


def eval_not(wa: int) -> int:
    """Free NOT on the Evaluator side: label passes through unchanged."""
    return wa


def garble_circuit(circuit: Circuit, seed: int = 0) -> Garbler:
    """Garble ``circuit`` deterministically from ``seed``.

    Gate indices used as hash tweaks are the gate's position in the
    netlist, matching HAAC's implicit instruction-position addressing.
    """
    circuit.validate()
    prg = LabelPrg(seed)
    r = prg.next_odd_block()
    hasher = GateHasher()

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


def evaluate_circuit(
    circuit: Circuit,
    garbled: GarbledCircuit,
    input_labels: Sequence[int],
) -> EvaluationResult:
    """Evaluate ``circuit`` given one label per primary input wire.

    Raises if the table stream length does not match the number of AND
    gates -- the same invariant HAAC's streaming table queue relies on.
    """
    circuit.validate()
    if len(input_labels) != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} input labels, got {len(input_labels)}"
        )
    if len(garbled.tables) != garbled.n_and_gates:
        raise ValueError("garbled table stream is inconsistent")

    hasher = GateHasher()
    labels = [0] * circuit.n_wires
    for wire, label in enumerate(input_labels):
        labels[wire] = label

    next_table = 0
    for gate_index, (op, a, b, out) in enumerate(
        zip(circuit.op, circuit.a, circuit.b, circuit.out)
    ):
        if op == OP_AND:
            table = garbled.tables[next_table]
            next_table += 1
            labels[out] = eval_and(labels[a], labels[b], table, gate_index, hasher)
        elif op == OP_XOR:
            labels[out] = eval_xor(labels[a], labels[b])
        else:  # INV
            labels[out] = eval_not(labels[a])
    if next_table != len(garbled.tables):
        raise ValueError("table stream not fully consumed")

    output_labels = [labels[w] for w in circuit.outputs]
    output_bits = [
        lsb(label) ^ decode
        for label, decode in zip(output_labels, garbled.decode_bits)
    ]
    return EvaluationResult(
        output_labels=output_labels,
        output_bits=output_bits,
        hash_calls=hasher.calls,
    )


# ---------------------------------------------------------------------------
# Per-bit oblivious transfer
# ---------------------------------------------------------------------------


@dataclass
class PerBitOtSender(OtSender):
    """:class:`~repro.gc.ot.OtSender` with the per-bit ``encrypt``; it
    never touches a backend, so none is needed."""

    backend: Optional[object] = None

    def encrypt(
        self, index: int, b_point: int, message0: int, message1: int
    ) -> Tuple[int, int]:
        """Encrypt the two messages against Bob's point for OT ``index``."""
        if not 0 < b_point < GROUP_P:
            raise ValueError("invalid receiver point")
        shared0 = pow(b_point, self._a, GROUP_P)
        shared1 = pow(b_point * self._a_inv % GROUP_P, self._a, GROUP_P)
        k0 = _kdf(shared0, 2 * index)
        k1 = _kdf(shared1, 2 * index + 1)
        return message0 ^ k0, message1 ^ k1


@dataclass
class PerBitOtReceiver(OtReceiver):
    """:class:`~repro.gc.ot.OtReceiver` with the per-bit ``choose`` /
    ``decrypt`` (one builtin ``pow`` per group op, scalar KDF), given
    the sender's key up front: ``PerBitOtReceiver(prg,
    sender_public=A)``."""

    backend: Optional[object] = None
    sender_public: Optional[int] = None

    def choose(self, choice: int) -> Tuple[int, int]:
        """Return (point to send, secret exponent) for ``choice``.

        Needs the sender's ``A`` (``sender_public``); without it this
        raises ``ValueError`` before drawing the secret."""
        if choice not in (0, 1):
            raise ValueError("choice must be a bit")
        if self.sender_public is None:
            raise ValueError("choose needs the sender's public point first")
        b = (self.prg.next_bits(256) % (_GROUP_Q - 1)) + 1
        point = pow(GROUP_G, b, GROUP_P)
        if choice:
            point = point * self.sender_public % GROUP_P
        return point, b

    def decrypt(
        self, index: int, choice: int, secret: int, cipher0: int, cipher1: int
    ) -> int:
        shared = pow(self.sender_public, secret, GROUP_P)
        pad = _kdf(shared, 2 * index + choice)
        return (cipher1 if choice else cipher0) ^ pad


# ---------------------------------------------------------------------------
# Reference (state-matrix) AES-128, used to cross-check the T-table path
# ---------------------------------------------------------------------------


def _block_to_state(block: int) -> List[List[int]]:
    """FIPS-197 column-major state: state[row][col]."""
    data = block.to_bytes(16, "big")
    return [[data[row + 4 * col] for col in range(4)] for row in range(4)]


def _state_to_block(state: List[List[int]]) -> int:
    data = bytes(state[row][col] for col in range(4) for row in range(4))
    return int.from_bytes(data, "big")


def _add_round_key(state: List[List[int]], words: Sequence[int], round_index: int) -> None:
    for col in range(4):
        word = words[4 * round_index + col]
        for row in range(4):
            state[row][col] ^= (word >> (24 - 8 * row)) & 0xFF


def _sub_bytes(state: List[List[int]], box: Sequence[int]) -> None:
    for row in range(4):
        for col in range(4):
            state[row][col] = box[state[row][col]]


def _shift_rows(state: List[List[int]]) -> None:
    for row in range(1, 4):
        state[row] = state[row][row:] + state[row][:row]


def _mix_columns(state: List[List[int]]) -> None:
    for col in range(4):
        a = [state[row][col] for row in range(4)]
        state[0][col] = _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3]
        state[1][col] = a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3]
        state[2][col] = a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3)
        state[3][col] = _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2)


def encrypt_block_reference(block: int, key: int) -> int:
    """Textbook AES-128 encryption, used to validate the T-table path."""
    words = key_expansion_words(key)
    state = _block_to_state(block)
    _add_round_key(state, words, 0)
    for round_index in range(1, 10):
        _sub_bytes(state, S_BOX)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, words, round_index)
    _sub_bytes(state, S_BOX)
    _shift_rows(state)
    _add_round_key(state, words, 10)
    return _state_to_block(state)


def fixed_key_hash(label: int, index: int) -> int:
    """Fixed-key variant (Bellare et al.); the oracle of the backend's
    fixed-key kernel, never a garbling mode."""
    s = sigma(label) ^ index
    return encrypt_block(s, FIXED_KEY) ^ s
