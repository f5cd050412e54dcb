"""Garbled-circuits cryptographic substrate (from scratch).

Implements everything HAAC's gate engines compute in hardware: AES-128,
the re-keyed gate hash, Half-Gate AND, FreeXOR, level-batched
whole-circuit garbling and evaluation, oblivious transfer, and the
two-party protocol.  The scalar oracles these are held to (the per-gate
garble / evaluate walk, the per-bit OT, the textbook AES) live in
``tests/gc/oracles.py``.
"""

from .aes import encrypt_block, expand_key
from .backends import BackendUnavailable, resolve_backend
from .evaluate import EvaluationResult, evaluate_circuit_batched
from .garble import GarbledCircuit, Garbler, garble_circuit_batched
from .halfgate import GarbledTable, eval_and, eval_xor
from .hashing import GateHasher, rekeyed_hash
from .labels import lsb
from .ot import run_ot_batch
from .protocol import SessionResult, TwoPartySession, run_two_party
from .rng import LabelPrg
from .serialize import garbled_from_bytes, garbled_to_bytes

__all__ = [
    "garbled_to_bytes",
    "garbled_from_bytes",
    "encrypt_block",
    "expand_key",
    "LabelPrg",
    "lsb",
    "GateHasher",
    "rekeyed_hash",
    "GarbledTable",
    "eval_and",
    "eval_xor",
    "Garbler",
    "GarbledCircuit",
    "garble_circuit_batched",
    "EvaluationResult",
    "evaluate_circuit_batched",
    "BackendUnavailable",
    "resolve_backend",
    "run_ot_batch",
    "TwoPartySession",
    "SessionResult",
    "run_two_party",
]
