"""Garbled-circuits cryptographic substrate (from scratch).

Implements everything HAAC's gate engines compute in hardware: AES-128,
the re-keyed gate hash, Half-Gate AND, FreeXOR, whole-circuit garbling
and evaluation, oblivious transfer, and the two-party protocol.
"""

from .aes import decrypt_block, encrypt_block, expand_key
from .backends import (
    BackendUnavailable,
    LabelHashBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from .evaluate import (
    EvaluationResult,
    evaluate_circuit,
    evaluate_circuit_batched,
)
from .garble import GarbledCircuit, Garbler, garble_circuit, garble_circuit_batched
from .halfgate import GarbledTable, eval_and, eval_xor, garble_and, garble_xor
from .hashing import GateHasher, fixed_key_hash, rekeyed_hash
from .labels import LabelPair, lsb
from .ot import run_ot, run_ot_batch
from .protocol import SessionResult, TwoPartySession, run_two_party
from .rng import LabelPrg
from .serialize import garbled_from_bytes, garbled_to_bytes, program_from_bytes, program_to_bytes
from .classic import ClassicScheme, evaluate_classic, garble_classic

__all__ = [
    "garbled_to_bytes",
    "garbled_from_bytes",
    "program_to_bytes",
    "program_from_bytes",
    "ClassicScheme",
    "garble_classic",
    "evaluate_classic",
    "encrypt_block",
    "decrypt_block",
    "expand_key",
    "LabelPrg",
    "LabelPair",
    "lsb",
    "GateHasher",
    "rekeyed_hash",
    "fixed_key_hash",
    "GarbledTable",
    "garble_and",
    "eval_and",
    "garble_xor",
    "eval_xor",
    "Garbler",
    "GarbledCircuit",
    "garble_circuit",
    "garble_circuit_batched",
    "EvaluationResult",
    "evaluate_circuit",
    "evaluate_circuit_batched",
    "BackendUnavailable",
    "LabelHashBackend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "run_ot",
    "run_ot_batch",
    "TwoPartySession",
    "SessionResult",
    "run_two_party",
]
