"""Workload framework shared by the eight VIP-Bench circuits.

Each workload module exposes a :class:`Workload` instance describing how
to build the circuit at given parameters, how to encode the two parties'
inputs, the plaintext reference computation, and an operation count used
by the plaintext CPU model (Figure 10's 1x baseline).

``scaled_params`` are the defaults used throughout the test/benchmark
suite (sized so the pure-Python simulator finishes in seconds).
``paper_params`` are the sizes the paper reports in section 5; they
remain constructible for users with patience.  ``paper_table2`` pins the
paper's Table 2 row so the ``table2`` driver prints paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..circuits.netlist import Circuit

__all__ = ["Workload", "PaperTable2Row", "BuiltWorkload"]

# (garbler bits, evaluator bits)
EncodedInputs = Tuple[List[int], List[int]]


@dataclass(frozen=True)
class PaperTable2Row:
    """The paper's Table 2 row for one benchmark (paper-scale numbers)."""

    levels: int
    wires_k: float
    gates_k: float
    and_pct: float
    ilp: int
    spent_wire_pct: float


@dataclass
class BuiltWorkload:
    """A constructed circuit bundled with its input encoder and reference."""

    name: str
    circuit: Circuit
    params: Dict[str, Any]
    encode_inputs: Callable[..., EncodedInputs]
    reference: Callable[..., Sequence[int]]
    decode_outputs: Callable[[Sequence[int]], Any]


@dataclass
class Workload:
    """Description of one VIP-Bench workload."""

    name: str
    description: str
    build: Callable[..., BuiltWorkload]
    scaled_params: Dict[str, Any]
    paper_params: Dict[str, Any]
    plaintext_ops: Callable[..., int]
    paper_table2: PaperTable2Row
    character: str = ""  # shallow / deep / complex / simple, per VIP-Bench

    def build_scaled(self, **overrides: Any) -> BuiltWorkload:
        params = dict(self.scaled_params)
        params.update(overrides)
        return self.build(**params)
