"""Prior GC accelerators and micro-workloads (paper Table 5, section 6.6).

Published garbling times are quoted from the paper (which itself quotes
the original publications); our HAAC numbers come from simulating the
same micro-workloads on the comparison configuration the paper uses:
**full reordering, a 1 MB SWW, and 16 GEs**, Garbler role.

The GPU row compares throughput: one GPU implementation garbles 75 M
gates/s, HAAC 8.7 B gates/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Circuit
from ..circuits.stdlib.aes_circuit import build_aes128_circuit
from ..circuits.stdlib.integer import add, less_than, mul, mul_full
from ..circuits.stdlib.logic import popcount

__all__ = [
    "PriorWorkEntry",
    "PRIOR_WORK",
    "MICRO_WORKLOADS",
    "build_micro",
    "millionaires_circuit",
    "two_party_circuit",
]


@dataclass(frozen=True)
class PriorWorkEntry:
    """One row of Table 5 (published prior-work garbling time)."""

    system: str
    benchmark: str
    garbling_time_us: float
    note: str = ""
    paper_haac_us: float = 0.0  # the paper's "Our HAAC (us)" column
    paper_speedup: float = 0.0


PRIOR_WORK: List[PriorWorkEntry] = [
    PriorWorkEntry("MAXelerator", "5x5Matx-8", 15.0, "8 cores", 1.605, 9.35),
    PriorWorkEntry("MAXelerator", "3x3Matx-16", 6.48, "14 cores", 1.673, 3.87),
    PriorWorkEntry("FASE", "AES-128", 439.0, "", 3.607, 122.0),
    PriorWorkEntry("FASE", "Mult-32", 52.5, "", 1.246, 42.1),
    PriorWorkEntry("FASE", "Hamm-50", 3.35, "", 0.219, 15.3),
    PriorWorkEntry("FASE", "Million-8", 1.30, "33 gates only", 0.218, 5.94),
    PriorWorkEntry("FASE", "5x5Matx-8", 438.0, "", 1.605, 273.0),
    PriorWorkEntry("FASE", "3x3Matx-16", 378.0, "", 1.673, 226.0),
    PriorWorkEntry("FPGA Overlay", "Add-6", 2.80, "", 0.136, 20.6),
    PriorWorkEntry("FPGA Overlay", "Mult-32", 180.0, "", 1.246, 144.0),
    PriorWorkEntry("FPGA Overlay", "Hamm-50", 14.0, "", 0.219, 63.9),
    PriorWorkEntry("FPGA Overlay", "Million-2", 0.950, "", 0.062, 15.3),
    PriorWorkEntry("Leeser et al. [48]", "5x5Matx-8", 9.66e4, "", 1.605, 6.02e4),
    PriorWorkEntry("Huang et al. [31]", "Add-16", 253.0, "", 0.396, 639.0),
    PriorWorkEntry("Huang et al. [31]", "Mult-32", 2.38e4, "", 1.246, 1.91e4),
    PriorWorkEntry("Huang et al. [31]", "Hamm-50", 1.55e3, "", 0.219, 7.08e3),
    PriorWorkEntry("Huang et al. [31]", "5x5Matx-8", 1.84e5, "", 1.605, 1.15e5),
]


def two_party_circuit(
    name: str,
    width: int,
    body: Callable[[CircuitBuilder, List[int], List[int]], List[int]],
) -> Circuit:
    """``body(builder, garbler_bits, evaluator_bits)``'s output wires over
    two ``width``-bit inputs, the garbler's first."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(width)
    ys = builder.add_evaluator_inputs(width)
    builder.mark_outputs(body(builder, xs, ys))
    return builder.build(name)


def millionaires_circuit(name: str, width: int) -> Circuit:
    """Yao's millionaires: 1 iff the garbler's integer exceeds the evaluator's."""
    return two_party_circuit(name, width, lambda b, xs, ys: [less_than(b, ys, xs)])


def _hamming(builder: CircuitBuilder, xs: List[int], ys: List[int]) -> List[int]:
    return popcount(builder, [builder.XOR(a, b) for a, b in zip(xs, ys)])


def _build_matmul(n: int, width: int) -> Circuit:
    builder = CircuitBuilder()
    a = [[builder.add_garbler_inputs(width) for _ in range(n)] for _ in range(n)]
    b = [[builder.add_evaluator_inputs(width) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = mul(builder, a[i][0], b[0][j])
            for k in range(1, n):
                acc = add(builder, acc, mul(builder, a[i][k], b[k][j]))
            builder.mark_outputs(acc)
    return builder.build(f"matx{n}x{n}_{width}")


MICRO_WORKLOADS: Dict[str, Callable[[], Circuit]] = {
    "Add-6": lambda: two_party_circuit("add6", 6, add),
    "Add-16": lambda: two_party_circuit("add16", 16, add),
    "Mult-32": lambda: two_party_circuit("mult32", 32, mul_full),
    "Hamm-50": lambda: two_party_circuit("hamm50", 50, _hamming),
    "Million-2": lambda: millionaires_circuit("million2", 2),
    "Million-8": lambda: millionaires_circuit("million8", 8),
    "5x5Matx-8": lambda: _build_matmul(5, 8),
    "3x3Matx-16": lambda: _build_matmul(3, 16),
    "AES-128": build_aes128_circuit,
}


def build_micro(name: str) -> Circuit:
    """Build a Table 5 micro-workload circuit by name."""
    try:
        return MICRO_WORKLOADS[name]()
    except KeyError:
        raise KeyError(
            f"unknown micro-workload {name!r}; expected one of "
            f"{sorted(MICRO_WORKLOADS)}"
        ) from None
