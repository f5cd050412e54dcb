"""Registry of the eight VIP-Bench workloads (paper Table 2 order).

The registry is the single entry point the benchmarks, experiments and
tests use to enumerate workloads.  Keys are the paper's benchmark names.
"""

from __future__ import annotations

from typing import Dict, List

from .base import Workload
from .bubble_sort import WORKLOAD as BUBBLE_SORT
from .dot_product import WORKLOAD as DOT_PRODUCT
from .grad_desc import WORKLOAD as GRAD_DESC
from .hamming import WORKLOAD as HAMMING
from .matmult import WORKLOAD as MATMULT
from .mersenne import WORKLOAD as MERSENNE
from .relu import WORKLOAD as RELU
from .triangle import WORKLOAD as TRIANGLE

__all__ = [
    "WORKLOADS",
    "PAPER_ORDER",
    "get_workload",
]

# Paper Table 2 / figure x-axis order.
PAPER_ORDER: List[str] = [
    "BubbSt",
    "DotProd",
    "Merse",
    "Triangle",
    "Hamm",
    "MatMult",
    "ReLU",
    "GradDesc",
]

WORKLOADS: Dict[str, Workload] = {
    "BubbSt": BUBBLE_SORT,
    "DotProd": DOT_PRODUCT,
    "Merse": MERSENNE,
    "Triangle": TRIANGLE,
    "Hamm": HAMMING,
    "MatMult": MATMULT,
    "ReLU": RELU,
    "GradDesc": GRAD_DESC,
}


def get_workload(name: str) -> Workload:
    """Look up a workload by its paper name (case-sensitive)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; expected one of {PAPER_ORDER}"
        ) from None
