"""VIP-Bench workload circuits (paper section 5, Table 2)."""

from .base import BuiltWorkload, PaperTable2Row, Workload
from .registry import PAPER_ORDER, WORKLOADS, get_workload

__all__ = [
    "Workload",
    "BuiltWorkload",
    "PaperTable2Row",
    "WORKLOADS",
    "PAPER_ORDER",
    "get_workload",
]
