"""Comparison baselines: EMP-on-CPU model, plaintext model, prior work."""

from .cpu_model import DEFAULT_CPU, CpuCostModel
from .plaintext import DEFAULT_PLAINTEXT, PlaintextModel
from .prior_work import (
    MICRO_WORKLOADS,
    PRIOR_WORK,
    PriorWorkEntry,
    build_micro,
)

__all__ = [
    "CpuCostModel",
    "DEFAULT_CPU",
    "PlaintextModel",
    "DEFAULT_PLAINTEXT",
    "PriorWorkEntry",
    "PRIOR_WORK",
    "MICRO_WORKLOADS",
    "build_micro",
]
