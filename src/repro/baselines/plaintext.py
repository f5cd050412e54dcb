"""Plaintext CPU model (Figure 10's 1x reference).

The paper compares against native C++ on the same i7-10700K.  We model
plaintext time as ``ops x t_op`` where ``ops`` is the workload's
arithmetic-operation count (each workload module provides it) and
``t_op`` reflects a superscalar 3.8 GHz core retiring a few simple ops
per cycle (~1 ns per scalar op including loop overhead; floating point
identical -- the paper stresses the CPU does FP natively, which is why
GradDesc's GC slowdown is extreme while its plaintext time is ordinary).

The workload modules also carry genuine executable Python references,
which serve as functional ground truth; this module is only about
*timing* the hypothetical native implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.base import Workload

__all__ = ["PlaintextModel", "DEFAULT_PLAINTEXT"]


@dataclass(frozen=True)
class PlaintextModel:
    """Nanoseconds per plaintext arithmetic op."""

    t_op_ns: float = 1.0

    def time_s(self, n_ops: int) -> float:
        return max(n_ops, 1) * self.t_op_ns * 1e-9

    def time_for(self, workload: Workload) -> float:
        """Plaintext time of ``workload`` at its scaled size."""
        return self.time_s(workload.plaintext_ops(**workload.scaled_params))


DEFAULT_PLAINTEXT = PlaintextModel()
