"""EMP-on-CPU performance model (the paper's software baseline).

The paper measures EMP-toolkit (AES-NI accelerated) on an Intel
i7-10700K at 3.8 GHz.  We model it mechanistically with two cost
components per gate:

* a *crypto* cost paid by AND gates only (four AES calls and two key
  expansions per re-keyed Half-Gate; ~50 ns with AES-NI -- the paper
  reports re-keying costs +27.5 % over fixed-key), and
* a *framework* cost paid by every gate: EMP running a VIP-Bench program
  walks wire objects, resolves the netlist, and moves 16-byte labels
  through memory, which dominates at ~1.1 us/gate.

The framework component is calibrated against the paper's two anchors:
GCs on the CPU are ~198,000x slower than plaintext across VIP-Bench
(section 1) and HAAC-with-DDR4 achieves a 589x geomean speedup over that
CPU (section 6.5).  Garbling is 11.9 % slower than evaluation (section
6.1).  Absolute speedups shift with this anchor; the *relative* shapes
across workloads and configurations -- what the reproduction checks --
do not, because every speedup shares the same baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.netlist import Circuit

__all__ = ["CpuCostModel", "DEFAULT_CPU"]


@dataclass(frozen=True)
class CpuCostModel:
    """Per-gate CPU costs in nanoseconds (evaluation-side).

    ``t_and_ns``/``t_xor_ns`` are the cryptographic costs; ``t_gate_ns``
    is the per-gate framework overhead every gate pays.
    """

    t_and_ns: float = 50.0
    t_xor_ns: float = 2.0
    t_gate_ns: float = 1100.0

    def eval_time_s(self, n_and: int, n_xor_like: int) -> float:
        """Evaluator wall time for a gate mix (XOR and INV are free-ish)."""
        crypto = n_and * self.t_and_ns + n_xor_like * self.t_xor_ns
        framework = (n_and + n_xor_like) * self.t_gate_ns
        return (crypto + framework) * 1e-9

    def eval_time_for(self, circuit: Circuit) -> float:
        stats = circuit.stats()
        return self.eval_time_s(stats.and_gates, stats.xor_gates + stats.inv_gates)


DEFAULT_CPU = CpuCostModel()
