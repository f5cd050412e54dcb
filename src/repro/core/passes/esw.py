"""Eliminating Spent Wires (paper section 4.2.3).

Not every computed wire needs to reach DRAM: a wire is **spent** when all
of its consumers read it while it is still resident in the SWW.  The
compiler sets the instruction's *live* bit only for wires that are read
after the window slides past them (those come back through the OoRW
queue) or that are circuit outputs.  The paper reports an average of 84 %
of wires saved from write-back with a 2 MB SWW (Table 2 "Spent Wire %").

Runs on a renamed program: output addresses must be sequential for the
window arithmetic to apply.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..depgraph import DepGraph
from ..program import HaacProgram
from ..sww import SlidingWindow

__all__ = ["eliminate_spent_wires", "EswReport"]


@dataclass(frozen=True)
class EswReport:
    """Summary of one ESW run."""

    total_outputs: int
    live: int

    @property
    def spent(self) -> int:
        return self.total_outputs - self.live

    @property
    def spent_pct(self) -> float:
        return 100.0 * self.spent / self.total_outputs if self.total_outputs else 0.0

    @property
    def live_pct(self) -> float:
        return 100.0 * self.live / self.total_outputs if self.total_outputs else 0.0


def eliminate_spent_wires(
    program: HaacProgram,
    window: SlidingWindow,
    graph: Optional[DepGraph] = None,
) -> tuple[HaacProgram, EswReport]:
    """Return a copy of ``program`` with minimal live bits.

    Instruction ``p`` (writing address ``o``) is live iff ``o`` is a
    circuit output, or some consumer instruction ``q`` reads ``o`` with
    its own output frontier at or past ``o``'s eviction point.

    Consumer frontiers ``n_inputs + q`` ascend with ``q``, so only the
    *last* reader of each wire has to be checked -- one gather from the
    shared dependence graph's ``last_reader`` array.  ``graph`` is the
    compiler-supplied graph of ``program.netlist`` (its construction
    already validated the netlist, and :func:`HaacProgram.from_netlist`
    checked the instruction correspondence, so the redundant
    ``validate()`` round-trips are skipped); public callers may omit it
    and keep the legacy validate-then-derive behaviour.
    """
    if graph is None:
        program.validate()
        from ..depgraph import dep_graph

        graph = dep_graph(program.netlist)
    n_inputs = program.n_inputs
    wire = np.arange(n_inputs, program.n_wires)
    # live[p] iff wire n_inputs + p is read at or past its eviction
    # frontier (wire // half + 2) * half -- by its last reader, whose
    # frontier is the largest of all readers' (-1, never read, is below
    # every frontier).
    half = window.half
    last_reader = np.asarray(graph.last_reader, dtype=np.int64)
    late = n_inputs + last_reader[n_inputs:] >= (wire // half + 2) * half
    live = bytearray(late.tobytes())
    for output in program.outputs:
        if output >= n_inputs:
            live[output - n_inputs] = 1

    optimized = replace(
        program, live=live, applied_passes=program.applied_passes + ["esw"]
    )
    report = EswReport(total_outputs=len(live), live=live.count(1))
    return optimized, report
