"""The HAAC compiler driver (paper Figure 5).

Pipelines the passes into the configurations the evaluation uses:

* ``baseline``   -- assemble only (original EMP order);
* ``ro_rn``      -- full reorder + rename;
* ``seg_rn``     -- segment reorder + rename;
* ``ro_rn_esw``  -- full reorder + rename + eliminate spent wires;
* ``seg_rn_esw`` -- segment reorder + rename + ESW.

The paper always pairs renaming with reordering ("without renaming the
SWW is ineffectual") and notes segment vs full can be chosen per
workload since performance is deterministic; the experiments take that
minimum over ``RO_RN_ESW`` / ``SEG_RN_ESW`` through their
``DataProvider`` (:mod:`repro.analysis.experiments`).

ESW is run for every configuration's *report* (Table 2 needs spent-wire
percentages), but live bits are only applied when the configuration
includes it; without ESW every output is written back, as in hardware
without the optimization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..circuits.netlist import Circuit
from .assembler import LoweredCircuit, lower_inv
from .depgraph import dep_graph
from .passes.esw import EswReport, eliminate_spent_wires
from .passes.rename import rename
from .passes.reorder import depth_first_order, level_reorder
from .passes.streams import ScheduleParams, StreamSet, generate_streams
from .program import HaacProgram
from .progcache import ProgramCache, compile_key
from .sww import SlidingWindow

__all__ = ["OptLevel", "CompileResult", "compile_circuit"]

#: Anything accepted as the ``cache`` argument of :func:`compile_circuit`:
#: an explicit store, a directory path, True/False (default dir / off),
#: or None to defer to the ``REPRO_PROG_CACHE`` environment variable.
CacheSpec = Union[ProgramCache, str, Path, bool, None]


class OptLevel(enum.Enum):
    """Compiler configurations used across the evaluation figures."""

    BASELINE = "baseline"
    RO_RN = "ro_rn"
    SEG_RN = "seg_rn"
    RO_RN_ESW = "ro_rn_esw"
    SEG_RN_ESW = "seg_rn_esw"

    @property
    def reorders(self) -> bool:
        return self is not OptLevel.BASELINE

    @property
    def segmented(self) -> bool:
        return self in (OptLevel.SEG_RN, OptLevel.SEG_RN_ESW)

    @property
    def esw(self) -> bool:
        return self in (OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW)


@dataclass
class CompileResult:
    """Everything produced by one compiler run."""

    program: HaacProgram
    lowered: LoweredCircuit
    streams: StreamSet
    window: SlidingWindow
    opt: OptLevel
    esw_report: EswReport

    @property
    def name(self) -> str:
        return f"{self.program.name}@{self.opt.value}"


def compile_circuit(
    circuit: Circuit,
    window: SlidingWindow,
    n_ges: int,
    opt: OptLevel = OptLevel.RO_RN_ESW,
    params: Optional[ScheduleParams] = None,
    cache: CacheSpec = None,
) -> CompileResult:
    """Compile ``circuit`` for a HAAC with ``n_ges`` GEs and ``window``.

    The segmented configurations reorder within segments of half the
    SWW capacity, the paper's choice.  The static stream verifier
    (:func:`repro.core.verify.verify_streams`) is a separate call on the
    result's ``streams``.

    ``cache`` enables the persistent compiled-program store
    (:mod:`repro.core.progcache`): on a warm hit the pickled result is
    returned without running any pass.  ``None`` (the default) defers to
    the ``REPRO_PROG_CACHE`` environment variable, so sweeps opt in
    without threading a parameter through every call site.
    """
    store = ProgramCache.resolve(cache)
    key = None
    if store is not None:
        key = compile_key(circuit, window.capacity, n_ges, opt, params)
        cached = store.get(key)
        if cached is not None:
            return cached

    lowered = lower_inv(circuit)
    passes = ["assemble"]

    # Canonical EMP program order: depth-first producer-consumer chains
    # (paper section 4.2.1).  This *is* the baseline; the reordering
    # passes level-sort it, in the same permutation.
    passes.append("depth_first(baseline)")
    if not opt.reorders:
        netlist = depth_first_order(lowered.circuit)
    elif opt.segmented:
        netlist = level_reorder(lowered.circuit, window.half)
        passes.append(f"segment_reorder({window.half})")
    else:
        netlist = level_reorder(lowered.circuit)
        passes.append("full_reorder")
    netlist = rename(netlist)
    passes.append("rename")
    program = HaacProgram.from_netlist(
        netlist, name=circuit.name, applied_passes=passes
    )

    # One dependence graph for the renamed program, shared by ESW,
    # stream generation and (through the StreamSet) every sim engine --
    # the rename pass already seeded it, so this is a memo hit.
    graph = dep_graph(netlist)
    program_with_esw, esw_report = eliminate_spent_wires(
        program, window, graph=graph
    )
    if opt.esw:
        program = program_with_esw

    streams = generate_streams(program, window, n_ges, params, graph=graph)
    result = CompileResult(
        program=program,
        lowered=lowered,
        streams=streams,
        window=window,
        opt=opt,
        esw_report=esw_report,
    )
    if store is not None and key is not None:
        # The entry carries the level partition (StreamSet.__getstate__),
        # so warm runs replay level-parallel without the partition pass.
        store.put(key, result)
    return result
