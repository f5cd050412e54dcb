#!/usr/bin/env python3
"""Compiler explorer: watch each HAAC pass transform a program.

Walks one workload through the paper's Figure 5 pipeline -- assemble
(depth-first baseline), reorder (full and segment), rename, ESW, stream
generation -- and prints what each stage does to schedule quality, SWW
behaviour and off-chip traffic, then runs the reorder passes one at a
time to show the locality each one keeps.

Run:  python examples/compiler_explorer.py [workload]
"""

import sys

import numpy as np

from repro.analysis.report import render_table
from repro.core.assembler import lower_inv
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.passes.rename import rename
from repro.core.passes.reorder import (
    depth_first_order, full_reorder, segment_reorder,
)
from repro.sim.config import HaacConfig
from repro.sim.timing import simulate
from repro.workloads import PAPER_ORDER, get_workload


def explore(name: str) -> None:
    workload = get_workload(name)
    built = workload.build_scaled()
    stats = built.circuit.stats()
    print(f"Workload {name}: {stats.gates} gates, depth {stats.levels}, "
          f"AND {100 * stats.and_fraction:.1f} %, ILP {stats.ilp:.0f}")

    config = HaacConfig(n_ges=16, sww_bytes=64 * 1024)
    rows = []
    for opt in OptLevel:
        compiled = compile_circuit(
            built.circuit, config.window, config.n_ges,
            opt=opt, params=config.schedule_params(),
        )
        sim = simulate(compiled.streams, config)
        live, oor, total = compiled.streams.wire_traffic_wires()
        rows.append([
            opt.value,
            compiled.streams.makespan,
            sim.stalls.dependence,
            live,
            oor,
            f"{compiled.esw_report.spent_pct:.1f}" if opt.esw else "-",
            sim.runtime_s * 1e6,
            "mem" if sim.memory_bound else "cpu",
        ])
    print()
    print(render_table(
        ["Config", "Makespan", "DepStalls", "LiveWires", "OoRWires",
         "Spent%", "Runtime(us)", "Bound"],
        rows,
        title=f"Compiler pipeline on {name} (16 GEs, 64 KB SWW, DDR4)",
    ))
    print("\nPasses at ro_rn_esw:",
          ", ".join(
              compile_circuit(
                  built.circuit, config.window, config.n_ges,
                  opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
              ).program.applied_passes
          ))
    reorder_locality(built.circuit, config.window.half)


def reorder_locality(circuit, half: int) -> None:
    """The reorder passes one at a time, each renamed: how far back an
    operand was produced, against the SWW's half (paper section 4.2.1).
    ``compile_circuit`` runs the depth-first walk and the level sort as
    one permutation, with the same result."""
    baseline = depth_first_order(lower_inv(circuit).circuit)
    rows = []
    for label, netlist in (
        ("depth_first", baseline),
        ("full_reorder", full_reorder(baseline)),
        (f"segment_reorder({half})", segment_reorder(baseline, half)),
    ):
        renamed = rename(netlist)
        n_inputs = renamed.n_inputs
        reader = n_inputs + np.arange(len(renamed.op))
        distance = np.concatenate([
            (reader - np.asarray(column))[np.asarray(column) >= n_inputs]
            for column in (renamed.a, renamed.b)
        ])
        rows.append([
            label, f"{distance.mean():.0f}", int(distance.max()),
            f"{100 * np.mean(distance < half):.1f}",
        ])
    print()
    print(render_table(
        ["Order", "MeanDist", "MaxDist", f"Within{half}%"],
        rows,
        title="Producer-to-consumer distance in wires, after rename",
    ))


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Hamm"
    if name not in PAPER_ORDER:
        raise SystemExit(f"unknown workload {name!r}; pick from {PAPER_ORDER}")
    explore(name)


if __name__ == "__main__":
    main()
