#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every table/figure driver.

Run:  python scripts/generate_experiments.py [--quick]

Takes several minutes at full scale (the cycle-level simulator compiles
and replays every workload many times).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.analysis import experiments as exp
from repro.analysis.dataprovider import DataProvider
from repro.analysis.report import geomean

ROOT = pathlib.Path(__file__).resolve().parent.parent

HEADER = """\
# EXPERIMENTS — paper vs. reproduction

Generated by `python scripts/generate_experiments.py`.  Every table and
figure of HAAC's evaluation (ISCA 2023) is regenerated by the drivers in
`repro.analysis.experiments` (also exposed as `python -m repro
figures <id>`); the paper's claims are asserted over the same rows
in `tests/analysis/test_paper_claims.py`.

## Scaling and calibration (read first)

* **Workloads are scaled down** (DESIGN.md section 2): the paper's
  VIP-Bench instances reach 12.5 M gates; ours default to ~20-300 k so
  the pure-Python cycle-level simulator finishes in seconds.  The SWW is
  scaled with them (64 KB vs 2 MB) to preserve the window:program
  pressure that drives OoR/spent-wire behaviour.  Table 4 and Table 5
  use the paper's literal hardware parameters.
* **The CPU baseline is a model** calibrated to two anchors the paper
  states: CPU GCs are ~198,000x slower than plaintext across VIP-Bench,
  and garbling is 11.9 % slower than evaluation.  Absolute speedups move
  with this anchor; *shapes* (who wins, where crossovers fall) do not.
* **Expected agreement**: directional/structural claims reproduce
  (memory-boundedness, which workloads favour segment vs full
  reordering, ReLU's insensitivity, ESW's gains, GE scaling shapes,
  energy split, Table 4 exactly).  Absolute speedups land within the
  same order of magnitude but not at the paper's exact values -- our
  substrate is an analytical simulator, not the authors' RTL + testbed,
  and the scaled workloads are relatively wider (higher traffic-to-
  compute ratio) than paper-scale ones.

"""

PAPER_NOTES = {
    "table1": "Static taxonomy; matches the paper verbatim.",
    "table2": (
        "Paper values are at paper-scale inputs; our scaled circuits "
        "keep the structural shape (ReLU depth 2 / ~97% AND, BubbSt and "
        "GradDesc deep with lowest ILP, MatMult widest)."
    ),
    "table3": (
        "Paper: MatMult/DotProd/Merse/Triangle/ReLU favour segment "
        "reordering, BubbSt/GradDesc/Hamm full.  Our scaled windows "
        "agree on the strongest effects (MatMult ~4x in segment's "
        "favour, ReLU, and BubbSt/Hamm in full's favour); the workloads "
        "the paper shows as close calls flip at our smaller scale.  "
        "Either way the compiler picks the winner deterministically, "
        "which is the mechanism the paper relies on."
    ),
    "table4": "Anchored model: reproduces the paper's numbers exactly.",
    "table5": (
        "Published prior-work times vs our simulated HAAC (full reorder, "
        "1 MB SWW, 16 GEs, Garbler, HBM2 -- the paper leaves the memory "
        "unstated and its times are only feasible with HBM2-class "
        "bandwidth: a 5x5 8-bit matmul's garbled tables alone exceed "
        "DDR4's budget at 1.6 us).  Our AES-128 circuit uses an "
        "unoptimised Itoh-Tsujii S-box (256 ANDs vs Boyar-Peralta's 32), "
        "so its absolute time is inflated ~8x relative to an optimised "
        "netlist; HAAC still beats all prior work.  Our cycles/gate on "
        "the matmul micro-benchmarks (~0.064) matches the paper's 0.079 "
        "(vs FASE's 1.7)."
    ),
    "fig6": (
        "Paper: RO+RN gives 3.1x over baseline on average, ESW another "
        "2.1x; ReLU does not benefit from reordering.  Our scaled runs "
        "reproduce the per-workload directions (BubbSt/GradDesc gain "
        "most; ReLU flat; MatMult hurt by full reorder at small SWW); "
        "aggregate gains are smaller because the scaled workloads are "
        "more bandwidth-bound at baseline."
    ),
    "fig7": (
        "Paper Figure 7's two-bar analysis: runtime = max(compute, wire "
        "traffic).  Reproduced: MatMult baseline compute-bound, full "
        "reorder slashes compute but inflates traffic, segment keeps "
        "baseline traffic; larger SWW monotonically cuts traffic."
    ),
    "fig8": (
        "Paper: DDR4 speedups plateau when bandwidth saturates; HBM2 "
        "keeps scaling (MatMult up to 15.5x from 1 to 16 GEs); BubbSt "
        "and GradDesc scale poorly (low ILP).  All reproduced."
    ),
    "fig9": (
        "Paper: Half-Gate dominates energy (61 % average), FreeXOR/FWD "
        "negligible, average 53,060x energy efficiency vs CPU."
    ),
    "fig10": (
        "Paper: CPU GC ~198,000x slower than plaintext; HAAC closes most "
        "of the gap (geomean 76x vs plaintext with HBM2, 23x integer-"
        "only); GradDesc worst (native FP on CPU).  Directions and "
        "orders of magnitude reproduced."
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--output", default=str(ROOT / "EXPERIMENTS.md"), help="output path"
    )
    parser.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="content-addressed result store: flag alone for the default "
        "directory, or a path; cached design points are served without "
        "recompiling/replaying (default: $REPRO_RESULT_STORE)",
    )
    args = parser.parse_args()
    quick = args.quick
    # One provider for the whole run: design points shared between
    # tables/figures compile once, and with --store a rerun serves every
    # previously-seen point from disk.
    provider = DataProvider(store=args.store)

    sections = []
    runs = [
        ("table1", "Table 1 — PPC comparison", lambda: exp.table1_ppc_comparison()),
        (
            "table2",
            "Table 2 — benchmark characteristics",
            lambda: exp.table2_characteristics(quick=quick, provider=provider),
        ),
        (
            "table3",
            "Table 3 — wire traffic: segment vs full reorder",
            lambda: exp.table3_wire_traffic(quick=quick, provider=provider),
        ),
        ("table4", "Table 4 — area and power", lambda: exp.table4_area_power()),
        (
            "table5",
            "Table 5 — prior accelerators",
            lambda: exp.table5_prior_work(quick=quick, provider=provider),
        ),
        (
            "fig6",
            "Figure 6 — compiler optimization speedups",
            lambda: exp.fig6_compiler_opts(quick=quick, provider=provider),
        ),
        (
            "fig7",
            "Figure 7 — compute vs wire traffic",
            lambda: exp.fig7_ordering_sww(provider=provider),
        ),
        (
            "fig8",
            "Figure 8 — GE scaling",
            lambda: exp.fig8_ge_scaling(
                quick=quick, ge_counts=(1, 2, 4, 8, 16), provider=provider
            ),
        ),
        (
            "fig9",
            "Figure 9 — energy",
            lambda: exp.fig9_energy(quick=quick, provider=provider),
        ),
        (
            "fig10",
            "Figure 10 — slowdown vs plaintext",
            lambda: exp.fig10_plaintext(quick=quick, provider=provider),
        ),
    ]
    for key, title, fn in runs:
        start = time.time()
        print(f"[{key}] running ...", flush=True)
        result = fn()
        elapsed = time.time() - start
        print(f"[{key}] done in {elapsed:.1f}s", flush=True)
        body = result.render()
        sections.append(
            f"## {title}\n\n{PAPER_NOTES[key]}\n\n```\n{body}\n```\n"
        )

    text = HEADER + "\n".join(sections)
    pathlib.Path(args.output).write_text(text)
    print(f"provider counters: {provider.stats()}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
