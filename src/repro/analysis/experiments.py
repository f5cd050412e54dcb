"""One driver per paper table/figure (the per-experiment index of DESIGN.md).

Every function returns structured data plus a rendered text block, so
``repro experiments``, the figure pipeline in
:mod:`repro.analysis.figures` and the paper-claim assertions in
``tests/analysis/test_paper_claims.py`` all read the same rows.

Every number flows through a :class:`~repro.analysis.dataprovider.DataProvider`
-- drivers never call :func:`compile_circuit`/:func:`simulate` directly
and never hardcode a measured value.  Pass ``provider=`` to share one
provider (and its :class:`~repro.store.ResultStore`) across a figure
set; omitted, each driver computes live through the store named by the
``REPRO_RESULT_STORE`` environment variable (or no store at all).

Scaling note: the workloads are scaled down (Table 2 sizes in the
hundreds of kilogates instead of megagates) and the SWW is scaled with
them -- :data:`SCALED_SWW_BYTES` (64 KB) preserves the paper's ratio of
SWW capacity to program wire count, so windows slide, wires go OoR and
spent-wire behaviour is exercised exactly as at paper scale.  Table 4/5
use the paper's literal hardware parameters (they are size-independent
or use the small Table 5 micro-workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..baselines.prior_work import (
    GPU_GATES_PER_US,
    HAAC_PAPER_GATES_PER_US,
    PRIOR_WORK,
)
from ..core.compiler import OptLevel
from ..hwmodel.area import area_model
from ..hwmodel.energy import energy_model
from ..hwmodel.power import power_model
from ..sim.config import HaacConfig, Role
from ..sim.dram import DDR4, HBM2
from ..workloads.registry import PAPER_ORDER
from .dataprovider import DataProvider
from .report import geomean, render_table

__all__ = [
    "SCALED_SWW_BYTES",
    "ExperimentResult",
    "table1_ppc_comparison",
    "table2_characteristics",
    "table3_wire_traffic",
    "table4_area_power",
    "table5_prior_work",
    "fig6_compiler_opts",
    "fig7_ordering_sww",
    "fig8_ge_scaling",
    "fig9_energy",
    "fig10_plaintext",
]

#: SWW size used with the scaled workloads (paper: 2 MB at ~25x larger
#: programs).  64 KB = 4096 wires keeps the same window:program pressure.
SCALED_SWW_BYTES = 64 * 1024

_QUICK_SET = ["DotProd", "Hamm", "ReLU"]


@dataclass
class ExperimentResult:
    """Structured rows + rendered text for one table/figure."""

    name: str
    headers: List[str]
    rows: List[List[Any]]
    notes: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        text = render_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text


def _workload_names(quick: bool) -> List[str]:
    return _QUICK_SET if quick else list(PAPER_ORDER)


def _scaled_config(**overrides: Any) -> HaacConfig:
    params: Dict[str, Any] = dict(n_ges=16, sww_bytes=SCALED_SWW_BYTES, dram=DDR4)
    params.update(overrides)
    return HaacConfig(**params)


def _provider(provider: Optional[DataProvider]) -> DataProvider:
    return provider if provider is not None else DataProvider()


# ---------------------------------------------------------------------------
# Table 1 -- qualitative PPC comparison
# ---------------------------------------------------------------------------


def table1_ppc_comparison() -> ExperimentResult:
    """The paper's taxonomy of PPC techniques (static)."""
    headers = ["Tech", "Conf", "Cntrl", "Arb", "Sec", "Overhead", "Parties", "Alone"]
    rows = [
        ["HE", "Yes", "No", "No", "Noise", "Very High", "1", "Yes"],
        ["TFHE", "Yes", "No", "Yes", "Noise", "Ext. High", "1", "Yes"],
        ["SS", "Yes", "Yes", "No", "I.T.", "Moderate", "2(+)", "No"],
        ["GCs", "Yes", "Yes", "Yes", "AES", "Very High", "2", "Yes"],
    ]
    return ExperimentResult(name="Table 1: PPC comparison", headers=headers, rows=rows)


# ---------------------------------------------------------------------------
# Table 2 -- workload characteristics
# ---------------------------------------------------------------------------


def table2_characteristics(
    quick: bool = False, provider: Optional[DataProvider] = None
) -> ExperimentResult:
    """Levels / wires / gates / AND% / ILP / spent-wire% per workload.

    Spent-wire % assumes the scaled SWW with full reordering, matching
    the paper's "2MB SWW with full reordering" footnote.
    """
    provider = _provider(provider)
    config = _scaled_config()
    headers = [
        "Benchmark", "Levels", "Wires(k)", "Gates(k)", "AND%", "ILP",
        "SpentWire%", "Paper:Lv", "Paper:AND%", "Paper:Spent%",
    ]
    rows: List[List[Any]] = []
    for name in _workload_names(quick):
        stats = provider.circuit_stats(name)
        point = provider.compile_point(name, config, OptLevel.RO_RN_ESW)
        paper = provider.workload(name).paper_table2
        rows.append([
            name,
            stats.levels,
            stats.wires / 1e3,
            stats.gates / 1e3,
            100.0 * stats.and_fraction,
            stats.ilp,
            point.spent_pct,
            paper.levels,
            paper.and_pct,
            paper.spent_wire_pct,
        ])
    return ExperimentResult(
        name="Table 2: benchmark characteristics (scaled workloads)",
        headers=headers,
        rows=rows,
        notes="Paper:* columns are the paper's values at paper-scale inputs.",
    )


# ---------------------------------------------------------------------------
# Table 3 -- wire traffic, segment vs full reorder
# ---------------------------------------------------------------------------


def table3_wire_traffic(
    quick: bool = False, provider: Optional[DataProvider] = None
) -> ExperimentResult:
    """Live / OoRW / total wire counts for segment vs full reordering."""
    provider = _provider(provider)
    config = _scaled_config()
    headers = [
        "Benchmark", "Live Seg(k)", "Live Full(k)", "OoRW Seg(k)",
        "OoRW Full(k)", "Total Seg(k)", "Total Full(k)", "Winner",
    ]
    rows: List[List[Any]] = []
    for name in _workload_names(quick):
        seg = provider.compile_point(name, config, OptLevel.SEG_RN_ESW)
        full = provider.compile_point(name, config, OptLevel.RO_RN_ESW)
        rows.append([
            name,
            seg.live_wires / 1e3, full.live_wires / 1e3,
            seg.oor_wires / 1e3, full.oor_wires / 1e3,
            seg.total_wires / 1e3, full.total_wires / 1e3,
            "seg" if seg.total_wires < full.total_wires else "full",
        ])
    return ExperimentResult(
        name="Table 3: wire traffic, segment vs full reordering (ESW on)",
        headers=headers,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 4 -- area and power
# ---------------------------------------------------------------------------


def table4_area_power(config: Optional[HaacConfig] = None) -> ExperimentResult:
    """Component area/power at the paper's 16 GE / 2 MB / 64-bank point.

    Purely analytic (``area_model`` / ``power_model`` are closed-form in
    the config), so no provider/store round-trip is involved.
    """
    config = config or HaacConfig.paper_default()
    area = area_model(config)
    power = power_model(config)
    headers = ["Component", "Area (mm2)", "Power (mW)"]
    area_dict = area.as_dict()
    power_dict = power.as_dict()
    order = [
        ("Half-Gate", "halfgate"),
        ("FreeXOR", "freexor"),
        ("FWD", "fwd"),
        ("Crossbar", "crossbar"),
        ("SWW (SRAM)", "sww_sram"),
        ("Queues (SRAM)", "queues_sram"),
        ("Total HAAC", "total_haac"),
        ("HBM2 PHY", "hbm2_phy"),
    ]
    rows = [[label, area_dict[key], power_dict[key]] for label, key in order]
    density = power.power_density_w_mm2(area.total_haac)
    return ExperimentResult(
        name="Table 4: HAAC chip area and average power",
        headers=headers,
        rows=rows,
        notes=f"power density = {density:.2f} W/mm^2 (paper: 0.35)",
        extras={"area": area, "power": power},
    )


# ---------------------------------------------------------------------------
# Table 5 -- prior work
# ---------------------------------------------------------------------------


def table5_prior_work(
    quick: bool = False, provider: Optional[DataProvider] = None
) -> ExperimentResult:
    """Prior accelerators vs our simulated HAAC on the same micro-workloads.

    Comparison configuration per the paper: full reordering, 1 MB SWW,
    16 GEs, Garbler role (prior work reports *garbling* time).  The
    paper leaves the memory unstated; its reported times are only
    feasible with HBM2-class bandwidth (e.g. a 5x5 8-bit matmul's
    garbled tables alone exceed DDR4's budget at 1.6 us), so HBM2 is
    used here.
    """
    provider = _provider(provider)
    config = HaacConfig(
        n_ges=16, sww_bytes=1024 * 1024, dram=HBM2, role=Role.GARBLER
    )
    wanted = {"Hamm-50", "Million-8", "Add-6"} if quick else None
    our_time_us: Dict[str, float] = {}
    our_gates: Dict[str, int] = {}
    for entry in PRIOR_WORK:
        name = entry.benchmark
        if wanted is not None and name not in wanted:
            continue
        if name not in our_time_us:
            sim = provider.micro_sim_point(name, config, OptLevel.RO_RN_ESW)
            our_time_us[name] = sim.runtime_s * 1e6
            our_gates[name] = sim.n_instructions
    headers = [
        "System", "Benchmark", "Prior (us)", "Our HAAC (us)",
        "Speedup", "Paper HAAC (us)", "Paper speedup",
    ]
    rows: List[List[Any]] = []
    for entry in PRIOR_WORK:
        if entry.benchmark not in our_time_us:
            continue
        ours = our_time_us[entry.benchmark]
        rows.append([
            entry.system, entry.benchmark, entry.garbling_time_us, ours,
            entry.garbling_time_us / ours if ours else float("inf"),
            entry.paper_haac_us, entry.paper_speedup,
        ])
    extras: Dict[str, Any] = {"our_time_us": our_time_us, "our_gates": our_gates}
    if "AES-128" in our_gates:
        throughput = our_gates["AES-128"] / our_time_us["AES-128"]
        extras["gates_per_us"] = throughput
        extras["gpu_gates_per_us"] = GPU_GATES_PER_US
        extras["paper_haac_gates_per_us"] = HAAC_PAPER_GATES_PER_US
    return ExperimentResult(
        name="Table 5: comparison to prior accelerators (garbling)",
        headers=headers,
        rows=rows,
        notes="Config: full reorder, 1 MB SWW, 16 GEs, Garbler.",
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Figure 6 -- compiler optimization speedups over CPU
# ---------------------------------------------------------------------------


def fig6_compiler_opts(
    quick: bool = False, provider: Optional[DataProvider] = None
) -> ExperimentResult:
    """Speedup over CPU GC: Baseline vs RO+RN vs RO+RN+ESW (DDR4)."""
    provider = _provider(provider)
    config = _scaled_config()
    headers = ["Benchmark", "Baseline", "RO+RN", "RO+RN+ESW", "RO+RN/Base", "ESW/RO+RN"]
    rows: List[List[Any]] = []
    speedups: Dict[str, List[float]] = {"base": [], "rorn": [], "esw": []}
    garbler_evaluator_gap: List[float] = []
    for name in _workload_names(quick):
        cpu_time = provider.cpu_time(name)
        runtimes: Dict[OptLevel, float] = {}
        for opt in (OptLevel.BASELINE, OptLevel.RO_RN, OptLevel.RO_RN_ESW):
            runtimes[opt] = provider.sim_point(name, config, opt).runtime_s
            if opt is OptLevel.RO_RN_ESW:
                garbler_config = config.with_role(Role.GARBLER)
                garbler_time = provider.sim_point(
                    name, garbler_config, opt
                ).runtime_s
                garbler_evaluator_gap.append(garbler_time / runtimes[opt] - 1.0)
        base = cpu_time / runtimes[OptLevel.BASELINE]
        rorn = cpu_time / runtimes[OptLevel.RO_RN]
        esw = cpu_time / runtimes[OptLevel.RO_RN_ESW]
        speedups["base"].append(base)
        speedups["rorn"].append(rorn)
        speedups["esw"].append(esw)
        rows.append([name, base, rorn, esw, rorn / base, esw / rorn])
    notes = (
        f"geomean speedups: baseline {geomean(speedups['base']):.1f}x, "
        f"RO+RN {geomean(speedups['rorn']):.1f}x, "
        f"RO+RN+ESW {geomean(speedups['esw']):.1f}x | "
        f"HAAC garbler is {100*sum(garbler_evaluator_gap)/len(garbler_evaluator_gap):.2f}% "
        "slower than evaluator (paper: 0.67%)"
    )
    return ExperimentResult(
        name="Figure 6: speedup over CPU by compiler configuration (DDR4)",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={"speedups": speedups},
    )


# ---------------------------------------------------------------------------
# Figure 7 -- compute vs wire traffic across orderings and SWW sizes
# ---------------------------------------------------------------------------


def fig7_ordering_sww(
    benchmarks: Sequence[str] = ("MatMult", "BubbSt"),
    sww_sizes: Sequence[int] = (SCALED_SWW_BYTES // 4, SCALED_SWW_BYTES // 2, SCALED_SWW_BYTES),
    provider: Optional[DataProvider] = None,
) -> ExperimentResult:
    """Compute time vs off-chip wire-traffic time per ordering x SWW size.

    The paper's 0.5/1/2 MB x-axis maps to quarter/half/full scaled SWW.
    Wire-traffic time counts only wire movement (OoR reads + live
    writes), isolating the same quantity as the paper's blue bars.
    """
    provider = _provider(provider)
    headers = [
        "Benchmark", "Order", "SWW(KB)", "Compute(us)", "WireTraffic(us)", "Bound",
    ]
    rows: List[List[Any]] = []
    opt_of = {
        "Baseline": OptLevel.BASELINE,
        "Seg": OptLevel.SEG_RN_ESW,
        "FullRO": OptLevel.RO_RN_ESW,
    }
    for name in benchmarks:
        for order, opt in opt_of.items():
            for sww_bytes in sww_sizes:
                config = _scaled_config(sww_bytes=sww_bytes)
                sim = provider.sim_point(name, config, opt)
                point = provider.compile_point(name, config, opt)
                wire_bytes = (
                    (point.live_wires + point.oor_wires) * 16
                    + point.oor_wires * 4
                )
                wire_traffic_s = wire_bytes / config.dram.bandwidth_bytes_per_s
                rows.append([
                    name, order, sww_bytes // 1024,
                    sim.compute_s * 1e6, wire_traffic_s * 1e6,
                    "compute" if sim.compute_s > wire_traffic_s else "memory",
                ])
    return ExperimentResult(
        name="Figure 7: compute vs wire-traffic time (orderings x SWW)",
        headers=headers,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 8 -- GE scaling
# ---------------------------------------------------------------------------


def fig8_ge_scaling(
    quick: bool = False,
    ge_counts: Sequence[int] = (1, 2, 4, 8, 16),
    provider: Optional[DataProvider] = None,
) -> ExperimentResult:
    """Speedup over CPU scaling GEs 1 to 16, DDR4 vs HBM2.

    DDR4 uses the better of segment/full reordering per workload (as the
    paper does); HBM2 always uses full reordering.
    """
    provider = _provider(provider)
    headers = ["Benchmark", "DRAM"] + [f"{n}GE" for n in ge_counts]
    rows: List[List[Any]] = []
    scaling: Dict[str, Dict[str, List[float]]] = {}
    for name in _workload_names(quick):
        cpu_time = provider.cpu_time(name)
        scaling[name] = {}
        for dram in (DDR4, HBM2):
            speedups: List[float] = []
            for n_ges in ge_counts:
                config = _scaled_config(n_ges=n_ges, dram=dram)
                if dram is HBM2:
                    opts = (OptLevel.RO_RN_ESW,)
                else:
                    opts = (OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW)
                best = min(
                    provider.sim_point(name, config, opt).runtime_s
                    for opt in opts
                )
                speedups.append(cpu_time / best)
            rows.append([name, dram.name] + speedups)
            scaling[name][dram.name] = speedups
    return ExperimentResult(
        name="Figure 8: speedup scaling with GE count (vs CPU)",
        headers=headers,
        rows=rows,
        extras={"scaling": scaling, "ge_counts": list(ge_counts)},
    )


# ---------------------------------------------------------------------------
# Figure 9 -- energy
# ---------------------------------------------------------------------------


def fig9_energy(
    quick: bool = False, provider: Optional[DataProvider] = None
) -> ExperimentResult:
    """Component energy breakdown + energy efficiency over the CPU."""
    provider = _provider(provider)
    config = _scaled_config(dram=HBM2)
    headers = [
        "Benchmark", "Half-Gate%", "Crossbar%", "SRAM%", "Others%",
        "HBM2 PHY%", "Eff vs CPU (Kx)",
    ]
    rows: List[List[Any]] = []
    efficiencies: List[float] = []
    for name in _workload_names(quick):
        sim = provider.sim_point(name, config, OptLevel.RO_RN_ESW)
        energy = energy_model(sim, config)
        shares = energy.normalized()
        cpu_time = provider.cpu_time(name)
        eff = energy.efficiency_vs_cpu(cpu_time)
        efficiencies.append(eff)
        rows.append([
            name,
            100 * shares.get("Half-Gate", 0.0),
            100 * shares.get("Crossbar", 0.0),
            100 * shares.get("SRAM", 0.0),
            100 * shares.get("Others", 0.0),
            100 * shares.get("HBM2 PHY", 0.0),
            eff / 1e3,
        ])
    avg_halfgate = sum(row[1] for row in rows) / len(rows)
    return ExperimentResult(
        name="Figure 9: normalized energy breakdown (full reorder, HBM2)",
        headers=headers,
        rows=rows,
        notes=(
            f"Half-Gate avg share {avg_halfgate:.0f}% (paper: 61%); "
            f"avg efficiency {sum(efficiencies)/len(efficiencies)/1e3:.0f} Kx "
            "(paper avg: 53 Kx)"
        ),
        extras={"efficiencies": efficiencies},
    )


# ---------------------------------------------------------------------------
# Figure 10 -- slowdown vs plaintext
# ---------------------------------------------------------------------------


def fig10_plaintext(
    quick: bool = False, provider: Optional[DataProvider] = None
) -> ExperimentResult:
    """GC slowdown relative to plaintext: CPU GC, HAAC DDR4, HAAC HBM2."""
    provider = _provider(provider)
    headers = ["Benchmark", "CPU GC", "HAAC DDR4", "HAAC HBM2"]
    rows: List[List[Any]] = []
    slowdowns: Dict[str, List[float]] = {"cpu": [], "ddr4": [], "hbm2": []}
    integer_hbm2: List[float] = []
    for name in _workload_names(quick):
        plain = provider.plaintext_time(name)
        cpu_time = provider.cpu_time(name)
        haac_times: Dict[str, float] = {}
        for label, dram in (("ddr4", DDR4), ("hbm2", HBM2)):
            config = _scaled_config(dram=dram)
            haac_times[label] = min(
                provider.sim_point(name, config, opt).runtime_s
                for opt in (OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW)
            )
        row = [
            name,
            cpu_time / plain,
            haac_times["ddr4"] / plain,
            haac_times["hbm2"] / plain,
        ]
        rows.append(row)
        slowdowns["cpu"].append(row[1])
        slowdowns["ddr4"].append(row[2])
        slowdowns["hbm2"].append(row[3])
        if name != "GradDesc":
            integer_hbm2.append(row[3])
    notes = (
        f"geomean slowdowns: CPU GC {geomean(slowdowns['cpu']):.0f}x, "
        f"HAAC DDR4 {geomean(slowdowns['ddr4']):.1f}x, "
        f"HAAC HBM2 {geomean(slowdowns['hbm2']):.1f}x "
        f"(integer-only HBM2 {geomean(integer_hbm2):.1f}x; paper: 76x all / 23x integer) | "
        f"HAAC-DDR4 speedup over CPU GC: "
        f"{geomean([c/d for c, d in zip(slowdowns['cpu'], slowdowns['ddr4'])]):.0f}x "
        "(paper: 589x)"
    )
    return ExperimentResult(
        name="Figure 10: slowdown vs plaintext",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={"slowdowns": slowdowns},
    )
