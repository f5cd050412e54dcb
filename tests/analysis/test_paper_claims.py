"""The paper's claims, asserted over the rows the figures are built from.

Every table/figure test reads its :class:`ExperimentResult` through
:data:`repro.analysis.figures.EXPERIMENT_DRIVERS` -- the registry
``repro experiments`` and ``repro figures --emit`` iterate -- with one
module-scoped :class:`DataProvider` over a scratch result store, so a
design point shared by two figures is replayed once, and no claim
recomputes a number privately.  Tests are named ``test_<driver key>_...`` (enforced by
``tests/test_packaging.py``).

Claims that hold on the quick three-workload subset (the scale of the
committed ``figures/``) run in the fast lane, parametrised ``quick``;
the same claims at full scale (all eight workloads) and the claims that
name a workload outside the quick subset are marked ``slow``.  The
ablation claims at the bottom build their own circuits; the multi-core
extension's claims (batch workloads shard, GradDesc cannot) are
``tests/sim/test_multicore.py::TestMulticore``.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.analysis.dataprovider import DataProvider
from repro.analysis.experiments import table4_area_power
from repro.analysis.figures import EXPERIMENT_DRIVERS
from repro.analysis.report import geomean
from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib.integer import add, kogge_stone_add, mul
from repro.core.compiler import OptLevel, compile_circuit
from repro.gc.classic import ClassicScheme, garble_classic
from repro.gc.garble import garble_circuit
from repro.sim.config import HaacConfig
from repro.sim.coupled import coupled_runtime, pull_based_runtime
from repro.sim.dram import HBM2
from repro.sim.timing import simulate
from repro.store import ResultStore
from repro.workloads import get_workload

QUICK = pytest.param(True, id="quick")
FULL = pytest.param(False, id="full", marks=pytest.mark.slow)
BOTH_SCALES = [QUICK, FULL]


@pytest.fixture(scope="module")
def provider(tmp_path_factory):
    return DataProvider(store=ResultStore(tmp_path_factory.mktemp("store")))


@pytest.fixture(scope="module")
def experiment(provider):
    """``experiment(key, quick)`` -> the driver's rows, computed once."""
    results = {}

    def run(key, quick=True):
        if (key, quick) not in results:
            results[key, quick] = EXPERIMENT_DRIVERS[key](provider, quick)
            # Every point is in the store now; the in-process compile
            # memo (~27 MB a design point) would otherwise keep all of
            # them alive -- about 2 GB over both scales.
            provider._compiled.clear()
        return results[key, quick]

    return run


def _by_name(result):
    return {row[0]: row for row in result.rows}


def _column(result, header):
    index = result.headers.index(header)
    return [row[index] for row in result.rows]


def _n_workloads(quick):
    return 3 if quick else 8


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_table1_four_techniques(experiment):
    assert len(experiment("table1").rows) == 4


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_table2_structural_anchors(experiment, quick):
    """Anchors that hold at any scale: ReLU is two dependence levels of
    ~97 % AND; Hamming's popcount is XOR-heavy."""
    result = experiment("table2", quick)
    assert len(result.rows) == _n_workloads(quick)
    rows = _by_name(result)
    assert rows["ReLU"][1] == 2
    assert rows["ReLU"][4] > 90
    assert rows["Hamm"][4] < 30


@pytest.mark.slow
def test_table2_ilp_ordering(experiment):
    rows = _by_name(experiment("table2", False))
    assert rows["BubbSt"][5] < rows["MatMult"][5]


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_table3_relu_insensitive_to_ordering(experiment, quick):
    """"Different reordering schemes do not impact ReLU's wire traffic"
    (independent ReLUs have no reuse)."""
    relu = _by_name(experiment("table3", quick))["ReLU"]
    assert relu[5] == pytest.approx(relu[6], rel=0.5)


@pytest.mark.slow
def test_table3_matmult_favours_segment(experiment):
    matmult = _by_name(experiment("table3", False))["MatMult"]
    assert matmult[5] < matmult[6]


def test_table4_reference_design_point(experiment):
    """The model is anchored to the paper's post-layout numbers."""
    rows = _by_name(experiment("table4"))
    assert rows["Total HAAC"][1] == pytest.approx(4.33, abs=0.02)
    assert rows["Total HAAC"][2] == pytest.approx(1502, abs=1)
    assert rows["HBM2 PHY"][1] == pytest.approx(14.9)


def test_table4_area_grows_with_design_point():
    """The parameterised model: 1 GE / 0.5 MB SWW is smaller than
    16 GEs / 2 MB."""
    small = table4_area_power(HaacConfig(n_ges=1, sww_bytes=512 * 1024))
    large = table4_area_power(HaacConfig(n_ges=16, sww_bytes=2 * 1024 * 1024))
    assert _by_name(small)["Total HAAC"][1] < _by_name(large)["Total HAAC"][1]


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_table5_beats_every_prior_accelerator(experiment, quick):
    """"HAAC compares favorably to all prior work"."""
    result = experiment("table5", quick)
    losses = [row for row in result.rows if row[4] < 1.0]
    assert not losses, f"prior work beat us on: {losses}"


@pytest.mark.slow
def test_table5_throughput_beats_gpu(experiment):
    result = experiment("table5", False)
    assert len(result.rows) == 17
    assert result.extras["gates_per_us"] > result.extras["gpu_gates_per_us"]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_fig6_speedups_over_cpu(experiment, quick):
    """Every configuration beats the CPU handily; ESW adds speedup on
    top of RO+RN; ReLU (two levels, almost no spent wires) gains nothing
    from ESW."""
    result = experiment("fig6", quick)
    assert len(result.rows) == _n_workloads(quick)
    assert geomean(_column(result, "Baseline")) > 50
    assert geomean(_column(result, "RO+RN+ESW")) > geomean(_column(result, "RO+RN"))
    assert _by_name(result)["ReLU"][5] == pytest.approx(1.0, abs=0.05)


@pytest.mark.slow
def test_fig6_deep_workloads_gain_most_from_reordering(experiment):
    rows = _by_name(experiment("fig6", False))
    assert rows["BubbSt"][4] > 1.5
    assert rows["GradDesc"][4] > 1.5


def test_fig7_ordering_and_sww(experiment):
    """MatMult: full reordering cuts compute but inflates wire traffic
    past segment reordering; a larger SWW never increases traffic."""
    result = experiment("fig7")
    assert len(result.rows) == 18  # 2 benchmarks x 3 orders x 3 sizes
    cells = defaultdict(dict)
    for name, order, sww_kb, compute_us, traffic_us, _bound in result.rows:
        cells[name, order][sww_kb] = (compute_us, traffic_us)
    for key, by_size in cells.items():
        traffics = [by_size[size][1] for size in sorted(by_size)]
        assert traffics[0] >= traffics[-1] * 0.999, key
    mid = sorted(cells["MatMult", "Baseline"])[1]
    assert cells["MatMult", "FullRO"][mid][0] < cells["MatMult", "Baseline"][mid][0]
    assert cells["MatMult", "FullRO"][mid][1] > cells["MatMult", "Seg"][mid][1]


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_fig8_ge_scaling(experiment, quick):
    """More GEs never hurt, on either memory; HBM2 at 16 GEs is at least
    DDR4."""
    result = experiment("fig8", quick)
    speedups = defaultdict(dict)
    for name, dram, *series in result.rows:
        speedups[name][dram] = series
    assert len(speedups) == _n_workloads(quick)
    for name, by_dram in speedups.items():
        ddr4, hbm2 = by_dram["DDR4-4400"], by_dram["HBM2"]
        assert ddr4[-1] >= ddr4[0] * 0.999, name
        assert hbm2[-1] >= hbm2[0] * 0.999, name
        assert hbm2[-1] >= ddr4[-1] * 0.98, name


@pytest.mark.slow
def test_fig8_high_ilp_scales_better(experiment):
    """MatMult scales ~15.5x 1 -> 16 GEs on HBM2; BubbSt is ILP-bound."""
    hbm2 = {
        row[0]: row[2:] for row in experiment("fig8", False).rows
        if row[1] == "HBM2"
    }
    assert hbm2["MatMult"][-1] / hbm2["MatMult"][0] > (
        hbm2["BubbSt"][-1] / hbm2["BubbSt"][0]
    )


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_fig9_energy(experiment, quick):
    """The Half-Gate unit dominates energy, "Others" are negligible and
    HAAC is > 1000x more energy-efficient than the CPU."""
    result = experiment("fig9", quick)
    assert len(result.rows) == _n_workloads(quick)
    halfgate = _column(result, "Half-Gate%")
    assert sum(halfgate) / len(halfgate) > 30
    assert all(share < 5 for share in _column(result, "Others%"))
    assert all(kx > 1 for kx in _column(result, "Eff vs CPU (Kx)"))


@pytest.mark.parametrize("quick", BOTH_SCALES)
def test_fig10_slowdown_vs_plaintext(experiment, quick):
    """CPU GC is ~10^5x slower than plaintext; HAAC removes most of that
    (paper: 589x over the CPU on DDR4); HBM2 is never slower than DDR4."""
    result = experiment("fig10", quick)
    assert len(result.rows) == _n_workloads(quick)
    cpu = geomean(_column(result, "CPU GC"))
    ddr4 = geomean(_column(result, "HAAC DDR4"))
    hbm2 = geomean(_column(result, "HAAC HBM2"))
    assert 1e4 < cpu < 5e6
    assert cpu / ddr4 > 100
    assert hbm2 <= ddr4 * 1.001


@pytest.mark.slow
def test_fig10_graddesc_worst(experiment):
    """Plaintext CPUs do floating point natively, so GradDesc keeps the
    worst HBM2 slowdown."""
    worst = max(experiment("fig10", False).rows, key=lambda row: row[3])
    assert worst[0] == "GradDesc"


# ---------------------------------------------------------------------------
# Ablations and extensions (own circuits, not driver rows)
# ---------------------------------------------------------------------------

_WIDTH = 32
_CHAIN = 64  # dependent additions: a worst case for ripple depth


def _adder_chain(adder, chain):
    builder = CircuitBuilder()
    acc = builder.add_garbler_inputs(_WIDTH)
    operands = [builder.add_evaluator_inputs(_WIDTH) for _ in range(chain)]
    for operand in operands:
        acc = adder(builder, acc, operand)
    builder.mark_outputs(acc)
    return builder.build(f"chain{chain}")


def test_ablation_adders_ilp_vs_work(provider):
    """Kogge-Stone halves a single add's depth, but 64 dependent ripple
    adds skew-pipeline (chain depth ~ width + chain, not width * chain),
    so the cheaper ripple chain is no slower on 16 GEs.  Fewer ANDs win
    on HAAC here.  (KS costing more ANDs is
    ``tests/circuits/test_stdlib_integer_ext.py::TestKoggeStone``.)"""
    single = {adder: _adder_chain(adder, 1).stats() for adder in (add, kogge_stone_add)}
    assert single[kogge_stone_add].levels < single[add].levels / 2
    ripple, ks = _adder_chain(add, _CHAIN), _adder_chain(kogge_stone_add, _CHAIN)
    assert ripple.stats().levels < _WIDTH * _CHAIN / 4
    config = HaacConfig(n_ges=16, sww_bytes=64 * 1024, dram=HBM2)
    runtime = {
        circuit.name: provider.sim_point_for(circuit, config, OptLevel.RO_RN_ESW).runtime_s
        for circuit in (ripple, ks)
    }
    assert runtime[ripple.name] <= runtime[ks.name] * 1.05


def test_ablation_banks_four_per_ge_works_well():
    """"4 banks per GE works well to minimize banking while avoiding
    contention": conflicts fall monotonically with banking, 4 banks/GE
    is within 5 % of 8, and 1 bank/GE is no faster than 4."""
    circuit = get_workload("DotProd").build_scaled().circuit
    config = HaacConfig(n_ges=16, sww_bytes=64 * 1024, model_bank_conflicts=True)
    compiled = compile_circuit(
        circuit, config.window, config.n_ges,
        opt=OptLevel.RO_RN_ESW, params=config.schedule_params(),
    )
    conflicts, cycles = {}, {}
    for banks in (1, 2, 4, 8):
        sim = simulate(compiled.streams, config._replace(banks_per_ge=banks))
        conflicts[banks] = sim.stalls.bank_conflict
        cycles[banks] = sim.compute_cycles
    assert conflicts[1] >= conflicts[2] >= conflicts[4] >= conflicts[8]
    assert cycles[4] <= cycles[8] * 1.05
    assert cycles[1] >= cycles[4]


def test_ablation_decoupling():
    """Section 3.1.4: provisioned queues recover the decoupled runtime;
    pull-based OoR misses never beat them and hurt at least one workload
    materially."""
    config = HaacConfig(n_ges=16, sww_bytes=64 * 1024)
    pull_slowdowns = []
    for name in ("DotProd", "Hamm", "BubbSt"):
        compiled = compile_circuit(
            get_workload(name).build_scaled().circuit, config.window,
            config.n_ges, opt=OptLevel.RO_RN_ESW,
            params=config.schedule_params(),
        )
        coupled = coupled_runtime(compiled.streams, config).slowdown_vs_decoupled
        pull = pull_based_runtime(compiled.streams, config).slowdown_vs_decoupled
        assert coupled < 1.25, name
        assert pull >= coupled * 0.999, name
        pull_slowdowns.append(pull)
    assert max(pull_slowdowns) > 1.2


def _mult16():
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(16)
    ys = builder.add_evaluator_inputs(16)
    builder.mark_outputs(mul(builder, xs, ys))
    return builder.build("mult16")


def test_ablation_rekeying_changes_the_garbling():
    """Re-keyed and fixed-key hashing are two different (both correct)
    garblings of one circuit and seed.  The work counts -- one key
    expansion per hash re-keyed, one in total fixed-key -- are
    ``tests/gc/test_garble_evaluate.py::TestDeterminismAndAccounting``."""
    circuit = _mult16()
    rekeyed = garble_circuit(circuit, seed=7, rekeyed=True)
    fixed = garble_circuit(circuit, seed=7, rekeyed=False)
    assert rekeyed.garbled.tables != fixed.garbled.tables


def test_ablation_scheme_lineage_shrinks_communication():
    """Section 7's lineage: Yao4 > P&P4 > GRR3 > Half-Gate + FreeXOR in
    total table bytes; classic schemes table every gate, FreeXOR only
    the ANDs."""
    builder = CircuitBuilder()
    xs = builder.add_garbler_inputs(16)
    ys = builder.add_evaluator_inputs(16)
    builder.mark_outputs(add(builder, xs, ys))
    builder.mark_outputs(mul(builder, xs, ys))
    circuit = builder.build("add+mul16")
    stats = circuit.stats()
    classic = [garble_classic(circuit, scheme, seed=1) for scheme in ClassicScheme]
    halfgate = garble_circuit(circuit, seed=1).garbled
    totals = [g.total_table_bytes() for g in classic] + [halfgate.table_bytes()]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert len(classic[0].tables) == stats.gates
    assert halfgate.n_and_gates == stats.and_gates
