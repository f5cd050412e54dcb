"""Experiment drivers: every table/figure regenerates with sane shapes.

The paper's claims over the same rows are ``test_paper_claims.py``.
"""

import pytest

from repro.analysis.experiments import (
    fig6_compiler_opts,
    fig7_ordering_sww,
    fig8_ge_scaling,
    fig9_energy,
    fig10_plaintext,
    table1_ppc_comparison,
    table2_characteristics,
    table3_wire_traffic,
    table4_area_power,
    table5_prior_work,
)
from repro.analysis.report import fmt, geomean, render_table


class TestReport:
    def test_render_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_fmt(self):
        assert fmt(True) == "yes"
        assert fmt(1234567.0) == "1.23e+06"
        assert fmt(0.25) == "0.25"
        assert fmt("x") == "x"
        assert fmt(0.0) == "0"

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert geomean([]) == 0.0
        assert geomean([0, 4]) == pytest.approx(4.0)  # zeros filtered


class TestStaticTables:
    def test_table1(self):
        result = table1_ppc_comparison()
        assert len(result.rows) == 4
        gcs = result.rows[-1]
        assert gcs[0] == "GCs"
        assert gcs[3] == "Yes"  # arbitrary compute

    def test_table4_matches_paper(self):
        result = table4_area_power()
        by_name = {row[0]: row for row in result.rows}
        assert by_name["Half-Gate"][1] == pytest.approx(2.15)
        assert by_name["Total HAAC"][1] == pytest.approx(4.33, abs=0.02)
        assert by_name["Total HAAC"][2] == pytest.approx(1502, abs=1)
        assert "0.35" in result.notes


class TestWorkloadTables:
    def test_table2_quick(self):
        result = table2_characteristics(quick=True)
        assert len(result.rows) == 3
        relu = next(row for row in result.rows if row[0] == "ReLU")
        assert relu[1] == 2  # two levels
        assert relu[4] > 90  # AND share

    def test_table3_quick(self):
        result = table3_wire_traffic(quick=True)
        for row in result.rows:
            live_seg, live_full = row[1], row[2]
            total_seg, total_full = row[5], row[6]
            assert total_seg == pytest.approx(row[1] + row[3], rel=1e-6)
            assert total_full == pytest.approx(row[2] + row[4], rel=1e-6)
            assert row[7] in ("seg", "full")

    def test_table5_quick(self):
        result = table5_prior_work(quick=True)
        assert result.rows, "no prior-work rows produced"
        for row in result.rows:
            ours = row[3]
            assert ours > 0
            assert row[4] == pytest.approx(row[2] / ours, rel=1e-6)


class TestFigures:
    def test_fig6_quick(self):
        result = fig6_compiler_opts(quick=True)
        assert len(result.rows) == 3
        for row in result.rows:
            # ESW never hurts relative to RO+RN.
            assert row[3] >= row[2] * 0.999

    def test_fig7_small(self):
        result = fig7_ordering_sww(benchmarks=("DotProd",))
        assert len(result.rows) == 9  # 3 orders x 3 sizes
        # Wire traffic should not increase with a larger SWW.
        by_order = {}
        for row in result.rows:
            by_order.setdefault(row[1], []).append(row[4])
        for order, series in by_order.items():
            assert series[0] >= series[-1] * 0.999

    def test_fig8_quick(self):
        result = fig8_ge_scaling(quick=True, ge_counts=(1, 4))
        scaling = result.extras["scaling"]
        for name, by_dram in scaling.items():
            for dram, speedups in by_dram.items():
                assert speedups[-1] >= speedups[0] * 0.999, (name, dram)

    def test_fig8_hbm_at_least_ddr4(self):
        result = fig8_ge_scaling(quick=True, ge_counts=(16,))
        scaling = result.extras["scaling"]
        for name, by_dram in scaling.items():
            assert by_dram["HBM2"][0] >= by_dram["DDR4-4400"][0] * 0.98

    def test_fig9_quick(self):
        result = fig9_energy(quick=True)
        for row in result.rows:
            shares = row[1:6]
            assert sum(shares) == pytest.approx(100.0, abs=0.5)
            assert row[6] > 0  # efficiency multiplier
        halfgate_shares = [row[1] for row in result.rows]
        assert max(halfgate_shares) > 30

    def test_fig10_quick(self):
        result = fig10_plaintext(quick=True)
        for row in result.rows:
            cpu, ddr4, hbm2 = row[1], row[2], row[3]
            assert cpu > ddr4 >= hbm2  # HAAC always beats the CPU;
            # HBM2 never slower than DDR4.

    def test_rendering_does_not_crash(self):
        for result in (
            table1_ppc_comparison(),
            table4_area_power(),
        ):
            text = result.render()
            assert result.name.split(":")[0] in text
