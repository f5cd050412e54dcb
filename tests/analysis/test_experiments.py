"""Experiment drivers: every table/figure regenerates with sane shapes.

The rows come from the registered drivers through the one shared
provider of ``conftest.py``; the paper's claims over the same rows are
``test_paper_claims.py``.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.experiments import fig8_ge_scaling, fig10_plaintext
from repro.analysis.report import fmt, geomean, render_table
from repro.core.compiler import OptLevel
from repro.sim.dram import DDR4, HBM2


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
    def test_table1(self, experiment):
        result = experiment("table1")
        assert len(result.rows) == 4
        gcs = result.rows[-1]
        assert gcs[0] == "GCs"
        assert gcs[3] == "Yes"  # arbitrary compute

    def test_table4_matches_paper(self, experiment):
        result = experiment("table4")
        by_name = {row[0]: row for row in result.rows}
        assert by_name["Half-Gate"][1] == pytest.approx(2.15)
        assert by_name["Total HAAC"][1] == pytest.approx(4.33, abs=0.02)
        assert by_name["Total HAAC"][2] == pytest.approx(1502, abs=1)
        assert "0.35" in result.notes


class TestWorkloadTables:
    def test_table2_quick(self, experiment):
        result = experiment("table2")
        assert len(result.rows) == 3
        relu = next(row for row in result.rows if row[0] == "ReLU")
        assert relu[1] == 2  # two levels
        assert relu[4] > 90  # AND share

    def test_table3_quick(self, experiment):
        result = experiment("table3")
        for row in result.rows:
            live_seg, live_full = row[1], row[2]
            total_seg, total_full = row[5], row[6]
            assert total_seg == pytest.approx(row[1] + row[3], rel=1e-6)
            assert total_full == pytest.approx(row[2] + row[4], rel=1e-6)
            assert row[7] in ("seg", "full")

    def test_table5_quick(self, experiment):
        result = experiment("table5")
        assert result.rows, "no prior-work rows produced"
        for row in result.rows:
            ours = row[3]
            assert ours > 0
            assert row[4] == pytest.approx(row[2] / ours, rel=1e-6)


class TestFigures:
    def test_fig6_quick(self, experiment):
        result = experiment("fig6")
        assert len(result.rows) == 3
        for row in result.rows:
            # ESW never hurts relative to RO+RN.
            assert row[3] >= row[2] * 0.999

    def test_fig7_grid(self, experiment):
        result = experiment("fig7")
        assert len(result.rows) == 18  # 2 benchmarks x 3 orders x 3 sizes
        # Wire traffic should not increase with a larger SWW.
        by_order = {}
        for row in result.rows:
            by_order.setdefault((row[0], row[1]), []).append(row[4])
        for series in by_order.values():
            assert len(series) == 3
            assert series[0] >= series[-1] * 0.999

    def test_fig8_quick(self, experiment):
        result = experiment("fig8")
        assert result.headers[2:] == ["1GE", "2GE", "4GE", "8GE", "16GE"]
        for name, dram, *speedups in result.rows:
            assert speedups[-1] >= speedups[0] * 0.999, (name, dram)

    def test_fig8_hbm_at_least_ddr4(self, experiment):
        at_16 = {
            (row[0], row[1]): row[-1] for row in experiment("fig8").rows
        }
        for (name, dram), speedup in at_16.items():
            if dram == "HBM2":
                assert speedup >= at_16[name, "DDR4-4400"] * 0.98

    def test_fig9_quick(self, experiment):
        result = experiment("fig9")
        for row in result.rows:
            shares = row[1:6]
            assert sum(shares) == pytest.approx(100.0, abs=0.5)
            assert row[6] > 0  # efficiency multiplier
        halfgate_shares = [row[1] for row in result.rows]
        assert max(halfgate_shares) > 30

    def test_fig10_quick(self, experiment):
        result = experiment("fig10")
        for row in result.rows:
            cpu, ddr4, hbm2 = row[1], row[2], row[3]
            assert cpu > ddr4 >= hbm2  # HAAC always beats the CPU;
            # HBM2 never slower than DDR4.

    def test_rendering_does_not_crash(self, experiment):
        for result in (experiment("table1"), experiment("table4")):
            text = result.render()
            assert result.name.split(":")[0] in text


class _ReorderStubProvider:
    """Runtime 1 s under ``winner``, 3 s under the other reorder and 9 s
    under any other level, whatever the workload and config."""

    def __init__(self, winner):
        self.winner = winner

    def cpu_time(self, name):
        return 100.0

    def plaintext_time(self, name):
        return 0.5

    def sim_point(self, name, config, opt):
        if opt is self.winner:
            runtime = 1.0
        elif opt in (OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW):
            runtime = 3.0
        else:
            runtime = 9.0
        return SimpleNamespace(runtime_s=runtime)


class TestBetterReorderDeployed:
    """The paper runs both reorders and deploys the better one on DDR4
    (section 6); HBM2 always uses full reordering."""

    @pytest.mark.parametrize("winner", [OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW])
    def test_fig8_ddr4_takes_the_faster_reorder(self, winner):
        result = fig8_ge_scaling(_ReorderStubProvider(winner), True)
        hbm2 = 100.0 if winner is OptLevel.RO_RN_ESW else 100.0 / 3.0
        drams = [row[1] for row in result.rows]
        assert drams == [DDR4.name, HBM2.name] * 3
        for _name, dram, *speedups in result.rows:
            if dram == DDR4.name:
                assert speedups == [100.0] * 5
            else:
                assert speedups == pytest.approx([hbm2] * 5)

    @pytest.mark.parametrize("winner", [OptLevel.RO_RN_ESW, OptLevel.SEG_RN_ESW])
    def test_fig10_takes_the_faster_reorder(self, winner):
        result = fig10_plaintext(_ReorderStubProvider(winner), True)
        for row in result.rows:
            assert row[1:] == [200.0, 2.0, 2.0]
