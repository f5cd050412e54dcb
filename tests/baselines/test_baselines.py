"""CPU / plaintext cost models and prior-work data."""

import pytest

from repro.baselines.cpu_model import DEFAULT_CPU
from repro.baselines.plaintext import DEFAULT_PLAINTEXT
from repro.baselines.prior_work import (
    MICRO_WORKLOADS,
    PRIOR_WORK,
    build_micro,
)
from repro.workloads.registry import WORKLOADS


class TestCpuModel:
    def test_time_scales_with_gates(self):
        t1 = DEFAULT_CPU.eval_time_s(100, 100)
        t2 = DEFAULT_CPU.eval_time_s(200, 200)
        assert t2 == pytest.approx(2 * t1)

    def test_and_costs_more_than_xor(self):
        and_only = DEFAULT_CPU.eval_time_s(1000, 0)
        xor_only = DEFAULT_CPU.eval_time_s(0, 1000)
        assert and_only > xor_only

    def test_slowdown_vs_plaintext_in_paper_range(self):
        """Calibration anchor: CPU GC should be ~10^5x slower than
        plaintext across the workloads (paper: 198,000x average)."""
        ratios = []
        for name in ("DotProd", "Hamm", "MatMult"):
            workload = WORKLOADS[name]
            built = workload.build_scaled()
            cpu = DEFAULT_CPU.eval_time_for(built.circuit)
            plain = DEFAULT_PLAINTEXT.time_for(workload)
            ratios.append(cpu / plain)
        geo = 1.0
        for r in ratios:
            geo *= r
        geo **= 1 / len(ratios)
        assert 1e4 < geo < 5e6


class TestPlaintextModel:
    def test_time_positive(self):
        for workload in WORKLOADS.values():
            assert DEFAULT_PLAINTEXT.time_for(workload) > 0

    def test_scales_with_ops(self):
        assert DEFAULT_PLAINTEXT.time_s(2000) == pytest.approx(
            2 * DEFAULT_PLAINTEXT.time_s(1000)
        )

    def test_param_override(self):
        base = DEFAULT_PLAINTEXT.time_for(WORKLOADS["Hamm"])
        bigger = DEFAULT_PLAINTEXT.time_s(WORKLOADS["Hamm"].plaintext_ops(n_bits=4096))
        assert bigger > base


class TestPriorWork:
    def test_table5_rows_present(self):
        systems = {entry.system for entry in PRIOR_WORK}
        assert "FASE" in systems
        assert "MAXelerator" in systems
        assert "FPGA Overlay" in systems
        assert len(PRIOR_WORK) == 17

    def test_paper_speedups_recorded(self):
        fase_aes = next(
            e for e in PRIOR_WORK if e.system == "FASE" and e.benchmark == "AES-128"
        )
        assert fase_aes.garbling_time_us == pytest.approx(439.0)
        assert fase_aes.paper_speedup == pytest.approx(122.0)

    @pytest.mark.parametrize(
        "name", ["Add-6", "Add-16", "Mult-32", "Hamm-50", "Million-2", "Million-8"]
    )
    def test_micro_workloads_build(self, name):
        circuit = build_micro(name)
        circuit.validate()
        assert len(circuit.gates) > 0

    def test_millionaire_semantics(self):
        circuit = build_micro("Million-8")
        # Alice=200, Bob=100 -> Bob is poorer -> bob < alice = 1.
        a = [(200 >> i) & 1 for i in range(8)]
        b = [(100 >> i) & 1 for i in range(8)]
        assert circuit.eval_plain(a, b) == [1]
        assert circuit.eval_plain(b, a) == [0]

    def test_matmul_micro_shapes(self):
        circuit = build_micro("5x5Matx-8")
        assert circuit.n_garbler_inputs == 5 * 5 * 8
        assert len(circuit.outputs) == 5 * 5 * 8

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_micro("nope")

    def test_every_table5_benchmark_buildable(self):
        for entry in PRIOR_WORK:
            assert entry.benchmark in MICRO_WORKLOADS
