"""The eight VIP-Bench workloads: structure and plaintext correctness."""

import random

import pytest

from repro.workloads import PAPER_ORDER, WORKLOADS, get_workload
from repro.workloads.grad_desc import reference as grad_desc_reference
from repro.workloads.mersenne import reference as mersenne_reference

_SMALL = {
    "BubbSt": {"n": 6, "width": 8},
    "DotProd": {"n": 6, "width": 8},
    "Merse": {"state_n": 4, "state_m": 2, "n_outputs": 4},
    "Triangle": {"n": 8},
    "Hamm": {"n_bits": 64},
    "MatMult": {"n": 3, "width": 8},
    "ReLU": {"k": 8, "width": 8},
    "GradDesc": {"n_points": 2, "rounds": 1},
}


def _random_inputs(name, rng):
    """Domain-level random inputs for each workload."""
    if name == "BubbSt":
        return ([rng.randrange(256) for _ in range(6)],)
    if name == "DotProd":
        return (
            [rng.randrange(256) for _ in range(6)],
            [rng.randrange(256) for _ in range(6)],
        )
    if name == "Merse":
        return ([rng.randrange(1 << 32) for _ in range(4)], rng.randint(0, 1))
    if name == "Triangle":
        n = 8
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adj[i][j] = adj[j][i] = rng.randint(0, 1)
        return (adj,)
    if name == "Hamm":
        return (
            [rng.randint(0, 1) for _ in range(64)],
            [rng.randint(0, 1) for _ in range(64)],
        )
    if name == "MatMult":
        a = [[rng.randrange(256) for _ in range(3)] for _ in range(3)]
        b = [[rng.randrange(256) for _ in range(3)] for _ in range(3)]
        return (a, b)
    if name == "ReLU":
        return ([rng.randrange(256) for _ in range(8)],)
    if name == "GradDesc":
        return (
            0.0,
            0.0,
            [rng.uniform(-2, 2) for _ in range(2)],
            [rng.uniform(-2, 2) for _ in range(2)],
        )
    raise AssertionError(name)


class TestRegistry:
    def test_paper_order_complete(self):
        assert PAPER_ORDER == [
            "BubbSt", "DotProd", "Merse", "Triangle",
            "Hamm", "MatMult", "ReLU", "GradDesc",
        ]
        assert set(WORKLOADS) == set(PAPER_ORDER)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("Sorting")

    def test_paper_table2_rows_pinned(self):
        assert WORKLOADS["BubbSt"].paper_table2.levels == 75636
        assert WORKLOADS["ReLU"].paper_table2.levels == 2
        assert WORKLOADS["GradDesc"].paper_table2.ilp == 60

    def test_plaintext_ops_positive(self):
        for workload in WORKLOADS.values():
            assert workload.plaintext_ops(**workload.scaled_params) > 0


@pytest.mark.parametrize("name", PAPER_ORDER)
class TestCircuitCorrectness:
    def test_matches_reference(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        built = get_workload(name).build(**_SMALL[name])
        for _ in range(3):
            args = _random_inputs(name, rng)
            g, e = built.encode_inputs(*args)
            assert built.circuit.eval_plain(g, e) == built.reference(*args)

    def test_decode_outputs_consistent(self, name):
        rng = random.Random(hash(name) & 0xFFF)
        built = get_workload(name).build(**_SMALL[name])
        args = _random_inputs(name, rng)
        g, e = built.encode_inputs(*args)
        bits = built.circuit.eval_plain(g, e)
        decoded = built.decode_outputs(bits)
        assert decoded is not None

    def test_circuit_validates(self, name):
        built = get_workload(name).build(**_SMALL[name])
        built.circuit.validate()


class TestStructuralShape:
    """Table 2's qualitative structure must hold at any scale."""

    def test_relu_two_levels_mostly_and(self):
        built = get_workload("ReLU").build(k=16, width=16)
        stats = built.circuit.stats()
        assert stats.levels == 2
        assert stats.and_fraction > 0.9

    def test_bubble_sort_is_deep(self):
        built = get_workload("BubbSt").build(n=8, width=8)
        stats = built.circuit.stats()
        assert stats.levels > 50
        assert stats.ilp < 50

    def test_matmult_widest_ilp(self):
        built = get_workload("MatMult").build(n=3, width=8)
        stats = built.circuit.stats()
        assert stats.ilp > 100

    def test_hamm_low_and_fraction(self):
        built = get_workload("Hamm").build(n_bits=512)
        stats = built.circuit.stats()
        assert stats.and_fraction < 0.3

    def test_graddesc_deep_and_serial(self):
        built = get_workload("GradDesc").build(n_points=2, rounds=2)
        stats = built.circuit.stats()
        assert stats.levels > 500


class TestReferences:
    def test_mersenne_reference_is_mt_like(self):
        out1 = mersenne_reference([1] * 4, 0, 4, 2, 4)
        out2 = mersenne_reference([1] * 4, 1, 4, 2, 4)
        assert out1 != out2  # salt changes the stream
        assert all(0 <= w < (1 << 32) for w in out1)

    def test_grad_desc_converges_toward_fit(self):
        """GD on y = 2x must move w toward 2 from 0."""
        xs = [0.5, 1.0, 1.5, 2.0]
        ys = [1.0, 2.0, 3.0, 4.0]
        from repro.circuits.stdlib.float import FP16

        w_pat, b_pat = grad_desc_reference(
            0.0, 0.0, xs, ys, rounds=12, fmt=FP16, learning_rate=0.05
        )
        w = FP16.decode(w_pat)
        assert 1.0 < w < 3.0

    def test_bad_input_sizes_rejected(self):
        built = get_workload("DotProd").build(n=4, width=8)
        with pytest.raises(ValueError):
            built.encode_inputs([1, 2], [3, 4])

    def test_workload_param_overrides(self):
        built = get_workload("Hamm").build_scaled(n_bits=128)
        assert built.params["n_bits"] == 128
