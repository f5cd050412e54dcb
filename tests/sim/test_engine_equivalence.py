"""Cross-model engine equivalence: numpy vs reference.

The contract under test: every timing model (decoupled simulate,
coupled, pull-based, multicore) produces *bit-identical* cycle counts,
stall breakdowns and per-GE issue counts whether it runs on the NumPy
level-parallel engine (the default) or the per-gate reference oracle
(``REPRO_SIM_ENGINE=reference``), across every stdlib circuit family
and every compiler optimization level.  The numpy engine has two paths
chosen from the input -- the closed form over the compile's
``issue_cycle`` for a config at the compile's latencies, the level
replay for any other -- and both sides are held to the oracle here,
including degenerate shapes on the closed form.  This pins the models
down so future engine refactors cannot silently drift cycle counts.  Bank
conflicts have one implementation (the reference replay); their oracle
is the golden table in ``test_bank_conflict_golden.py``.

The fast lane covers all five small stdlib families at every OptLevel;
the exhaustive sweep adds AES-128 (200k gates) and is marked ``slow``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

import repro.sim.engine as engine_module
from repro.circuits.builder import CircuitBuilder
from repro.circuits.stdlib import fixed, integer, logic
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.circuits.stdlib.float import FloatFormat, fp_add
from repro.cli import main
from repro.core.compiler import OptLevel, compile_circuit
from repro.core.passes.streams import TIE_BREAKS
from repro.sim.config import HaacConfig, Role
from repro.sim.coupled import coupled_runtime, pull_based_runtime
from repro.sim.engine import (
    ENGINE_ENV_VAR,
    ENGINE_NUMPY,
    ENGINE_REFERENCE,
    engine_mode,
)
from repro.sim.multicore import simulate_multicore
from repro.sim.timing import simulate
from repro.workloads import get_workload

ALL_ENGINES = (ENGINE_NUMPY, ENGINE_REFERENCE)

#: Engine names and aliases that were once accepted and now fail.
REMOVED_ENGINE_NAMES = (
    "vectorized", "flat", "fast", "auto", "default", "np", "level", "ref",
    "slow",
)


def _logic8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(logic.popcount(b, logic.bitwise_and(b, xs, ys)))
    b.mark_outputs([logic.equals(b, xs, ys), logic.parity(b, xs)])
    b.mark_outputs(logic.mux(b, logic.any_bit(b, ys), xs, ys))
    return b.build("logic8")


def _adder8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(integer.add(b, xs, ys))
    return b.build("adder8")


def _integer8():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(integer.sub(b, xs, ys))
    b.mark_outputs(integer.mul(b, xs, ys))
    b.mark_outputs([integer.less_than(b, xs, ys)])
    return b.build("integer8")


def _fixed8():
    b = CircuitBuilder()
    fmt = fixed.FixedFormat(width=8, fraction_bits=3)
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs(fixed.fx_mul(b, fmt, xs, ys))
    return b.build("fixed8")


def _float8():
    b = CircuitBuilder()
    fmt = FloatFormat(exponent_bits=4, mantissa_bits=3)
    xs = b.add_garbler_inputs(fmt.width)
    ys = b.add_evaluator_inputs(fmt.width)
    b.mark_outputs(fp_add(b, fmt, xs, ys))
    return b.build("float8")


STDLIB_FAMILIES = {
    "logic8": _logic8,
    "adder8": _adder8,
    "integer8": _integer8,
    "fixed8": _fixed8,
    "float8": _float8,
}

ALL_OPTS = list(OptLevel)


@lru_cache(maxsize=None)
def _circuit(family: str):
    if family == "aes128":
        return build_aes128_circuit()
    return STDLIB_FAMILIES[family]()


@lru_cache(maxsize=None)
def _compiled(family: str, opt: OptLevel, sww_bytes: int = 64 * 16):
    config = HaacConfig(n_ges=4, sww_bytes=sww_bytes)
    result = compile_circuit(
        _circuit(family), config.window, config.n_ges,
        opt=opt, params=config.schedule_params(),
    )
    return result, config


def _off_schedule(config):
    """Garbler latencies and a 2-cycle forward on an evaluator compile:
    no latency the replay reads matches the compile's params."""
    return config.with_role(Role.GARBLER)._replace(cross_ge_forward=2)


def _sim_snapshot(streams, config):
    sim = simulate(streams, config)
    return (
        sim.compute_cycles,
        sim.traffic_cycles,
        sim.stalls.as_dict(),
        dict(sim.issued_per_ge),
    )


def _coupled_snapshot(streams, config):
    rows = []
    for queue_bytes in (None, 64, 4096):
        coupled = coupled_runtime(streams, config, queue_bytes)
        rows.append((coupled.cycles, coupled.stall_cycles, coupled.name))
    pull = pull_based_runtime(streams, config)
    rows.append((pull.cycles, pull.stall_cycles, pull.name))
    return rows


def _all_engines(monkeypatch, fn):
    """Run ``fn()`` under each engine; returns one snapshot per engine."""
    snapshots = []
    for engine in ALL_ENGINES:
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        snapshots.append(fn())
    return snapshots


def _assert_identical(snapshots):
    for engine, snapshot in zip(ALL_ENGINES[1:], snapshots[1:]):
        assert snapshot == snapshots[0], f"{engine} diverged from numpy"


class TestEngineMode:
    def test_default_is_numpy_when_importable(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert engine_mode() == ENGINE_NUMPY

    def test_config_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, ENGINE_NUMPY)
        assert engine_mode(ENGINE_REFERENCE) == ENGINE_REFERENCE

    @pytest.mark.parametrize("raw,expected", [
        ("", ENGINE_NUMPY),
        ("numpy", ENGINE_NUMPY),
        (" NumPy ", ENGINE_NUMPY),
        ("reference", ENGINE_REFERENCE),
        ("REFERENCE", ENGINE_REFERENCE),
    ])
    def test_accepted_names(self, monkeypatch, raw, expected):
        monkeypatch.setenv(ENGINE_ENV_VAR, raw)
        assert engine_mode() == expected

    @pytest.mark.parametrize("raw", REMOVED_ENGINE_NAMES + ("turbo",))
    def test_removed_or_unknown_name_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(ENGINE_ENV_VAR, raw)
        with pytest.raises(ValueError, match="'numpy' or 'reference'"):
            engine_mode()

    def test_removed_name_on_config_fails_in_simulate(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        result, config = _compiled("adder8", OptLevel.RO_RN_ESW)
        with pytest.raises(ValueError, match="'numpy' or 'reference'"):
            simulate(result.streams, config.with_sim_engine("vectorized"))

    def test_removed_name_is_a_cli_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "ReLU", "--engine", "vectorized"])
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err


@pytest.mark.parametrize("family", sorted(STDLIB_FAMILIES))
@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.value)
class TestDecoupledEquivalence:
    def test_simulate_identical(self, monkeypatch, level_replays, family, opt):
        """On the compile's schedule: the closed form, no replay."""
        result, config = _compiled(family, opt)
        _assert_identical(_all_engines(
            monkeypatch, lambda: _sim_snapshot(result.streams, config)
        ))
        assert level_replays == []

    def test_off_schedule_identical(self, monkeypatch, level_replays, family, opt):
        """Off the compile's schedule: a one-row level replay."""
        result, config = _compiled(family, opt)
        off = _off_schedule(config)
        _assert_identical(_all_engines(
            monkeypatch, lambda: _sim_snapshot(result.streams, off)
        ))
        assert level_replays == [1]


def _degenerate_zero_gates():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(2)
    b.add_evaluator_inputs(2)
    b.mark_outputs(xs)
    return b.build("zero_gates")


def _degenerate_xor_only():
    b = CircuitBuilder()
    xs = b.add_garbler_inputs(8)
    ys = b.add_evaluator_inputs(8)
    b.mark_outputs([b.XOR(x, y) for x, y in zip(xs, ys)])
    b.mark_outputs([logic.parity(b, xs + ys)])
    return b.build("xor_only")


#: (circuit, config) at the edges of the closed form; every config is
#: the one its program is compiled for.
DEGENERATE = {
    "zero_gates": (_degenerate_zero_gates, HaacConfig(n_ges=2, sww_bytes=64 * 16)),
    "xor_only": (_degenerate_xor_only, HaacConfig(n_ges=4, sww_bytes=64 * 16)),
    "one_ge": (_integer8, HaacConfig(n_ges=1, sww_bytes=64 * 16)),
    # 4 wires: narrower than the circuit's widest level.
    "sww_below_a_level": (_integer8, HaacConfig(n_ges=4, sww_bytes=4 * 16)),
    "no_writeback": (
        _integer8, HaacConfig(n_ges=4, sww_bytes=64 * 16, writeback_stages=0)
    ),
}


class TestClosedFormDegenerate:
    """The closed form equals the reference replay at the edges."""

    @staticmethod
    def _check(circuit, config, level_replays, tie_break="producer"):
        params = replace(config.schedule_params(), tie_break=tie_break)
        result = compile_circuit(
            circuit, config.window, config.n_ges, params=params, cache=False
        )
        _assert_identical([
            _sim_snapshot(result.streams, config.with_sim_engine(engine))
            for engine in ALL_ENGINES
        ])
        assert level_replays == []

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_shape(self, level_replays, case):
        build, config = DEGENERATE[case]
        self._check(build(), config, level_replays)

    @pytest.mark.parametrize("family", ["integer8", "float8"])
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_tie_break(self, level_replays, family, tie_break):
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        self._check(_circuit(family), config, level_replays, tie_break)


class TestReplayDegenerate(TestClosedFormDegenerate):
    """The same edges and tie-breaks off the compile's schedule: a
    one-row level replay, equal to the reference replay.  The 4-wire SWW
    evicts on every level."""

    @staticmethod
    def _check(circuit, config, level_replays, tie_break="producer"):
        params = replace(config.schedule_params(), tie_break=tie_break)
        result = compile_circuit(
            circuit, config.window, config.n_ges, params=params, cache=False
        )
        off = _off_schedule(config)
        _assert_identical([
            _sim_snapshot(result.streams, off.with_sim_engine(engine))
            for engine in ALL_ENGINES
        ])
        # A program with no instructions is timed before either path.
        assert level_replays == ([1] if len(result.program.op) else [])


@pytest.mark.parametrize("family", sorted(STDLIB_FAMILIES))
@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.value)
class TestCoupledEquivalence:
    def test_coupled_and_pull_identical(self, monkeypatch, family, opt):
        result, config = _compiled(family, opt)
        _assert_identical(_all_engines(
            monkeypatch, lambda: _coupled_snapshot(result.streams, config)
        ))

    def test_generous_queues_converge_to_decoupled(self, monkeypatch, family, opt):
        """With effectively infinite queue SRAM the coupled model must
        reproduce the decoupled runtime exactly -- the paper's complete-
        decoupling claim, checked per family and opt level."""
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        result, config = _compiled(family, opt)
        coupled = coupled_runtime(result.streams, config, queue_bytes_per_ge=1 << 40)
        decoupled = simulate(result.streams, config)
        assert coupled.cycles == pytest.approx(decoupled.runtime_cycles)
        assert coupled.slowdown_vs_decoupled == pytest.approx(1.0)


class TestMulticoreEquivalence:
    @pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.value)
    def test_relu_multicore_identical(self, monkeypatch, opt):
        built = get_workload("ReLU").build(k=16, width=8)
        config = HaacConfig(n_ges=4, sww_bytes=16 * 1024)

        def run():
            result = simulate_multicore(built.circuit, config, 4, opt=opt)
            return (
                result.core_compute_cycles,
                result.total_traffic_cycles,
                result.single_core_runtime_s,
                result.shards,
            )

        _assert_identical(_all_engines(monkeypatch, run))

    @pytest.mark.parametrize("family", sorted(STDLIB_FAMILIES))
    def test_families_multicore_identical(self, monkeypatch, family):
        config = HaacConfig(n_ges=4, sww_bytes=16 * 1024)
        circuit = _circuit(family)

        def run():
            result = simulate_multicore(circuit, config, 2)
            return (
                result.core_compute_cycles,
                result.total_traffic_cycles,
                result.single_core_runtime_s,
            )

        _assert_identical(_all_engines(monkeypatch, run))


@pytest.mark.slow
@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.value)
class TestExhaustiveAes:
    """All-families x all-opt-levels is the classes above; this adds the
    200k-gate AES-128 flagship at every opt level."""

    def test_aes128_all_models_identical(self, monkeypatch, opt):
        result, config = _compiled("aes128", opt, sww_bytes=64 * 1024)

        def run():
            return (
                _sim_snapshot(result.streams, config),
                _coupled_snapshot(result.streams, config),
            )

        _assert_identical(_all_engines(monkeypatch, run))


class TestNumpyEngineDetails:
    def test_config_pin_overrides_environment(self, monkeypatch):
        """config.sim_engine wins over REPRO_SIM_ENGINE and all pins
        agree with each other."""
        monkeypatch.setenv(ENGINE_ENV_VAR, ENGINE_REFERENCE)
        result, config = _compiled("adder8", OptLevel.RO_RN_ESW)
        snapshots = [
            _sim_snapshot(result.streams, config.with_sim_engine(engine))
            for engine in ALL_ENGINES
        ]
        _assert_identical(snapshots)

    def test_segment_bias_overflow_raises(self, monkeypatch):
        """The replay's bias bound is a typed error, not an ``assert``
        that ``python -O`` strips: a bias the cycles reach would make
        the segmented prefix max mix GEs and return wrong cycles."""
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        monkeypatch.setattr(engine_module, "_SEG_BIAS", 8)
        config = HaacConfig(n_ges=4, sww_bytes=64 * 16)
        # A fresh compile, so the level plan is built with the small bias.
        result = compile_circuit(
            _circuit("integer8"), config.window, config.n_ges,
            params=config.schedule_params(), cache=False,
        )
        with pytest.raises(OverflowError, match="segment bias"):
            simulate(result.streams, _off_schedule(config))

    def test_levels_respect_dependences(self):
        """Every ordering constraint of the replay crosses (or, for
        in-order issue, never descends) a level boundary."""
        result, _ = _compiled("integer8", OptLevel.RO_RN_ESW)
        arrays = engine_module.compiled_arrays(result.streams).ensure_levels()
        level_of = arrays.level_of
        n_inputs = arrays.n_inputs
        shift = arrays.capacity - n_inputs
        ge_seen = {}
        for p in range(arrays.n_instructions):
            for wire in (arrays.a_of[p], arrays.b_of[p]):
                if wire >= n_inputs:
                    assert level_of[wire - n_inputs] < level_of[p]
                evictor = wire + shift
                if p < evictor < arrays.n_instructions:
                    assert level_of[p] < level_of[evictor]
                if 0 <= evictor < p:
                    assert level_of[p] >= level_of[evictor]
            ge = arrays.ge_of[p]
            if ge in ge_seen:
                assert level_of[p] >= ge_seen[ge]
            ge_seen[ge] = level_of[p]
