"""FaultPlan spec parsing, determinism and resolution precedence."""

from __future__ import annotations

import pytest

from repro.faults import (
    FAULT_KINDS,
    FRAME_FAULTS,
    PROCESS_CHAOS,
    FaultKindUnsupported,
    FaultPlan,
    parse_fault_spec,
    resolve_fault_plan,
)


class TestParseFaultSpec:
    def test_rates_and_seed(self):
        plan = parse_fault_spec("drop:0.05,tamper:0.1,seed=7")
        assert plan.rates == {"drop": 0.05, "tamper": 0.1}
        assert plan.seed == 7

    def test_bare_name_means_rate_one(self):
        plan = parse_fault_spec("kill_party,sever:0.5")
        assert plan.rates == {"kill_party": 1.0, "sever": 0.5}

    def test_seed_accepts_hex(self):
        assert parse_fault_spec("drop:1,seed=0x10").seed == 16

    def test_empty_parts_ignored(self):
        plan = parse_fault_spec(" drop:0.5 , , seed=3 ")
        assert plan.rates == {"drop": 0.5}
        assert plan.seed == 3

    @pytest.mark.parametrize("spec, match", [
        ("explode:0.5", "unknown fault kind"),
        ("kill_worker:0.5", "unknown fault kind"),
        ("tear_cache:0.5", "unknown fault kind"),
        ("drop:0.1,drop:0.9,seed=3", "'drop' given twice"),
    ], ids=["explode", "kill_worker", "tear_cache", "repeated"])
    def test_bad_kind_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_fault_spec(spec)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="bad fault rate"):
            parse_fault_spec("drop:lots")

    @pytest.mark.parametrize("spec, match", [
        ("drop:1,seed=banana", "bad fault seed"),
        ("drop:1,seed=3,seed=3", "seed given twice"),
    ], ids=["banana", "repeated"])
    def test_bad_seed_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_fault_spec(spec)

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match="out of"):
            parse_fault_spec("drop:1.5")

    def test_spec_round_trips(self):
        plan = parse_fault_spec("drop:0.05,corrupt:0.25,seed=9")
        again = parse_fault_spec(plan.spec())
        assert again.rates == plan.rates
        assert again.seed == plan.seed

    def test_kind_constants_cover_registry(self):
        assert set(FAULT_KINDS) == set(FRAME_FAULTS) | set(PROCESS_CHAOS)

    def test_process_chaos_kinds_parse(self):
        plan = parse_fault_spec("kill_party:0.5,sever:0.25,stall,seed=4")
        assert plan.rates == {
            "kill_party": 0.5, "sever": 0.25, "stall": 1.0,
        }

    def test_chaos_kinds_draw_unconditionally(self):
        # Like frame_faults: the RNG stream depends only on the call
        # sequence, never on which kinds happen to be armed -- so two
        # plans differing only in armed chaos kinds stay in lockstep.
        a = parse_fault_spec("kill_party,seed=6")
        b = parse_fault_spec("stall,seed=6")
        for seq in range(10):
            a.chaos_kinds(f"s#{seq}")
            b.chaos_kinds(f"s#{seq}")
        assert a.choose_offset(1000) == b.choose_offset(1000)

    def test_chaos_kinds_priority_order_and_determinism(self):
        spec = "kill_party:0.4,sever:0.4,stall:0.4,seed=13"
        a = parse_fault_spec(spec)
        b = parse_fault_spec(spec)
        draws_a = [a.chaos_kinds(f"s#{i}") for i in range(20)]
        draws_b = [b.chaos_kinds(f"s#{i}") for i in range(20)]
        assert draws_a == draws_b
        # Kinds come back in PROCESS_CHAOS order, ready for the
        # supervisor's pick-first priority rule.
        for kinds in draws_a:
            order = [PROCESS_CHAOS.index(k) for k in kinds]
            assert order == sorted(order)
        assert any(len(kinds) > 1 for kinds in draws_a)


def _signature(plan):
    """Order-sensitive (site, kind) pairs of what ``plan`` injected."""
    return [(e.site, e.kind) for e in plan.injected]


class TestFaultPlanDeterminism:
    @staticmethod
    def _drive(plan):
        """A fixed consultation sequence mixing every draw type."""
        trace = []
        for seq in range(40):
            trace.append(tuple(plan.frame_faults(f"wire#{seq}")))
            trace.append(plan.choose_offset(17))
            trace.append(tuple(plan.chaos_kinds(f"attempt#{seq}")))
        return trace, _signature(plan)

    def test_same_seed_same_schedule(self):
        spec = "drop:0.3,corrupt:0.2,tamper:0.1,duplicate:0.2,kill_party:0.1"
        a = parse_fault_spec(spec + ",seed=42")
        b = parse_fault_spec(spec + ",seed=42")
        assert self._drive(a) == self._drive(b)

    def test_different_seed_different_schedule(self):
        spec = "drop:0.3,corrupt:0.3,seed="
        a = self._drive(parse_fault_spec(spec + "1"))
        b = self._drive(parse_fault_spec(spec + "2"))
        assert a != b

    def test_unarmed_kinds_still_consume_rng(self):
        # Arming extra kinds at rate 0 must not shift later decisions:
        # the draw stream depends only on the consultation sequence.
        armed = parse_fault_spec("drop:0.3,seed=8")
        padded = parse_fault_spec("drop:0.3,tamper:0,corrupt:0.0,seed=8")
        assert self._drive(armed) == self._drive(padded)

    def test_signature_records_order_and_sites(self):
        plan = parse_fault_spec("drop:1,seed=0")
        plan.frame_faults("a#0")
        plan.frame_faults("b#1")
        sites = [site for site, kind in _signature(plan) if kind == "drop"]
        assert sites == ["a#0", "b#1"]
        assert [event.seq for event in plan.injected] == list(
            range(len(plan.injected))
        )


class TestResolveFaultPlan:
    @staticmethod
    def _resolve(spec):
        return resolve_fault_plan(spec, FRAME_FAULTS, "a test session")

    def test_none_resolves_to_none(self):
        assert self._resolve(None) is None

    def test_plan_instance_is_copied_fresh(self):
        # A session draws from its own copy, at the top of the schedule:
        # the caller's object is neither consumed nor rewound.
        plan = FaultPlan({"drop": 0.5}, seed=3)
        plan.frame_faults("caller#0")
        resolved = self._resolve(plan)
        assert resolved is not plan
        assert (resolved.rates, resolved.seed) == (plan.rates, plan.seed)
        assert resolved.injected == []
        assert resolved.frame_faults("x#0") == FaultPlan(
            {"drop": 0.5}, seed=3
        ).frame_faults("x#0")
        assert len(plan.injected) == 1

    def test_spec_string_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:0.9")
        plan = self._resolve("drop:0.1,seed=4")
        assert plan.rates == {"drop": 0.1}
        assert plan.seed == 4

    def test_env_is_not_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "truncate:0.7,seed=11")
        assert self._resolve(None) is None

    def test_fresh_plan_per_resolution(self):
        a = self._resolve("drop:0.5,seed=1")
        b = self._resolve("drop:0.5,seed=1")
        assert a is not b

    def test_rejects_non_spec_types(self):
        with pytest.raises(TypeError):
            self._resolve(0.5)

    @pytest.mark.parametrize("source", ["spec", "plan"])
    def test_kind_outside_the_boundary_rejected(self, source):
        spec = "drop:0.1,sever:0.5,seed=2"
        arg = {"spec": spec, "plan": parse_fault_spec(spec)}
        with pytest.raises(FaultKindUnsupported) as info:
            self._resolve(arg[source])
        assert isinstance(info.value, ValueError)
        assert str(info.value).startswith(
            "fault kind 'sever' cannot be injected by a test session;"
        )
