"""Chaos matrix: every fault class against real two-party sessions.

The robustness invariant under test: with any deterministic fault plan
armed, a streamed session either completes with output and transcript
bit-identical to the fault-free run, or raises a typed
:class:`repro.faults.ProtocolFault` promptly -- it never hangs and never
returns corrupt output.  Identical fault seeds must reproduce identical
injected-fault and recovery-event sequences.

Run with ``pytest -m chaos``; every test carries a tight wall-clock
budget (pytest-timeout in CI, the SIGALRM shim in conftest.py locally)
because "terminates" is part of the contract being verified.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FRAME_FAULTS,
    FaultPlan,
    FrameTimeout,
    ProtocolFault,
    RecoveryLog,
    TranscriptMismatch,
    install,
    parse_fault_spec,
)
from repro.gc.protocol import run_two_party

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]

#: Injection rate per fault class for the survivable matrix: high enough
#: to fire many times per session, low enough that the bounded
#: retransmit budget recovers (tamper is the exception -- it is designed
#: to slip past recovery and trip the transcript digest instead).
_MATRIX_RATES = {
    "drop": 0.08,
    "corrupt": 0.12,
    "truncate": 0.12,
    "tamper": 0.15,
    "duplicate": 0.3,
    "delay": 0.3,
    "reorder": 0.3,
}

# ``wide_circuit`` runs the OT-extension handshake (211 evaluator inputs).
_CIRCUITS = ["tiny_circuit", "adder_circuit", "mixed_circuit", "wide_circuit"]


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _baseline(circuit):
    g, e = _bits(circuit)
    return run_two_party(circuit, g, e, streamed=True)


def _chaos_run(circuit, spec):
    """One fault-injected streamed session; returns (result, error)."""
    g, e = _bits(circuit)
    try:
        return run_two_party(circuit, g, e, faults=spec, streamed=True), None
    except ProtocolFault as exc:
        return None, exc


class TestChaosMatrix:
    @pytest.mark.parametrize("kind", FRAME_FAULTS)
    @pytest.mark.parametrize("fixture", _CIRCUITS)
    def test_fault_class_never_corrupts(self, request, fixture, kind):
        circuit = request.getfixturevalue(fixture)
        clean = _baseline(circuit)
        spec = f"{kind}:{_MATRIX_RATES[kind]},seed=13"
        result, error = _chaos_run(circuit, spec)
        if error is not None:
            # Termination with a *typed* fault is an allowed outcome;
            # silent corruption or a hang is not.
            assert isinstance(error, ProtocolFault)
            return
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest
        # Monolithic and streamed agree, so chaos agreed with both.
        g, e = _bits(circuit)
        assert result.output_bits == run_two_party(circuit, g, e).output_bits

    @pytest.mark.parametrize("fixture", _CIRCUITS)
    def test_combined_faults(self, request, fixture):
        circuit = request.getfixturevalue(fixture)
        clean = _baseline(circuit)
        spec = "drop:0.04,corrupt:0.04,duplicate:0.1,delay:0.1,reorder:0.1,seed=99"
        result, error = _chaos_run(circuit, spec)
        if error is not None:
            assert isinstance(error, ProtocolFault)
            return
        assert result.output_bits == clean.output_bits
        assert result.transcript_digest == clean.transcript_digest

    def test_total_loss_times_out_promptly(self, adder_circuit):
        _, error = _chaos_run(adder_circuit, "drop:1.0,seed=1")
        assert isinstance(error, FrameTimeout)

    def test_pervasive_tamper_trips_transcript_digest(self, adder_circuit):
        result, error = _chaos_run(adder_circuit, "tamper:1.0,seed=1")
        assert result is None
        assert isinstance(error, TranscriptMismatch)

    def test_seeded_runs_reproduce_event_sequences(self, mixed_circuit):
        spec = "drop:0.05,corrupt:0.05,duplicate:0.2,seed=7"
        g, e = _bits(mixed_circuit)

        def one_run():
            plan = parse_fault_spec(spec)
            try:
                result = run_two_party(
                    mixed_circuit, g, e, faults=plan, streamed=True
                )
            except ProtocolFault as exc:
                fault_sig = [(ev.site, ev.kind) for ev in plan.injected]
                return ("fault", type(exc).__name__, str(exc), fault_sig)
            recovery_sig = [
                (ev.layer, ev.kind, ev.detail) for ev in result.recovery_events
            ]
            fault_sig = [(ev.site, ev.kind) for ev in result.fault_events]
            return (
                "ok",
                result.output_bits,
                result.transcript_digest,
                recovery_sig,
                fault_sig,
            )

        first = one_run()
        assert one_run() == first
        assert one_run() == first

    def test_different_seeds_differ(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        signatures = []
        for seed in (1, 2):
            try:
                result = run_two_party(
                    mixed_circuit,
                    g,
                    e,
                    faults=f"drop:0.05,duplicate:0.2,seed={seed}",
                    streamed=True,
                )
                signatures.append([(f.site, f.kind) for f in result.fault_events])
            except ProtocolFault:
                signatures.append(("fault", seed))
        assert signatures[0] != signatures[1]


class TestProcessChaos:
    def test_cache_tear_recovers_by_recompile(self, tmp_path):
        from repro.core.progcache import ProgramCache

        store = ProgramCache(tmp_path, memory=False)
        payload = {"compiled": list(range(64))}
        store.put("k" * 64, payload)
        assert store.get("k" * 64) == payload

        plan = FaultPlan({"tear_cache": 1.0}, seed=0)
        log = RecoveryLog()
        with install(plan, log):
            assert store.get("k" * 64) is None
        assert store.stats.corrupt == 1
        assert log.count("cache", "entry_recovered") == 1
        assert [(e.site[:6], e.kind) for e in plan.injected] == [
            ("cache:", "tear_cache")
        ]

        # The torn entry was dropped: a recompile-and-put round trip
        # restores service with no stale bytes left behind.
        store.put("k" * 64, payload)
        assert store.get("k" * 64) == payload
