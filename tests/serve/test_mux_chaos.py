"""Chaos under multi-tenancy: a faulted session cannot hurt its
neighbours.

The serve-layer extension of the chaos invariant: when one multiplexed
session runs under a hostile fault plan, that session either completes
bit-identical to its solo run or dies with a typed
:class:`~repro.faults.ProtocolFault` -- and every co-scheduled healthy
session completes bit-identical to *its* solo run, with an empty
recovery ledger.  Identical fault seeds must reproduce identical event
signatures whether the faulted session runs solo or packed next to
neighbours (each session's plan rides its own framed pair).

Run with ``pytest -m chaos``.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FrameTimeout,
    ProtocolFault,
    TranscriptMismatch,
    parse_fault_spec,
)
from repro.gc.protocol import TwoPartySession
from repro.serve import SessionMultiplexer

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(120)]


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _solo(circuit, seed=7):
    g, e = _bits(circuit)
    return TwoPartySession(circuit, seed=seed).run_streamed(g, e)


class TestFaultIsolation:
    def test_tampered_session_dies_neighbours_complete(self, mixed_circuit):
        solo = _solo(mixed_circuit)
        g, e = _bits(mixed_circuit)
        mux = SessionMultiplexer(max_concurrent=3)
        healthy_before = mux.submit(
            TwoPartySession(mixed_circuit, seed=7), g, e
        )
        doomed = mux.submit(
            TwoPartySession(mixed_circuit, seed=7, faults="tamper:1.0,seed=5"),
            g, e,
        )
        healthy_after = mux.submit(
            TwoPartySession(mixed_circuit, seed=7), g, e
        )
        stats = mux.run_until_complete()
        assert isinstance(doomed.error, TranscriptMismatch)
        assert doomed.result is None
        for handle in (healthy_before, healthy_after):
            assert handle.result is not None
            assert handle.result.output_bits == solo.output_bits
            assert handle.result.transcript_digest == solo.transcript_digest
            assert handle.stats.recovery_events == 0
            assert handle.stats.fault_events == 0
        assert stats.completed == 2 and stats.faulted == 1
        assert doomed.stats.error == "TranscriptMismatch"

    def test_total_loss_times_out_without_stalling_service(
        self, adder_circuit
    ):
        g, e = _bits(adder_circuit)
        solo = _solo(adder_circuit)
        mux = SessionMultiplexer(max_concurrent=2)
        dead = mux.submit(
            TwoPartySession(adder_circuit, seed=7, faults="drop:1.0,seed=1"),
            g, e,
        )
        alive = mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.run_until_complete()
        assert isinstance(dead.error, FrameTimeout)
        assert alive.result.output_bits == solo.output_bits

    def test_recoverable_faults_complete_with_ledger(self, mixed_circuit):
        g, e = _bits(mixed_circuit)
        solo = _solo(mixed_circuit)
        mux = SessionMultiplexer(max_concurrent=3)
        flaky = mux.submit(
            TwoPartySession(
                mixed_circuit, seed=7,
                faults="drop:0.05,duplicate:0.2,seed=11",
            ),
            g, e,
        )
        clean = [
            mux.submit(TwoPartySession(mixed_circuit, seed=7), g, e)
            for _ in range(2)
        ]
        mux.run_until_complete()
        # The flaky session recovered: same bits, non-empty ledger.
        assert flaky.result is not None
        assert flaky.result.output_bits == solo.output_bits
        assert flaky.result.transcript_digest == solo.transcript_digest
        assert flaky.stats.recovery_events > 0
        for handle in clean:
            assert handle.result.transcript_digest == solo.transcript_digest
            assert handle.stats.recovery_events == 0

    def test_every_fault_class_isolated(self, adder_circuit):
        """One session per fault kind plus one healthy, all at once."""
        g, e = _bits(adder_circuit)
        solo = _solo(adder_circuit)
        specs = [
            "drop:0.08,seed=13",
            "corrupt:0.12,seed=13",
            "duplicate:0.3,seed=13",
            "reorder:0.3,seed=13",
            "tamper:0.15,seed=13",
        ]
        mux = SessionMultiplexer(max_concurrent=len(specs) + 1)
        chaotic = [
            mux.submit(
                TwoPartySession(adder_circuit, seed=7, faults=spec), g, e
            )
            for spec in specs
        ]
        healthy = mux.submit(TwoPartySession(adder_circuit, seed=7), g, e)
        mux.run_until_complete()
        assert healthy.result is not None
        assert healthy.result.transcript_digest == solo.transcript_digest
        assert healthy.stats.recovery_events == 0
        for handle in chaotic:
            if handle.error is not None:
                assert isinstance(handle.error, ProtocolFault)
            else:
                assert handle.result.output_bits == solo.output_bits
                assert (
                    handle.result.transcript_digest
                    == solo.transcript_digest
                )


class TestDeterminism:
    def test_multiplexing_does_not_perturb_event_signatures(
        self, mixed_circuit
    ):
        """Same fault seed, solo vs packed: identical ledgers.

        This is the direct test that each session's plan stays on its
        own framed pair -- if a neighbour's steps consumed the faulted
        session's plan sites (or vice versa), the injected/recovery
        sequences would shift.
        """
        spec = "drop:0.05,corrupt:0.05,duplicate:0.2,seed=7"
        g, e = _bits(mixed_circuit)

        def solo_signature():
            plan = parse_fault_spec(spec)
            result = TwoPartySession(
                mixed_circuit, seed=7, faults=plan
            ).run_streamed(g, e)
            injected = [
                (event.site, event.kind) for event in result.fault_events
            ]
            recovered = [
                (event.layer, event.kind, event.detail)
                for event in result.recovery_events
            ]
            return injected, recovered

        def mux_signature():
            mux = SessionMultiplexer(max_concurrent=3)
            flaky = mux.submit(
                TwoPartySession(
                    mixed_circuit, seed=7, faults=parse_fault_spec(spec)
                ),
                g, e,
            )
            for _ in range(2):
                mux.submit(TwoPartySession(mixed_circuit, seed=7), g, e)
            mux.run_until_complete()
            assert flaky.result is not None
            injected = [
                (event.site, event.kind)
                for event in flaky.result.fault_events
            ]
            recovered = [
                (event.layer, event.kind, event.detail)
                for event in flaky.result.recovery_events
            ]
            return injected, recovered

        solo_sig = solo_signature()
        assert solo_sig[0], "spec expected to inject at this seed"
        assert mux_signature() == solo_sig
        # And it reproduces run over run inside the service too.
        assert mux_signature() == solo_sig

    def test_one_plan_object_shared_by_two_sessions(self, mixed_circuit):
        """One ``FaultPlan`` object handed to two multiplexed sessions:
        each draws from its own copy, so each injects and recovers
        exactly what a solo run of that plan does."""
        g, e = _bits(mixed_circuit)

        def ledger(result):
            return (
                [(event.site, event.kind) for event in result.fault_events],
                [
                    (event.layer, event.kind, event.detail)
                    for event in result.recovery_events
                ],
            )

        spec = "drop:0.2,seed=3"
        solo = ledger(
            TwoPartySession(mixed_circuit, seed=7, faults=spec).run_streamed(g, e)
        )
        assert solo[0], "spec expected to inject at this seed"
        shared = parse_fault_spec(spec)
        mux = SessionMultiplexer(max_concurrent=2)
        handles = [
            mux.submit(TwoPartySession(mixed_circuit, seed=7, faults=shared), g, e)
            for _ in range(2)
        ]
        mux.run_until_complete()
        for handle in handles:
            assert handle.result is not None
            assert ledger(handle.result) == solo
            assert handle.stats.fault_events == len(solo[0])
        # The caller's object is a template: no session drew from it.
        assert shared.injected == []
