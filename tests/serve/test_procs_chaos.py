"""Process-scope chaos: whole-process failures under supervision.

The PR 6 chaos invariant, extended from frames to processes: under a
hostile plan arming ``kill_party`` / ``sever`` / ``stall``, every
supervised session either completes bit-identical to its fault-free
solo run (possibly after supervised retries) or seals with a typed
:class:`~repro.faults.ProtocolFault` promptly -- never a hang, never a
leaked child process.

Run with ``pytest -m chaos`` (the CI ``process-chaos`` lane runs
exactly this file with ``REPRO_SUPERVISOR_LOG`` pointed at an artifact
path).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.faults import (
    PROCESS_CHAOS,
    PeerDisconnected,
    ProtocolFault,
    SessionDeadlineExceeded,
    WorkerCrashed,
    parse_fault_spec,
)
from repro.gc.protocol import TwoPartySession
from repro.serve import SessionSpec, Supervisor, draw_chaos

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(300)]

#: Which typed faults each chaos kind may legitimately seal with.  A
#: killed worker can surface as its own sentinel (WorkerCrashed) or as
#: the peer noticing the socket die first (PeerDisconnected); a stall
#: produces no I/O signal at all, so only the deadline watchdog fires.
EXPECTED_FAULTS = {
    "kill_party": (WorkerCrashed, PeerDisconnected),
    "sever": (PeerDisconnected, WorkerCrashed),
    "stall": (SessionDeadlineExceeded,),
}


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _solo(circuit, seed=7):
    g, e = _bits(circuit)
    return TwoPartySession(circuit, seed=seed).run_streamed(g, e)


def _assert_reaped():
    leftovers = multiprocessing.active_children()
    assert not [p for p in leftovers if p.is_alive()], leftovers


def _seeds_hitting_both_parties(kind, levels_total, count=2):
    """Seeds whose first-attempt draw targets garbler resp. evaluator."""
    chosen = {}
    for seed in range(500):
        plan = parse_fault_spec(f"{kind},seed={seed}")
        pick = draw_chaos(plan, levels_total, site="probe#a1")
        assert pick is not None  # rate 1.0 always arms
        if pick.target not in chosen:
            chosen[pick.target] = seed
        if len(chosen) == count:
            return chosen
    raise AssertionError(f"no seeds found covering both parties for {kind}")


class TestProcessChaosInvariant:
    @pytest.mark.parametrize("kind", PROCESS_CHAOS)
    def test_typed_fault_or_bit_identical_both_targets(
        self, adder_circuit, kind
    ):
        """Rate-1.0 chaos on either party: typed fault, prompt, reaped."""
        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        levels_total = len(list(adder_circuit.and_level_schedule()))
        deadline = 2.0 if kind == "stall" else 30.0
        for target, seed in _seeds_hitting_both_parties(
            kind, levels_total
        ).items():
            supervisor = Supervisor(
                deadline_s=deadline, retries=0, heartbeat_timeout_s=60.0
            )
            handle = supervisor.submit(SessionSpec(
                adder_circuit, g, e, seed=7,
                faults=f"{kind},seed={seed}",
                reference_digest=solo.transcript_digest,
                session_id=f"{kind}-{target}",
            ))
            t0 = time.perf_counter()
            supervisor.run_until_complete()
            elapsed = time.perf_counter() - t0
            # The invariant: typed fault (never a hang, never a raw
            # OSError escaping), or -- impossible at rate 1.0 with no
            # retries -- a bit-identical completion.
            assert handle.error is not None, (kind, target)
            assert isinstance(handle.error, ProtocolFault)
            assert isinstance(handle.error, EXPECTED_FAULTS[kind]), (
                kind, target, handle.error,
            )
            assert elapsed < 60.0
            _assert_reaped()

    @pytest.mark.parametrize("kind", PROCESS_CHAOS)
    def test_retry_past_chaos_is_bit_identical(self, adder_circuit, kind):
        """A hit-then-miss schedule recovers to an exact transcript."""
        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        levels_total = len(list(adder_circuit.and_level_schedule()))
        seed = next(
            s for s in range(500)
            if (
                lambda plan: (
                    draw_chaos(plan, levels_total, site="x#a1") is not None
                    and draw_chaos(plan, levels_total, site="x#a2") is None
                )
            )(parse_fault_spec(f"{kind}:0.5,seed={s}"))
        )
        supervisor = Supervisor(
            deadline_s=2.0 if kind == "stall" else 30.0,
            retries=2,
            backoff_base_s=0.01,
            heartbeat_timeout_s=60.0,
        )
        handle = supervisor.submit(SessionSpec(
            adder_circuit, g, e, seed=7,
            faults=f"{kind}:0.5,seed={seed}",
            reference_digest=solo.transcript_digest,
        ))
        stats = supervisor.run_until_complete()
        assert handle.error is None, (kind, handle.error)
        assert handle.stats.attempts == 2
        assert handle.result.output_bits == solo.output_bits
        assert handle.result.transcript_digest == solo.transcript_digest
        assert stats.retries == 1
        _assert_reaped()

    @pytest.mark.parametrize("target", ["garbler", "evaluator"])
    def test_heartbeat_silence_retries_bit_identical(self, adder_circuit, target):
        """A party stopped at launch sends no heartbeat: the supervisor
        reports it lost, kills the pair and retries bit-identical."""

        class StopAtLaunch(Supervisor):
            def _start(self, handle, now):
                fields = super()._start(handle, now)
                if handle.stats.attempts == 1:
                    os.kill(fields["pids"][target], signal.SIGSTOP)
                return fields

        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        supervisor = StopAtLaunch(
            heartbeat_timeout_s=0.5, deadline_s=20.0, retries=1
        )
        handle = supervisor.submit(SessionSpec(
            adder_circuit, g, e, seed=7,
            reference_digest=solo.transcript_digest,
        ))
        stats = supervisor.run_until_complete()
        lost = [
            event for event in supervisor.log.events
            if event["event"] == "heartbeat_lost"
        ]
        assert [(event["role"], event["attempt"]) for event in lost] == [
            (target, 1)
        ]
        assert handle.error is None, handle.error
        assert handle.stats.attempts == 2 and stats.retries == 1
        assert handle.result.output_bits == solo.output_bits
        assert handle.result.transcript_digest == solo.transcript_digest
        _assert_reaped()

    def test_chaos_schedule_is_deterministic(self, adder_circuit):
        levels_total = len(list(adder_circuit.and_level_schedule()))

        def schedule(seed, attempts=4):
            plan = parse_fault_spec(
                f"kill_party:0.4,sever:0.3,stall:0.2,seed={seed}"
            )
            return [
                draw_chaos(plan, levels_total, site=f"s#a{i}")
                for i in range(1, attempts + 1)
            ]

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_chaos_does_not_hurt_healthy_neighbours(self, adder_circuit):
        """Fault isolation at process scope: neighbours stay exact."""
        solo = _solo(adder_circuit)
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(
            max_concurrent=3, deadline_s=30.0, retries=0
        )
        victim = supervisor.submit(SessionSpec(
            adder_circuit, g, e, seed=7, faults="kill_party,seed=5",
            session_id="victim",
        ))
        healthy = [
            supervisor.submit(SessionSpec(
                adder_circuit, g, e, seed=7, session_id=f"h{i}",
                reference_digest=solo.transcript_digest,
            ))
            for i in range(2)
        ]
        supervisor.run_until_complete()
        assert victim.error is not None
        for handle in healthy:
            assert handle.error is None, handle.error
            assert handle.result.output_bits == solo.output_bits
            assert handle.result.transcript_digest == solo.transcript_digest
        _assert_reaped()

    def test_event_log_env_var(self, adder_circuit, tmp_path, monkeypatch):
        """REPRO_SUPERVISOR_LOG mirrors the timeline (the CI artifact)."""
        from repro.serve.service import SUPERVISOR_LOG_ENV

        log_path = tmp_path / "supervisor-events.jsonl"
        monkeypatch.setenv(SUPERVISOR_LOG_ENV, str(log_path))
        g, e = _bits(adder_circuit)
        supervisor = Supervisor(deadline_s=30.0, retries=0)
        supervisor.submit(SessionSpec(
            adder_circuit, g, e, seed=7, faults="sever,seed=9"
        ))
        supervisor.run_until_complete()
        assert log_path.exists()
        text = log_path.read_text()
        assert '"launched"' in text
        assert '"sealed"' in text
