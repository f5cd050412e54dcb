"""One protocol, three drives: the same two role scripts, however scheduled.

``GarblerRole`` / ``EvaluatorRole`` (:mod:`repro.gc.roles`) are the only
implementation of the streamed protocol.  This suite drives them

* **fused** -- ``StreamedDriver`` alternating both roles on one in-memory
  framed pair, at in-flight windows 1, 4 and 100;
* **split over threads** -- one role per thread, each on its own end of a
  kernel ``socketpair`` through ``PeerSocketWire`` (the split scheduler's
  transport without the process machinery);
* **multiplexed** -- the fused drive under ``SessionMultiplexer``;
* **supervised** -- one role per OS process under ``Supervisor``;

and requires every drive to agree on output bits, transcript digest,
per-kind traffic, streamed levels and evaluator hash calls (and both
service executors on their scheduler quanta), and to agree
with the per-gate exchange of ``tests/gc/session_oracle.py`` (which
shares no message code with the roles) on outputs and hash calls.
"""

from __future__ import annotations

import multiprocessing
import random
import socket
import threading

import pytest

from repro.circuits.netlist import Circuit, Gate, GateOp
from repro.circuits.stdlib.aes_circuit import build_aes128_circuit
from repro.gc.channel import make_framed_pair
from repro.gc.protocol import SessionResult, StreamedDriver, TwoPartySession
from repro.gc.roles import EvaluatorRole, GarblerRole
from repro.serve import PeerSocketWire, SessionMultiplexer, SessionSpec, Supervisor
from repro.serve.procs import make_party_channels
from repro.workloads import get_workload
from tests.gc.session_oracle import run_oracle_session
from tests.gc.test_transcript_golden import GOLDEN_SESSIONS

pytestmark = pytest.mark.timeout(120)

SEED = 7


def _xor_only() -> Circuit:
    gates = [Gate(GateOp.XOR, 0, 1, 2), Gate(GateOp.INV, 2, -1, 3)]
    return Circuit.from_gates(1, 1, gates, [3], "xor-only")


def _single_level(n_garbler=1, n_evaluator=1) -> Circuit:
    return Circuit.from_gates(
        n_garbler, n_evaluator, [Gate(GateOp.AND, 0, 1, 2)], [2], "one-and"
    )


# ``wide_circuit`` is the one above the OT-extension threshold: there the
# per-gate oracle (direct OT) shares no handshake code with the roles.
# ``xor_only`` streams no table; the two one-sided circuits run an empty
# OT batch (no evaluator input) and an empty garbler label set.
_BUILT = {
    "xor_only": _xor_only,
    "single_level": _single_level,
    "no_evaluator_input": lambda: _single_level(2, 0),
    "no_garbler_input": lambda: _single_level(0, 2),
}


@pytest.fixture(
    params=["adder_circuit", "mixed_circuit", *_BUILT, "wide_circuit"]
)
def circuit(request) -> Circuit:
    if request.param in _BUILT:
        return _BUILT[request.param]()
    return request.getfixturevalue(request.param)


def _bits(circuit):
    garbler = [(i ^ 1) & 1 for i in range(circuit.n_garbler_inputs)]
    evaluator = [i & 1 for i in range(circuit.n_evaluator_inputs)]
    return garbler, evaluator


def _fused(circuit, backend, window):
    """Step a ``StreamedDriver`` to completion, counting the steps."""
    g, e = _bits(circuit)
    session = TwoPartySession(circuit, seed=SEED, backend=backend)
    driver = StreamedDriver(session, g, e, max_inflight_levels=window)
    assert driver.levels_total is None
    steps = 0
    while not driver.done:
        driver.step()
        steps += 1
    assert steps == 2 * driver.levels_total + 2
    assert driver.levels_evaluated == driver.levels_total
    for channel in (driver.pair.to_evaluator, driver.pair.to_garbler):
        assert channel.retransmits == 0
    assert driver.result.recovery_events == []
    return driver.result


def _split_over_threads(circuit, backend):
    """Each role runs its turns straight through on its own socket end."""
    bits = dict(zip(("garbler", "evaluator"), _bits(circuit)))
    socks = dict(zip(("garbler", "evaluator"), socket.socketpair()))
    reports, errors = {}, {}

    def party(role_cls):
        name = role_cls.party
        wire = PeerSocketWire(socks[name], f"{name} endpoint", io_timeout_s=30.0)
        down, up = make_party_channels(wire)
        try:
            role = role_cls(
                circuit, bits[name], seed=SEED, backend=backend, down=down, up=up,
            )
            while role.next_turn is not None:
                role.take_turn()
            reports[name] = role.report()
        except BaseException as exc:  # surfaced by the assert below
            errors[name] = exc
        finally:
            wire.close()

    threads = [
        threading.Thread(target=party, args=(role_cls,), daemon=True)
        for role_cls in (GarblerRole, EvaluatorRole)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    assert not errors, errors
    assert reports["garbler"]["output_bits"] == reports["evaluator"]["output_bits"]
    return SessionResult.from_reports(
        reports["garbler"], reports["evaluator"], recovery_events=[], fault_events=[]
    )


def _multiplexed(circuit, backend):
    g, e = _bits(circuit)
    mux = SessionMultiplexer()
    handle = mux.submit(TwoPartySession(circuit, seed=SEED, backend=backend), g, e)
    mux.run_until_complete()
    assert handle.error is None, handle.error
    return handle


def _supervised(circuit, backend, reference_digest):
    g, e = _bits(circuit)
    supervisor = Supervisor(deadline_s=60.0, retries=0)
    handle = supervisor.submit(SessionSpec(
        circuit, g, e, seed=SEED, backend=backend,
        reference_digest=reference_digest,
    ))
    stats = supervisor.run_until_complete()
    assert handle.error is None, handle.error
    assert handle.stats.attempts == 1
    assert stats.retries == 0 and stats.worker_restarts == 0
    # Zero zombies: the supervisor's reap contract.
    assert not [p for p in multiprocessing.active_children() if p.is_alive()]
    return handle


def _protocol_view(result):
    """Everything about a result that only the protocol determines."""
    return (
        result.output_bits,
        result.transcript_digest,
        result.traffic,
        result.total_bytes,
        result.streamed_levels,
        result.hash_calls_evaluator,
        result.and_gates,
    )


@pytest.mark.parametrize("backend", [None, "auto"])
def test_every_drive_agrees(circuit, backend):
    g, e = _bits(circuit)
    oracle = run_oracle_session(circuit, g, e, seed=SEED)
    assert oracle.output_bits == circuit.eval_plain(g, e)

    reference = _fused(circuit, backend, window=1)
    assert reference.output_bits == oracle.output_bits
    assert reference.hash_calls_evaluator == oracle.hash_calls_evaluator
    assert reference.and_gates == oracle.and_gates
    assert reference.streamed_levels == sum(
        1 for and_positions, _ in circuit.and_level_schedule() if and_positions
    )

    # Both executors of the session service report the fused drive's
    # scheduler quanta, 2 * levels + 2.
    levels_total = len(circuit.and_level_schedule())
    handles = {
        "multiplexed": _multiplexed(circuit, backend),
        "supervised": _supervised(circuit, backend, reference.transcript_digest),
    }
    for name, handle in handles.items():
        assert handle.stats.steps == 2 * levels_total + 2, name

    drives = {
        "fused window 4": _fused(circuit, backend, window=4),
        "fused window 100": _fused(circuit, backend, window=100),
        "split over threads": _split_over_threads(circuit, backend),
        **{name: handle.result for name, handle in handles.items()},
    }
    for name, result in drives.items():
        assert _protocol_view(result) == _protocol_view(reference), name


# Transcript digest of the AES-128 session below (``SEED``, ``_bits``),
# recorded once like tests/gc/test_transcript_golden.py's values: a
# mismatch means the wire bytes moved, never re-record it to pass.
_AES128_DIGEST = "67ae55b4cbb45ad67b77793f928eae7ae96158184952d9ec1fe152c48ffc5754"


@pytest.mark.slow
@pytest.mark.parametrize("name", ["aes128", "hamm512"])
def test_split_drive_at_full_scale(name):
    """The supervised split drive at full scale: AES-128 (direct
    handshake, 128 choices) and Hamming n=512 (OT extension) equal
    their fused digest and the recorded one."""
    if name == "aes128":
        circuit = build_aes128_circuit()
        g, e = _bits(circuit)
        seed, recorded = SEED, _AES128_DIGEST
    else:
        circuit = get_workload("Hamm").build(n_bits=512).circuit
        seed = 3
        rng = random.Random(seed)
        g = [rng.getrandbits(1) for _ in range(circuit.n_garbler_inputs)]
        e = [rng.getrandbits(1) for _ in range(circuit.n_evaluator_inputs)]
        recorded, _ = GOLDEN_SESSIONS[("hamm512", seed)]
    fused = TwoPartySession(circuit, seed=seed, backend="auto").run_streamed(g, e)
    assert fused.transcript_digest == recorded
    supervisor = Supervisor(deadline_s=120.0, retries=0)
    handle = supervisor.submit(SessionSpec(
        circuit, g, e, seed=seed, backend="auto",
        reference_digest=fused.transcript_digest,
    ))
    supervisor.run_until_complete()
    assert handle.error is None, handle.error
    assert handle.result.output_bits == circuit.eval_plain(g, e)
    assert handle.result.transcript_digest == recorded
    assert not [p for p in multiprocessing.active_children() if p.is_alive()]


@pytest.mark.slow
def test_one_resident_pair_changes_circuit_at_full_scale():
    """One resident pair runs Hamming n=512, AES-128, then Hamming n=512
    again: a reused worker that changes circuit still sends the
    recorded bytes."""
    hamm = get_workload("Hamm").build(n_bits=512).circuit
    rng = random.Random(3)
    hamm_bits = [
        [rng.getrandbits(1) for _ in range(n)]
        for n in (hamm.n_garbler_inputs, hamm.n_evaluator_inputs)
    ]
    aes = build_aes128_circuit()
    runs = [
        (hamm, hamm_bits, 3, GOLDEN_SESSIONS[("hamm512", 3)][0]),
        (aes, _bits(aes), SEED, _AES128_DIGEST),
        (hamm, hamm_bits, 3, GOLDEN_SESSIONS[("hamm512", 3)][0]),
    ]
    supervisor = Supervisor(max_concurrent=1, deadline_s=120.0, retries=0)
    handles = [
        supervisor.submit(SessionSpec(
            circuit, *bits, seed=seed, backend="auto", reference_digest=digest,
        ))
        for circuit, bits, seed, digest in runs
    ]
    supervisor.run_until_complete()
    for (circuit, bits, _, digest), handle in zip(runs, handles):
        assert handle.error is None, handle.error
        assert handle.result.output_bits == circuit.eval_plain(*bits)
        assert handle.result.transcript_digest == digest
    pids = [
        event["pids"] for event in supervisor.log.events
        if event["event"] == "launched"
    ]
    assert len(pids) == 3 and pids[0] == pids[1] == pids[2]
    assert not [p for p in multiprocessing.active_children() if p.is_alive()]


class TestRoleContract:
    def _pair(self):
        pair = make_framed_pair()
        return {"down": pair.to_evaluator, "up": pair.to_garbler}

    @pytest.mark.parametrize(
        "role_cls, bits, what",
        [
            (GarblerRole, [0] * 9, "garbler"),
            (GarblerRole, [0] * 7, "garbler"),
            (EvaluatorRole, [0] * 9, "evaluator"),
            (EvaluatorRole, [], "evaluator"),
        ],
    )
    def test_roles_validate_their_own_arity(
        self, adder_circuit, role_cls, bits, what
    ):
        with pytest.raises(ValueError, match=f"wrong number of {what} input bits"):
            role_cls(
                adder_circuit, bits, seed=SEED, backend=None, **self._pair(),
            )

    @pytest.mark.parametrize("value", [2, -1])
    @pytest.mark.parametrize("party", ["garbler", "evaluator"])
    @pytest.mark.parametrize("entry", ["run_streamed", "multiplexer", "supervisor"])
    def test_every_entry_point_rejects_a_non_bit(
        self, adder_circuit, entry, party, value
    ):
        """An input bit outside {0, 1} raises ``ValueError`` before any
        message is sent or any session admitted.  Unchecked, a garbler
        bit of 2 garbled as 1 while ``eval_plain`` read it as 0, and an
        evaluator bit of 2 aborted the session mid-handshake."""
        bits = dict(zip(("garbler", "evaluator"), _bits(adder_circuit)))
        bits[party][0] = value
        g, e = bits["garbler"], bits["evaluator"]
        mux, supervisor = SessionMultiplexer(), Supervisor(deadline_s=60.0, retries=0)
        with pytest.raises(ValueError, match=f"{party} input bits must be 0 or 1"):
            if entry == "run_streamed":
                TwoPartySession(adder_circuit, seed=SEED).run_streamed(g, e)
            elif entry == "multiplexer":
                mux.submit(TwoPartySession(adder_circuit, seed=SEED), g, e)
            else:
                supervisor.submit(SessionSpec(adder_circuit, g, e, seed=SEED))
        for service in (mux, supervisor):
            assert service.run_until_complete().sessions == []
        assert "launched" not in [ev["event"] for ev in supervisor.log.events]

    @pytest.mark.parametrize(
        "fixture, handshake_turns", [("adder_circuit", 2), ("wide_circuit", 3)]
    )
    def test_turn_phases_in_order(self, request, fixture, handshake_turns):
        circuit = request.getfixturevalue(fixture)
        g, e = _bits(circuit)
        common = dict(seed=SEED, backend=None, **self._pair())
        garbler = GarblerRole(circuit, g, **common)
        evaluator = EvaluatorRole(circuit, e, **common)
        seen = {garbler: [], evaluator: []}
        # Strict alternation, garbler first, is a legal schedule of the
        # whole protocol: no turn ever waits on a message not yet sent.
        while garbler.next_turn or evaluator.next_turn:
            for role in (garbler, evaluator):
                if role.next_turn is not None:
                    seen[role].append(role.next_turn)
                    role.take_turn()
        levels = len(circuit.and_level_schedule())
        assert seen[garbler] == (
            ["handshake"] * handshake_turns + ["level"] * levels + ["finish"] * 3
        )
        assert seen[evaluator] == (
            ["handshake"] * handshake_turns + ["level"] * levels + ["finish"] * 2
        )
        assert garbler.output_bits == evaluator.output_bits
        assert evaluator.output_bits == circuit.eval_plain(g, e)
