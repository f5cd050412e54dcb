"""Compute ahead of the peer: which OT work each party runs between receives.

Message order is data-independent, so each role computes every OT value
it can from its own state and the messages it has already checked
before it blocks on the next receive (DESIGN.md section 4).  This suite
records each party's OT work -- fixed-base table builds and their
exponentiation batches, every builtin ``pow`` in :mod:`repro.gc.ot`,
the pad KDF (``_kdf`` / ``_kdf_batch``), the extension's ``G`` rows
(``_prg_rows``) and the backend hash -- against its channel sends and
receives, on both handshakes, through the fused ``StreamedDriver`` and
through two threads over a socketpair, and asserts:

* after ``ot_ciphers`` / ``otx_ciphers`` the evaluator only XORs;
* after ``ot_points`` / ``otx_seeds`` the garbler runs only the work
  that needs that message;
* the own-state work happens before the receive it does not need;
* no value from the peer enters arithmetic before its range or length
  check: a damaged OT payload is refused with no OT work after it.
"""

from __future__ import annotations

import builtins
import threading

import pytest

from repro.faults import SessionAborted
from repro.gc import ot, roles
from repro.gc.backends import resolve_backend
from repro.gc.channel import FramedChannel
from repro.gc.labels import bytes_to_ints
from repro.gc.protocol import StreamedDriver, TwoPartySession
from repro.gc.roles import _POINT_BYTES
from tests.gc.test_protocol_streamed import _OT_WITNESSES, _UP_KINDS, _damage_first
from tests.serve.test_protocol_drives import SEED, _bits, _fused, _split_over_threads

pytestmark = pytest.mark.timeout(120)

#: Recorded events that are channel traffic, not OT work.
_TRAFFIC = ("recv", "send")


class _Recorder:
    """Per-party event log of OT work and channel traffic.

    The party is the role whose ``take_turn`` is running on the calling
    thread, so one recorder serves the fused drive (both roles on one
    thread, turn about) and the threaded split drive alike.
    """

    def __init__(self, monkeypatch) -> None:
        self.events = {"garbler": [], "evaluator": []}
        self._local = threading.local()
        log = self._log

        take_turn = roles._Role.take_turn

        def turn(role):
            self._local.party = role.party
            try:
                take_turn(role)
            finally:
                self._local.party = None

        recv, send = FramedChannel.recv_message, FramedChannel.send_message

        def recv_message(channel, kind):
            payload = recv(channel, kind)
            log("recv", kind, payload)
            return payload

        def send_message(channel, kind, payload):
            log("send", kind)
            return send(channel, kind, payload)

        table_init = ot._FixedBaseTable.__init__

        def table(self_, base, *args, **kwargs):
            log("table", base)
            table_init(self_, base, *args, **kwargs)

        pow_batch = ot._FixedBaseTable.pow_batch

        def table_pow(self_, exponents):
            log("table_pow", len(exponents))
            return pow_batch(self_, exponents)

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                log(name, args[0] if name == "pow" else None)
                return fn(*args, **kwargs)
            return wrapper

        backend_cls = type(resolve_backend("auto"))
        monkeypatch.setattr(roles._Role, "take_turn", turn)
        monkeypatch.setattr(FramedChannel, "recv_message", recv_message)
        monkeypatch.setattr(FramedChannel, "send_message", send_message)
        monkeypatch.setattr(ot._FixedBaseTable, "__init__", table)
        monkeypatch.setattr(ot._FixedBaseTable, "pow_batch", table_pow)
        # ot.py looks ``pow`` up in its module globals before builtins.
        monkeypatch.setattr(ot, "pow", recorded("pow", builtins.pow), raising=False)
        for name in ("_kdf", "_kdf_batch", "_prg_rows"):
            monkeypatch.setattr(ot, name, recorded(name, getattr(ot, name)))
        monkeypatch.setattr(
            backend_cls, "hash_labels", recorded("hash", backend_cls.hash_labels)
        )

    def _log(self, *event) -> None:
        party = getattr(self._local, "party", None)
        if party is not None:
            self.events[party].append(event)

    def _index(self, party, event) -> int:
        for index, recorded in enumerate(self.events[party]):
            if recorded[:2] == event:
                return index
        raise AssertionError(f"{party} never recorded {event}: {self.events[party]}")

    def elements(self, party, kind):
        """The group elements ``party`` received as ``kind``."""
        payload = self.events[party][self._index(party, ("recv", kind))][2]
        return bytes_to_ints(payload, _POINT_BYTES)

    def work(self, party, start=None, stop=None):
        """The OT work ``party`` ran strictly between two traffic events
        (``None``: the start / the end of its log)."""
        events = self.events[party]
        first = 0 if start is None else self._index(party, start) + 1
        last = len(events) if stop is None else self._index(party, stop)
        return [event[:2] for event in events[first:last] if event[0] not in _TRAFFIC]


def _kinds(work):
    return {name for name, _ in work}


def _drive(name, circuit):
    if name == "fused":
        return _fused(circuit, "auto", window=1)
    return _split_over_threads(circuit, "auto")


@pytest.mark.parametrize("drive", ["fused", "threads"])
class TestComputeAhead:
    def test_direct_handshake(self, adder_circuit, drive, monkeypatch):
        recorder = _Recorder(monkeypatch)
        result = _drive(drive, adder_circuit)
        assert result.output_bits == adder_circuit.eval_plain(*_bits(adder_circuit))
        n = adder_circuit.n_evaluator_inputs
        (public,) = recorder.elements("evaluator", "ot_public")
        points = set(recorder.elements("garbler", "ot_points"))

        # After the ciphertexts the evaluator only XORs; after the points
        # the garbler runs one pow per received point and the pads.
        assert recorder.work(
            "evaluator", ("recv", "ot_ciphers"), ("recv", "garbler_labels")
        ) == []
        reply = recorder.work("garbler", ("recv", "ot_points"), ("send", "ot_ciphers"))
        bases = [base for name, base in reply if name == "pow"]
        assert len(bases) == n and set(bases) <= points
        assert _kinds(reply) <= {"pow", "_kdf", "_kdf_batch"}

        # Where the rest went: the evaluator's g^b before A arrives, its
        # A^b and pads before the ciphertexts arrive; the garbler's
        # (A^{-1})^a before the points arrive.
        ahead = recorder.work("evaluator", None, ("recv", "ot_public"))
        assert ("table_pow", n) in ahead
        assert recorder.work(
            "evaluator", ("recv", "ot_public"), ("send", "ot_points")
        ) == []
        pads = recorder.work("evaluator", ("send", "ot_points"), ("recv", "ot_ciphers"))
        assert ("table", public) in pads and ("table_pow", n) in pads
        assert _kinds(pads) & {"_kdf", "_kdf_batch"}
        factor = recorder.work("garbler", ("send", "ot_public"), ("recv", "ot_points"))
        assert [name for name, _ in factor] == ["pow"]
        assert factor[0][1] not in points

    def test_extension(self, wide_circuit, drive, monkeypatch):
        recorder = _Recorder(monkeypatch)
        result = _drive(drive, wide_circuit)
        assert result.output_bits == wide_circuit.eval_plain(*_bits(wide_circuit))
        (public,) = recorder.elements("garbler", "otx_public")

        # After the ciphertexts the evaluator only XORs; after the seeds
        # the garbler runs only G, q and H, which need them.
        assert recorder.work(
            "evaluator", ("recv", "otx_ciphers"), ("recv", "garbler_labels")
        ) == []
        after = recorder.work(
            "garbler", ("recv", "otx_seeds"), ("send", "otx_ciphers")
        )
        assert _kinds(after) == {"_prg_rows", "hash"}

        # Where the rest went: the evaluator's G(k) rows, t and u before
        # the base points arrive, its H(j, t_j) before the ciphertexts
        # arrive; the garbler's base g^b before the key arrives and its
        # base pads A^b before the seeds arrive.
        opening = recorder.work(
            "evaluator", ("send", "otx_public"), ("recv", "otx_points")
        )
        assert "_prg_rows" in _kinds(opening)
        reply = recorder.work(
            "evaluator", ("recv", "otx_points"), ("send", "otx_matrix")
        )
        assert "_prg_rows" not in _kinds(reply)
        pads = recorder.work(
            "evaluator", ("send", "otx_matrix"), ("recv", "otx_ciphers")
        )
        assert "hash" in _kinds(pads)
        assert ("table_pow", ot.OT_KAPPA) in recorder.work(
            "garbler", None, ("recv", "otx_public")
        )
        pads = recorder.work("garbler", ("send", "otx_points"), ("recv", "otx_seeds"))
        assert ("table", public) in pads
        assert _kinds(pads) & {"_kdf", "_kdf_batch"}


def _refusals():
    for kind, witnesses in _OT_WITNESSES.items():
        for witness, damage in witnesses.items():
            yield pytest.param(kind, damage, id=f"{kind}-{witness}")


@pytest.mark.parametrize("kind,damage", list(_refusals()))
def test_no_peer_value_enters_arithmetic_unchecked(
    request, kind, damage, monkeypatch
):
    """A payload that fails its length or range check is refused before
    any OT work runs on it: the refusing party's log ends at that
    receive."""
    circuit = request.getfixturevalue(
        "wide_circuit" if kind.startswith("otx_") else "adder_circuit"
    )
    recorder = _Recorder(monkeypatch)
    driver = StreamedDriver(
        TwoPartySession(circuit, seed=SEED, backend="auto"), *_bits(circuit)
    )
    up = kind in _UP_KINDS
    pair = driver.pair
    _damage_first(pair.to_garbler if up else pair.to_evaluator, kind, damage)
    with pytest.raises(SessionAborted, match=f"^{kind}: "):
        while not driver.step():
            pass
    refuser = "garbler" if up else "evaluator"
    assert recorder.work(refuser, ("recv", kind)) == []
